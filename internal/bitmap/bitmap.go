// Package bitmap implements fixed-size bit sets used as dense frontier
// representations by the label-propagation engines. Two flavours are
// provided: Bitmap, a single-writer set with no synchronization, and the
// atomic SetAtomic for concurrent frontier insertion during parallel push
// and pull-frontier iterations.
package bitmap

import (
	"math/bits"
	"thriftylp/internal/atomicx"
)

const wordBits = 64

// Bitmap is a fixed-capacity bit set over vertex ids [0, N).
type Bitmap struct {
	words []uint64
	n     int
}

// New returns a Bitmap with capacity for n bits, all zero.
func New(n int) *Bitmap {
	if n < 0 {
		panic("bitmap: negative size")
	}
	return &Bitmap{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// Len returns the capacity (number of addressable bits).
func (b *Bitmap) Len() int { return b.n }

// Set sets bit i. Not safe for concurrent use; see SetAtomic.
//
//thrifty:hotpath
func (b *Bitmap) Set(i int) { b.words[i/wordBits] |= 1 << (uint(i) % wordBits) }

// Clear clears bit i.
//
//thrifty:hotpath
func (b *Bitmap) Clear(i int) { b.words[i/wordBits] &^= 1 << (uint(i) % wordBits) }

// Get reports whether bit i is set.
//
//thrifty:hotpath
func (b *Bitmap) Get(i int) bool {
	return b.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// SetAtomic sets bit i with an atomic read-modify-write and reports whether
// this call changed the bit (false if it was already set). It is safe for
// concurrent use with other SetAtomic calls.
//
//thrifty:hotpath
func (b *Bitmap) SetAtomic(i int) bool {
	w := &b.words[i/wordBits]
	mask := uint64(1) << (uint(i) % wordBits)
	for {
		old := atomicx.LoadUint64(w)
		if old&mask != 0 {
			return false
		}
		if atomicx.CASUint64(w, old, old|mask) {
			return true
		}
	}
}

// Reset clears all bits. Not safe for concurrent use.
func (b *Bitmap) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// SetAll sets every bit in [0, Len()).
func (b *Bitmap) SetAll() {
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	b.trimTail()
}

// trimTail zeroes the bits beyond n in the last word so Count stays exact.
func (b *Bitmap) trimTail() {
	if rem := b.n % wordBits; rem != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= (1 << uint(rem)) - 1
	}
}

// Count returns the number of set bits.
func (b *Bitmap) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// ForEach calls fn for every set bit in ascending order.
func (b *Bitmap) ForEach(fn func(i int)) {
	for wi, w := range b.words {
		base := wi * wordBits
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			fn(base + tz)
			w &= w - 1
		}
	}
}

// rangeWords returns the word-index range covering [lo, hi) together with
// the partial-word masks for the first and last word. Callers must have
// validated 0 <= lo < hi <= n.
func (b *Bitmap) rangeWords(lo, hi int) (loW, hiW int, loMask, hiMask uint64) {
	loW, hiW = lo/wordBits, (hi-1)/wordBits
	loMask = ^uint64(0) << (uint(lo) % wordBits)
	hiMask = ^uint64(0) >> (uint(wordBits-1-(hi-1)%wordBits) % wordBits)
	return
}

// ForEachRange calls fn for every set bit in [lo, hi) in ascending order.
// The scan is word-at-a-time: zero words — the common case when a sparse
// frontier is scanned by a partitioned sweep — cost one load and one branch
// for 64 bits, and set bits are drained with TrailingZeros64 instead of
// probing every bit position individually.
//
//thrifty:hotpath
func (b *Bitmap) ForEachRange(lo, hi int, fn func(i int)) {
	if lo < 0 || hi > b.n || lo > hi {
		panic("bitmap: ForEachRange out of bounds")
	}
	if lo == hi {
		return
	}
	loW, hiW, loMask, hiMask := b.rangeWords(lo, hi)
	for wi := loW; wi <= hiW; wi++ {
		w := b.words[wi]
		if wi == loW {
			w &= loMask
		}
		if wi == hiW {
			w &= hiMask
		}
		base := wi * wordBits
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			fn(base + tz)
			w &= w - 1
		}
	}
}

// AppendTo appends the indices of all set bits to dst and returns it.
func (b *Bitmap) AppendTo(dst []uint32) []uint32 {
	b.ForEach(func(i int) { dst = append(dst, uint32(i)) })
	return dst
}

// AppendRange appends the indices of the set bits in [lo, hi) to dst and
// returns it — the dense→sparse frontier extraction primitive, word-at-a-
// time like ForEachRange but without the per-bit callback.
func (b *Bitmap) AppendRange(dst []uint32, lo, hi int) []uint32 {
	if lo < 0 || hi > b.n || lo > hi {
		panic("bitmap: AppendRange out of bounds")
	}
	if lo == hi {
		return dst
	}
	loW, hiW, loMask, hiMask := b.rangeWords(lo, hi)
	for wi := loW; wi <= hiW; wi++ {
		w := b.words[wi]
		if wi == loW {
			w &= loMask
		}
		if wi == hiW {
			w &= hiMask
		}
		base := wi * wordBits
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			dst = append(dst, uint32(base+tz))
			w &= w - 1
		}
	}
	return dst
}

// Rank is a rank directory over a bitmap: one popcount prefix per word, so
// the number of set bits below any index costs one table load and one
// popcount. It reads the bitmap's words in place and answers for the bits
// as they were when it was built; it is stale once the bitmap changes.
type Rank struct {
	words  []uint64
	prefix []uint32 // prefix[w] = set bits in words[:w]; one extra entry for the total
}

// NewRank builds the rank directory of b in one pass over its words.
func NewRank(b *Bitmap) Rank {
	prefix := make([]uint32, len(b.words)+1)
	for w, x := range b.words {
		prefix[w+1] = prefix[w] + uint32(bits.OnesCount64(x))
	}
	return Rank{words: b.words, prefix: prefix}
}

// Below returns the number of set bits in [0, i), for 0 <= i <= Len(). For
// a set bit i that is its index among the set bits in ascending order.
//
//thrifty:hotpath
func (r Rank) Below(i int) int {
	w := i / wordBits
	c := int(r.prefix[w])
	if rem := uint(i) % wordBits; rem != 0 {
		c += bits.OnesCount64(r.words[w] & (1<<rem - 1))
	}
	return c
}
