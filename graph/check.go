package graph

import (
	"unsafe"

	"thriftylp/internal/atomicx"
	"thriftylp/internal/parallel"
)

// The structural checker every load shares (graph loads through
// validateStructure, shard slices through CSRSlice.validate): one chunked
// direct-loop pass per array. Only a chunk that fails looks for its exact
// first offender.

// checkGrain is the chunk size, in array elements, of the checker's passes.
const checkGrain = 1 << 16

// checkParallelBytes is the array size below which a pass runs on the
// calling goroutine: waking the pool there costs more than it saves. Shard
// slices of ~210k ids (0.8 MB) checked on two threads made the on-disk
// sharded solve ~15% slower than checking them on the caller.
const checkParallelBytes = 2 << 20

// forEachChunk calls fn(lo, hi) for every checkGrain chunk of [0, n), for
// an array of n elements of width bytes each: on the calling goroutine
// below checkParallelBytes, spread over the pool above it.
func forEachChunk(pool *parallel.Pool, n, width int, fn func(lo, hi int)) {
	each := func(_, clo, chi int) {
		for c := clo; c < chi; c++ {
			fn(c*checkGrain, min(n, (c+1)*checkGrain))
		}
	}
	chunks := (n + checkGrain - 1) / checkGrain
	if n*width < checkParallelBytes {
		each(0, 0, chunks)
		return
	}
	parallel.For(pool, chunks, 1, each)
}

// scanOffsets checks that offsets is monotone and finds the vertex of
// maximum degree in one chunked pass. It returns the first vertex v with
// offsets[v+1] < offsets[v], or -1, and the max-degree vertex with its
// degree, the smallest id among ties; the degree is meaningful only when
// bad is -1. For an array with no vertices it returns -1, 0, 0. The
// callers have checked that offsets[0] is 0.
//
// A chunk's fast path ORs each degree and each offset into one word: a
// dip between non-negative offsets gives a negative degree, and a
// negative offset, whose degrees can wrap past the int64 range, is
// negative itself. Either way the chunk rescans with exact compares.
func scanOffsets(pool *parallel.Pool, offsets []int64) (bad, hub int, maxDeg int64) {
	n := len(offsets) - 1
	if n <= 0 {
		return -1, 0, 0
	}
	type chunkResult struct {
		bad, hub int
		maxDeg   int64
	}
	chunks := make([]chunkResult, (n+checkGrain-1)/checkGrain)
	forEachChunk(pool, n, 8, func(lo, hi int) {
		best, arg := int64(-1), lo
		prev := offsets[lo]
		neg := prev
		for i, next := range offsets[lo+1 : hi+1] {
			d := next - prev
			prev = next
			neg |= d | next
			if d > best {
				best, arg = d, lo+i
			}
		}
		first := -1
		if neg < 0 {
			for v := lo; v < hi; v++ {
				if offsets[v+1] < offsets[v] {
					first = v
					break
				}
			}
		}
		chunks[lo/checkGrain] = chunkResult{bad: first, hub: arg, maxDeg: best} //thrifty:benign-race per-chunk slot
	})
	bad, hub, maxDeg = -1, 0, -1
	for _, r := range chunks {
		if bad < 0 && r.bad >= 0 {
			bad = r.bad
		}
		if r.maxDeg > maxDeg {
			hub, maxDeg = r.hub, r.maxDeg
		}
	}
	return bad, hub, maxDeg
}

// newGraph returns the graph over CSR arrays a builder made well formed,
// with its max-degree vertex found by scanOffsets.
func newGraph(pool *parallel.Pool, offsets []int64, adj []uint32) *Graph {
	_, hub, _ := scanOffsets(pool, offsets)
	return &Graph{offsets: offsets, adj: adj, maxDeg: uint32(hub)}
}

// firstOutOfRange returns the index of the first id in ids that is not
// below n, or -1.
func firstOutOfRange(pool *parallel.Pool, ids []uint32, n int) int {
	return firstViolation(pool, len(ids), 4, func(lo, hi int) int {
		if idsBelow(ids[lo:hi], n) {
			return -1
		}
		for i, u := range ids[lo:hi] {
			if int(u) >= n {
				return lo + i
			}
		}
		return -1
	})
}

// idsBelow reports whether every id in ids is below n. For n <= 2^31 it
// reads two ids per 64-bit word w and OR-accumulates w and w + c, where c
// adds 2^31 - n to each 32-bit lane. An id below 2^31 then sets its lane's
// top bit in w + c exactly when it is at least n, and cannot carry out of
// its lane; an id at or above 2^31 has that bit set in w itself. So bit 31
// or bit 63 of the accumulator is set iff some id is out of range. An
// unaligned first id, an odd last id, and n > 2^31 take the scalar compare.
func idsBelow(ids []uint32, n int) bool {
	if n > 1<<31 {
		for _, u := range ids {
			if int(u) >= n {
				return false
			}
		}
		return true
	}
	if len(ids) > 0 && uintptr(unsafe.Pointer(&ids[0]))%8 != 0 {
		if int(ids[0]) >= n {
			return false
		}
		ids = ids[1:]
	}
	if len(ids)%2 == 1 {
		if int(ids[len(ids)-1]) >= n {
			return false
		}
		ids = ids[:len(ids)-1]
	}
	if len(ids) == 0 {
		return true
	}
	c := uint64(1<<31-n) * (1<<32 + 1)
	var acc uint64
	for _, w := range unsafe.Slice((*uint64)(unsafe.Pointer(&ids[0])), len(ids)/2) {
		acc |= w | (w + c)
	}
	return acc&(1<<31|1<<63) == 0
}

// firstViolation returns the smallest index in [0, n) that scan reports,
// or -1, for an array of n elements of width bytes each. scan(lo, hi)
// returns the first offending index in [lo, hi), or -1; it runs over the
// chunks of forEachChunk, and a chunk that starts past an offender already
// on record is skipped. So the all-good case is one sweep, and the error
// case still reports the deterministic first offender.
func firstViolation(pool *parallel.Pool, n, width int, scan func(lo, hi int) int) int {
	best := int64(n)
	forEachChunk(pool, n, width, func(lo, hi int) {
		if int64(lo) >= atomicx.LoadInt64(&best) {
			return
		}
		i := scan(lo, hi)
		if i < 0 {
			return
		}
		for {
			cur := atomicx.LoadInt64(&best)
			if int64(i) >= cur || atomicx.CASInt64(&best, cur, int64(i)) {
				return
			}
		}
	})
	if best == int64(n) {
		return -1
	}
	return int(best)
}
