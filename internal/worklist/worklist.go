// Package worklist implements the sparse frontier data structure of the
// Thrifty paper (§IV-E): per-thread local worklists that collect active
// vertices during push iterations, a shared mark array that best-effort
// deduplicates insertions, and chunked work stealing for consumption.
//
// The paper uses a plain (non-atomic) shared byte array and tolerates the
// resulting race: a vertex may be inserted into two threads' worklists and
// processed twice in the next iteration, which does not affect correctness.
// Go's memory model does not permit plain racy accesses, so the mark array
// here is a []uint32 accessed with individual atomic loads and stores —
// deliberately NOT a compare-and-swap — which preserves the paper's
// semantics exactly: the load→store window still allows occasional duplicate
// insertion, but the program stays data-race-free.
package worklist

import (
	"thriftylp/internal/atomicx"
	"thriftylp/internal/bitmap"
)

// stealChunk is the number of vertices a consumer claims from a list per
// cursor bump. Chunking amortizes the atomic fetch-add and keeps stolen work
// contiguous for locality.
const stealChunk = 64

// Set is a frontier of active vertices with per-thread insertion lists.
// A Set is written during one iteration (via Add) and consumed during the
// next (via Drain); Reset prepares it for reuse.
type Set struct {
	marked  []uint32   // shared mark array; atomic load/store, no CAS
	lists   [][]uint32 // one local worklist per thread
	cursors []cursorPad
	threads int
}

//thrifty:padded
type cursorPad struct {
	c int64
	_ [7]int64 // pad to a cache line so steal cursors do not false-share
}

// New creates a Set for vertex ids [0, n) and the given thread count.
func New(n, threads int) *Set {
	if threads <= 0 {
		threads = 1
	}
	return &Set{
		marked:  make([]uint32, n),
		lists:   make([][]uint32, threads),
		cursors: make([]cursorPad, threads),
		threads: threads,
	}
}

// Add inserts vertex v into thread tid's local worklist unless the shared
// mark array already shows it present. The check-then-mark is intentionally
// not atomic as a unit (see package comment); duplicates are possible and
// benign.
func (s *Set) Add(tid int, v uint32) {
	if atomicx.LoadUint32(&s.marked[v]) != 0 {
		return
	}
	atomicx.StoreUint32(&s.marked[v], 1)
	s.lists[tid] = append(s.lists[tid], v)
}

// AddIfAbsent inserts v into thread tid's local worklist unless the shared
// mark array already shows it present, and reports whether v was inserted.
// It folds the Contains+Add pair the push kernels used into a single atomic
// load (plus the store on the absent path). As with Add, the check-then-mark
// is intentionally not atomic as a unit: two racing callers may both observe
// "absent", both insert, and both return true — the benign duplicate the
// package comment describes.
func (s *Set) AddIfAbsent(tid int, v uint32) bool {
	if atomicx.LoadUint32(&s.marked[v]) != 0 {
		return false
	}
	atomicx.StoreUint32(&s.marked[v], 1)
	s.lists[tid] = append(s.lists[tid], v)
	return true
}

// AddUnchecked appends v to tid's list and marks it, skipping the duplicate
// check. Used when the caller already knows v is absent (e.g., seeding the
// initial-push frontier with the single planted vertex).
func (s *Set) AddUnchecked(tid int, v uint32) {
	atomicx.StoreUint32(&s.marked[v], 1)
	s.lists[tid] = append(s.lists[tid], v)
}

// AppendRange appends the set bits of bm in [lo, hi) to thread tid's list
// in ascending order, without marking them: it loads a dense frontier for
// draining, not one that later Adds deduplicate against. Reset still
// empties the Set (unmarking an unmarked vertex is a no-op).
func (s *Set) AppendRange(tid int, bm *bitmap.Bitmap, lo, hi int) {
	s.lists[tid] = bm.AppendRange(s.lists[tid], lo, hi)
}

// Contains reports whether v is marked present.
//
//thrifty:hotpath
func (s *Set) Contains(v uint32) bool {
	return atomicx.LoadUint32(&s.marked[v]) != 0
}

// Len returns the total number of queued vertices across all lists,
// counting duplicates. Single-threaded; call between iterations.
func (s *Set) Len() int {
	n := 0
	for _, l := range s.lists {
		n += len(l)
	}
	return n
}

// Empty reports whether no vertex is queued.
func (s *Set) Empty() bool { return s.Len() == 0 }

// Drain consumes the Set on behalf of thread tid: first chunks of tid's own
// list, then chunks stolen from the other threads' lists in ring order.
// Drain is called concurrently by all threads; each queued vertex is
// delivered to exactly one caller (though the same vertex id may have been
// queued twice by racing Adds).
//
//thrifty:hotpath
func (s *Set) Drain(tid int, fn func(v uint32)) {
	for d := 0; d < s.threads; d++ {
		li := (tid + d) % s.threads
		list := s.lists[li]
		cur := &s.cursors[li].c
		for {
			lo := int(atomicx.AddInt64(cur, stealChunk)) - stealChunk
			if lo >= len(list) {
				break
			}
			hi := lo + stealChunk
			if hi > len(list) {
				hi = len(list)
			}
			for _, v := range list[lo:hi] {
				fn(v)
			}
		}
	}
}

// ForEach visits every queued vertex single-threadedly (duplicates
// included), without consuming cursors. Used by tests and by dense→sparse
// frontier conversions.
func (s *Set) ForEach(fn func(v uint32)) {
	for _, l := range s.lists {
		for _, v := range l {
			fn(v)
		}
	}
}

// Reset clears the Set for reuse: unmarks exactly the queued vertices
// (cost proportional to the frontier, not the graph), truncates the lists,
// and rewinds the steal cursors.
func (s *Set) Reset() {
	for t, l := range s.lists {
		for _, v := range l {
			atomicx.StoreUint32(&s.marked[v], 0)
		}
		s.lists[t] = l[:0]
		atomicx.StoreInt64(&s.cursors[t].c, 0)
	}
}

// ResetFull restores the Set to its freshly constructed state: every mark
// cleared (a full memclr of the mark array, NOT just the queued vertices),
// lists truncated, cursors rewound. Reset is the cheap per-iteration path;
// ResetFull is for recycling a Set whose mark/list relationship is unknown —
// e.g. an arena handing a previous run's frontier to a new run, where a
// stale detailed frontier from a bygone push phase may hold marks its
// (already truncated) lists no longer account for.
func (s *Set) ResetFull() {
	clear(s.marked)
	for t := range s.lists {
		s.lists[t] = s.lists[t][:0]
		s.cursors[t].c = 0
	}
}

// Cap returns the vertex-id capacity the Set was constructed for.
func (s *Set) Cap() int { return len(s.marked) }

// Threads returns the number of per-thread lists.
func (s *Set) Threads() int { return s.threads }
