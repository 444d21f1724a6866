// Package worklist implements the sparse frontier data structure of the
// Thrifty paper (§IV-E): per-thread local worklists that collect active
// vertices during push iterations, a shared mark array that best-effort
// deduplicates insertions, and chunked work stealing for consumption. A
// Queue is the lists and steal cursors alone; a Set adds the mark array.
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

// Queue is a list of vertices to drain: one local list per thread and a
// steal cursor for each. It has no mark array, so it suits a frontier whose
// vertices are already distinct, such as the set bits of a bitmap.
type Queue struct {
	lists   [][]uint32 // one local worklist per thread
	cursors []cursorPad
}

//thrifty:padded
type cursorPad struct {
	c int64
	_ [7]int64 // pad to a cache line so steal cursors do not false-share
}

// NewQueue creates an empty Queue for the given thread count.
func NewQueue(threads int) *Queue {
	threads = max(threads, 1)
	return &Queue{lists: make([][]uint32, threads), cursors: make([]cursorPad, threads)}
}

// Set is a frontier of active vertices: a Queue whose insertions a shared
// mark array deduplicates. A Set is written during one iteration (via Add)
// and consumed during the next (via Drain); Reset prepares it for reuse.
type Set struct {
	Queue
	marked []uint32 // shared mark array; atomic load/store, no CAS
}

// New creates a Set for vertex ids [0, n) and the given thread count.
func New(n, threads int) *Set {
	return &Set{Queue: *NewQueue(threads), marked: make([]uint32, n)}
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
// It costs a single atomic load (plus the store on the absent path). As with
// Add, the check-then-mark is intentionally not atomic as a unit: two racing
// callers may both observe "absent", both insert, and both return true — the
// benign duplicate the package comment describes.
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
// in ascending order: it loads a dense frontier for draining.
func (q *Queue) AppendRange(tid int, bm *bitmap.Bitmap, lo, hi int) {
	q.lists[tid] = bm.AppendRange(q.lists[tid], lo, hi)
}

// Len returns the total number of queued vertices across all lists,
// counting duplicates. Single-threaded; call between iterations.
func (q *Queue) Len() int {
	n := 0
	for _, l := range q.lists {
		n += len(l)
	}
	return n
}

// Drain consumes the Queue on behalf of thread tid: first chunks of tid's
// own list, then chunks stolen from the other threads' lists in ring order.
// Drain is called concurrently by all threads; each queued vertex is
// delivered to exactly one caller (though the same vertex id may have been
// queued twice by racing Adds).
//
//thrifty:hotpath
func (q *Queue) Drain(tid int, fn func(v uint32)) {
	threads := len(q.lists)
	for d := 0; d < threads; d++ {
		li := (tid + d) % threads
		list := q.lists[li]
		cur := &q.cursors[li].c
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

// Reset empties the Queue for reuse: truncates the lists and rewinds the
// steal cursors.
func (q *Queue) Reset() {
	for t, l := range q.lists {
		q.lists[t] = l[:0]
		atomicx.StoreInt64(&q.cursors[t].c, 0)
	}
}

// Reset clears the Set for reuse: unmarks exactly the queued vertices
// (cost proportional to the frontier, not the graph), then empties the
// Queue.
func (s *Set) Reset() {
	for _, l := range s.lists {
		for _, v := range l {
			atomicx.StoreUint32(&s.marked[v], 0)
		}
	}
	s.Queue.Reset()
}
