package worklist

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"thriftylp/internal/bitmap"
)

// marked reports whether v's entry in the shared mark array is set.
func marked(s *Set, v uint32) bool { return s.marked[v] != 0 }

func TestAddAndLen(t *testing.T) {
	s := New(100, 2)
	s.Add(0, 5)
	s.Add(1, 6)
	s.Add(0, 5) // duplicate, same thread: mark array suppresses it
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if !marked(s, 5) || !marked(s, 6) || marked(s, 7) {
		t.Fatal("mark array wrong")
	}
}

func TestDrainDeliversEverythingOnce(t *testing.T) {
	const n = 10000
	const threads = 4
	s := New(n, threads)
	for v := 0; v < n; v++ {
		s.Add(v%threads, uint32(v))
	}
	counts := make([]int32, n)
	var wg sync.WaitGroup
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			s.Drain(tid, func(v uint32) { atomic.AddInt32(&counts[v], 1) })
		}(tid)
	}
	wg.Wait()
	for v, c := range counts {
		if c != 1 {
			t.Fatalf("vertex %d delivered %d times, want exactly 1", v, c)
		}
	}
}

// TestDrainStealsAcrossThreads puts all work on thread 0's list and checks
// that other threads' Drain calls still retrieve it.
func TestDrainStealsAcrossThreads(t *testing.T) {
	const n = 1000
	s := New(n, 4)
	for v := 0; v < n; v++ {
		s.Add(0, uint32(v))
	}
	var got int64
	var wg sync.WaitGroup
	for tid := 1; tid < 4; tid++ { // note: owner thread 0 never drains
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			s.Drain(tid, func(uint32) { atomic.AddInt64(&got, 1) })
		}(tid)
	}
	wg.Wait()
	if got != n {
		t.Fatalf("stealers retrieved %d of %d items", got, n)
	}
}

func TestResetAllowsReuse(t *testing.T) {
	s := New(50, 2)
	for round := 0; round < 5; round++ {
		s.Add(0, 10)
		s.Add(1, 20)
		if s.Len() != 2 {
			t.Fatalf("round %d: Len = %d", round, s.Len())
		}
		var seen []uint32
		s.Drain(0, func(v uint32) { seen = append(seen, v) })
		sort.Slice(seen, func(i, j int) bool { return seen[i] < seen[j] })
		if len(seen) != 2 || seen[0] != 10 || seen[1] != 20 {
			t.Fatalf("round %d: drained %v", round, seen)
		}
		s.Reset()
		if s.Len() != 0 || marked(s, 10) {
			t.Fatalf("round %d: Reset incomplete", round)
		}
	}
}

func TestAddIfAbsent(t *testing.T) {
	s := New(100, 2)
	if !s.AddIfAbsent(0, 5) {
		t.Fatal("first AddIfAbsent(5) should report insertion")
	}
	if s.AddIfAbsent(1, 5) {
		t.Fatal("second AddIfAbsent(5) should report already-present")
	}
	if !marked(s, 5) || s.Len() != 1 {
		t.Fatalf("after AddIfAbsent: marked(5)=%v Len=%d", marked(s, 5), s.Len())
	}
	// Must also see vertices queued by the other insertion paths.
	s.Add(0, 7)
	if s.AddIfAbsent(1, 7) {
		t.Fatal("AddIfAbsent must report vertices inserted via Add as present")
	}
	s.AddUnchecked(0, 9)
	if s.AddIfAbsent(1, 9) {
		t.Fatal("AddIfAbsent must report vertices inserted via AddUnchecked as present")
	}
	s.Reset()
	if !s.AddIfAbsent(0, 5) {
		t.Fatal("Reset should clear marks so AddIfAbsent inserts again")
	}
}

func TestAddUnchecked(t *testing.T) {
	s := New(10, 1)
	s.AddUnchecked(0, 3)
	if !marked(s, 3) || s.Len() != 1 {
		t.Fatal("AddUnchecked did not mark/queue")
	}
	// A checked Add afterwards must be suppressed.
	s.Add(0, 3)
	if s.Len() != 1 {
		t.Fatal("duplicate after AddUnchecked not suppressed")
	}
}

// TestConcurrentAddDuplicatesAreBounded verifies the benign-race contract:
// concurrent Adds of the same vertex may duplicate, but every queued vertex
// is marked, and the queue never exceeds threads copies of one vertex.
func TestConcurrentAddDuplicatesAreBounded(t *testing.T) {
	const threads = 8
	s := New(16, threads)
	var wg sync.WaitGroup
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				s.Add(tid, uint32(i%16))
			}
		}(tid)
	}
	wg.Wait()
	if s.Len() > 16*threads {
		t.Fatalf("queue holds %d entries for 16 vertices × %d threads", s.Len(), threads)
	}
	for v := uint32(0); v < 16; v++ {
		if !marked(s, v) {
			t.Fatalf("vertex %d lost", v)
		}
	}
	// A single-threaded Drain must deliver at least each distinct vertex.
	seen := map[uint32]bool{}
	s.Drain(0, func(v uint32) { seen[v] = true })
	if len(seen) != 16 {
		t.Fatalf("Drain delivered %d distinct vertices, want 16", len(seen))
	}
}

// TestQueueAppendRangeDrainReset loads a bitmap's set bits into a Queue
// built with zero threads (clamped to one list), drains them in ascending
// order, and checks that Reset empties the Queue for the next load.
func TestQueueAppendRangeDrainReset(t *testing.T) {
	bm := bitmap.New(200)
	for _, v := range []int{3, 64, 130, 199} {
		bm.Set(v)
	}
	q := NewQueue(0)
	for round := 0; round < 2; round++ {
		q.AppendRange(0, bm, 0, 100)
		q.AppendRange(0, bm, 100, 200)
		var got []uint32
		q.Drain(0, func(v uint32) { got = append(got, v) })
		if !slices.Equal(got, []uint32{3, 64, 130, 199}) {
			t.Fatalf("round %d: drained %v", round, got)
		}
		q.Reset()
		if q.Len() != 0 {
			t.Fatalf("round %d: Reset left %d queued", round, q.Len())
		}
	}
}
