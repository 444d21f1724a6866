package counters

import (
	"sync"
	"testing"
	"time"
)

func TestNilCountersAreNoOps(t *testing.T) {
	var c *Counters
	c.Add(0, EdgesProcessed, 10) // must not panic
	if c.Total(EdgesProcessed) != 0 {
		t.Fatal("nil counters returned nonzero total")
	}
	if c.Enabled() {
		t.Fatal("nil counters claim enabled")
	}
	if c.Threads() != 0 {
		t.Fatal("nil counters claim threads")
	}
	c.Reset() // must not panic
	if len(c.Snapshot()) != 0 {
		t.Fatal("nil snapshot non-empty")
	}
}

func TestAddAndTotalsAcrossThreads(t *testing.T) {
	c := New(4)
	var wg sync.WaitGroup
	for tid := 0; tid < 4; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Add(tid, EdgesProcessed, 2)
				c.Add(tid, LabelLoads, 1)
			}
		}(tid)
	}
	wg.Wait()
	if got := c.Total(EdgesProcessed); got != 8000 {
		t.Fatalf("EdgesProcessed = %d, want 8000", got)
	}
	if got := c.Total(LabelLoads); got != 4000 {
		t.Fatalf("LabelLoads = %d, want 4000", got)
	}
	snap := c.Snapshot()
	if snap[EdgesProcessed] != 8000 || snap[CASOps] != 0 {
		t.Fatalf("snapshot wrong: %v", snap)
	}
	c.Reset()
	if c.Total(EdgesProcessed) != 0 {
		t.Fatal("Reset did not zero")
	}
}

func TestEventNames(t *testing.T) {
	want := map[Event]string{
		EdgesProcessed: "edges",
		VertexVisits:   "vertex-visits",
		LabelLoads:     "label-loads",
		LabelStores:    "label-stores",
		CASOps:         "cas-ops",
		BranchChecks:   "branch-checks",
		CacheLines:     "cache-lines",
	}
	for e, name := range want {
		if e.String() != name {
			t.Fatalf("Event(%d).String() = %q, want %q", e, e.String(), name)
		}
	}
	if len(Events()) != len(want) {
		t.Fatalf("Events() has %d entries, want %d", len(Events()), len(want))
	}
	if Event(99).String() != "unknown" {
		t.Fatal("out-of-range event name")
	}
}

func TestTraceRecordsAndCallbacks(t *testing.T) {
	var nilTrace *Trace
	nilTrace.Record(IterRecord{}, nil) // no panic
	if nilTrace.Enabled() {
		t.Fatal("nil trace misbehaves")
	}

	tr := &Trace{}
	var cbCount int
	tr.OnIteration = func(rec IterRecord, labels []uint32) {
		cbCount++
		if len(labels) != 3 {
			t.Fatalf("callback labels len %d", len(labels))
		}
	}
	labels := []uint32{1, 2, 3}
	tr.Record(IterRecord{Index: 0, Kind: KindPull, Edges: 10, Duration: time.Millisecond}, labels)
	tr.Record(IterRecord{Index: 1, Kind: KindPush, Edges: 5, Duration: 2 * time.Millisecond}, labels)
	if cbCount != 2 || len(tr.Iters) != 2 {
		t.Fatalf("records=%d callbacks=%d", len(tr.Iters), cbCount)
	}
}

func TestLineTracker(t *testing.T) {
	var nilLt *LineTracker
	nilLt.Touch(0)               // no panic
	nilLt.FlushIteration(nil, 0) // no panic

	lt := NewLineTracker(1000)
	c := New(1)
	// Vertices 0..15 share cache line 0; 16 is line 1.
	for v := uint32(0); v < 16; v++ {
		lt.Touch(v)
	}
	lt.Touch(16)
	lt.FlushIteration(c, 0)
	if got := c.Total(CacheLines); got != 2 {
		t.Fatalf("CacheLines = %d, want 2", got)
	}
	// Flushing resets: the same touches count again next iteration.
	lt.Touch(0)
	lt.FlushIteration(c, 0)
	if got := c.Total(CacheLines); got != 3 {
		t.Fatalf("CacheLines after second iteration = %d, want 3", got)
	}
}

func TestLineTrackerConcurrent(t *testing.T) {
	lt := NewLineTracker(1 << 16)
	c := New(1)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := uint32(0); v < 1<<16; v++ {
				lt.Touch(v)
			}
		}()
	}
	wg.Wait()
	lt.FlushIteration(c, 0)
	want := int64(1 << 16 / 16)
	if got := c.Total(CacheLines); got != want {
		t.Fatalf("CacheLines = %d, want %d", got, want)
	}
}
