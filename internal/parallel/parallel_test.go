package parallel

import (
	"sync/atomic"
	"testing"
)

func TestPoolRunsAllWorkers(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	if p.Threads() != 4 {
		t.Fatalf("Threads = %d, want 4", p.Threads())
	}
	seen := make([]int32, 4)
	p.Run(func(tid int) { atomic.AddInt32(&seen[tid], 1) })
	for tid, c := range seen {
		if c != 1 {
			t.Fatalf("worker %d ran %d times, want 1", tid, c)
		}
	}
}

func TestPoolReuse(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	var total int64
	for i := 0; i < 100; i++ {
		p.Run(func(tid int) { atomic.AddInt64(&total, 1) })
	}
	if total != 300 {
		t.Fatalf("total = %d, want 300", total)
	}
}

func TestForCoversRangeExactlyOnce(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	for _, n := range []int{0, 1, 7, 100, 4096, 10001} {
		touched := make([]int32, n)
		For(p, n, 13, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&touched[i], 1)
			}
		})
		for i, c := range touched {
			if c != 1 {
				t.Fatalf("n=%d: index %d touched %d times", n, i, c)
			}
		}
	}
}

func TestIotaFillAndCopy(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	for _, n := range []int{0, 1, 777, 1 << 16} {
		dst := make([]uint32, n)
		Iota(p, dst, 5)
		for i, v := range dst {
			if v != uint32(i+5) {
				t.Fatalf("n=%d: Iota dst[%d] = %d, want %d", n, i, v, i+5)
			}
		}
		src := make([]uint32, n)
		Fill(p, src, 0xfffffffe)
		for i, v := range src {
			if v != 0xfffffffe {
				t.Fatalf("n=%d: Fill src[%d] = %#x", n, i, v)
			}
		}
		Copy(p, dst, src)
		for i := range dst {
			if dst[i] != src[i] {
				t.Fatalf("n=%d: Copy mismatch at %d", n, i)
			}
		}
	}
}

func TestSumInt64(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	got := SumInt64(p, 10000, 0, func(lo, hi int) int64 {
		var s int64
		for i := lo; i < hi; i++ {
			s += int64(i)
		}
		return s
	})
	if got != 49995000 {
		t.Fatalf("SumInt64 = %d", got)
	}
}

func TestPartitionEdgesBalanced(t *testing.T) {
	// CSR index of a graph where vertex v has degree v (triangle numbers).
	n := 100
	index := make([]int64, n+1)
	for v := 1; v <= n; v++ {
		index[v] = index[v-1] + int64(v-1)
	}
	parts := PartitionEdges(index, 8)
	if len(parts) != 8 {
		t.Fatalf("got %d partitions", len(parts))
	}
	// Coverage: contiguous, complete.
	if parts[0].Lo != 0 || parts[len(parts)-1].Hi != uint32(n) {
		t.Fatalf("partitions do not span [0,%d): %v", n, parts)
	}
	for i := 1; i < len(parts); i++ {
		if parts[i].Lo != parts[i-1].Hi {
			t.Fatalf("gap between partitions %d and %d", i-1, i)
		}
	}
	// Balance: no partition holds more than 2× the ideal edge share (the
	// heaviest single vertex here has < 1/8 of edges so this must hold).
	total := index[n]
	for _, p := range parts {
		edges := index[p.Hi] - index[p.Lo]
		if edges > total/4 {
			t.Fatalf("partition %v has %d of %d edges", p, edges, total)
		}
	}
}

func TestPartitionEdgesEmptyAndHub(t *testing.T) {
	// Empty graph.
	parts := PartitionEdges([]int64{0}, 4)
	if len(parts) != 4 {
		t.Fatalf("empty: got %d partitions", len(parts))
	}
	// One hub vertex with all edges: partitions may be empty but must cover.
	index := []int64{0, 1000, 1000, 1000, 1000}
	parts = PartitionEdges(index, 4)
	if parts[len(parts)-1].Hi != 4 || parts[0].Lo != 0 {
		t.Fatalf("hub: bad coverage %v", parts)
	}
}

func TestPartitionVertices(t *testing.T) {
	parts := PartitionVertices(10, 3)
	total := 0
	for _, p := range parts {
		total += p.Len()
	}
	if total != 10 {
		t.Fatalf("vertex partitions cover %d, want 10", total)
	}
}

func TestStealerProcessesEachPartitionOnce(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	index := make([]int64, 1001)
	for v := 1; v <= 1000; v++ {
		index[v] = index[v-1] + 3
	}
	parts := PartitionEdges(index, PartitionsPerThread*p.Threads())
	s := NewStealer(parts, p.Threads())
	counts := make([]int32, 1000)
	for round := 0; round < 3; round++ { // Reset-and-reuse across rounds
		s.Run(p, func(_ int, r Range) {
			for v := r.Lo; v < r.Hi; v++ {
				atomic.AddInt32(&counts[v], 1)
			}
		})
	}
	for v, c := range counts {
		if c != 3 {
			t.Fatalf("vertex %d processed %d times, want 3", v, c)
		}
	}
}

func TestDefaultPool(t *testing.T) {
	p1 := Default()
	p2 := Default()
	if p1 != p2 {
		t.Fatal("Default() not cached")
	}
	var ran int32
	p1.Run(func(int) { atomic.AddInt32(&ran, 1) })
	if ran == 0 {
		t.Fatal("default pool did not run")
	}
}
