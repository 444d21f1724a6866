package parallel

import (
	"sync/atomic"
	"testing"
)

func BenchmarkPoolRunOverhead(b *testing.B) {
	p := NewPool(0)
	defer p.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Run(func(int) {})
	}
}

func BenchmarkForSum(b *testing.B) {
	p := NewPool(0)
	defer p.Close()
	const n = 1 << 20
	data := make([]int64, n)
	for i := range data {
		data[i] = int64(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var total int64
		For(p, n, 0, func(_, lo, hi int) {
			var s int64
			for j := lo; j < hi; j++ {
				s += data[j]
			}
			atomic.AddInt64(&total, s)
		})
	}
}

func BenchmarkStealerSweep(b *testing.B) {
	p := NewPool(0)
	defer p.Close()
	const n = 1 << 18
	index := make([]int64, n+1)
	for v := 1; v <= n; v++ {
		index[v] = index[v-1] + int64(v%37) // lumpy degrees
	}
	parts := PartitionEdges(index, PartitionsPerThread*p.Threads())
	s := NewStealer(parts, p.Threads())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var total int64
		s.Run(p, func(_ int, r Range) {
			atomic.AddInt64(&total, int64(r.Len()))
		})
		if total != n {
			b.Fatalf("covered %d", total)
		}
	}
}

func BenchmarkPartitionEdges(b *testing.B) {
	const n = 1 << 20
	index := make([]int64, n+1)
	for v := 1; v <= n; v++ {
		index[v] = index[v-1] + int64(v%61)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(PartitionEdges(index, 256)) != 256 {
			b.Fatal("partition count")
		}
	}
}
