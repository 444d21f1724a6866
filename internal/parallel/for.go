package parallel

import "thriftylp/internal/atomicx"

// For runs fn over [0, n) on the pool, handing each worker dynamically
// claimed chunks of the given grain size. fn receives half-open [lo, hi)
// chunks. grain <= 0 selects a grain that yields ~4 chunks per worker.
//
// A panic in fn surfaces as a *PanicError panic on the calling goroutine
// (see the package comment's failure contract).
func For(pool *Pool, n, grain int, fn func(tid, lo, hi int)) {
	if n <= 0 {
		return
	}
	threads := pool.Threads()
	if grain <= 0 {
		grain = n / (threads * 4)
		if grain < 1 {
			grain = 1
		}
	}
	if threads == 1 || n <= grain {
		fn(0, 0, n)
		return
	}
	var next int64
	pool.MustRun(func(tid int) {
		for {
			lo := int(atomicx.AddInt64(&next, int64(grain))) - grain
			if lo >= n {
				return
			}
			hi := lo + grain
			if hi > n {
				hi = n
			}
			fn(tid, lo, hi)
		}
	})
}

// SumInt64 computes the sum of fn(lo, hi) partial results over [0, n) in
// parallel. fn must return the partial value for its chunk.
func SumInt64(pool *Pool, n, grain int, fn func(lo, hi int) int64) int64 {
	var total int64
	For(pool, n, grain, func(_, lo, hi int) {
		atomicx.AddInt64(&total, fn(lo, hi))
	})
	return total
}

// Iota sets dst[i] = first + i for every i, in parallel chunks: the
// initial label assignment of the LP and union-find kernels.
func Iota(pool *Pool, dst []uint32, first uint32) {
	For(pool, len(dst), 0, func(_, lo, hi int) {
		chunk := dst[lo:hi]
		next := first + uint32(lo)
		for i := range chunk {
			chunk[i] = next //thrifty:benign-race workers write disjoint [lo,hi) ranges of dst
			next++
		}
	})
}

// Fill sets every element of dst to x, in parallel chunks.
func Fill(pool *Pool, dst []uint32, x uint32) {
	For(pool, len(dst), 0, func(_, lo, hi int) {
		chunk := dst[lo:hi]
		for i := range chunk {
			chunk[i] = x //thrifty:benign-race workers write disjoint [lo,hi) ranges of dst
		}
	})
}

// Copy copies src into dst in parallel; the slices must have equal length.
// This is the labels-array synchronization step of DO-LP (Algorithm 1,
// lines 21-22), which Thrifty's Unified Labels Array removes.
func Copy(pool *Pool, dst, src []uint32) {
	if len(dst) != len(src) {
		panic("parallel: Copy length mismatch")
	}
	For(pool, len(dst), 0, func(_, lo, hi int) {
		copy(dst[lo:hi], src[lo:hi])
	})
}
