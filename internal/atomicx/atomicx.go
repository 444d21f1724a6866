// Package atomicx provides small lock-free helpers used by the concurrent
// connected-components algorithms, most importantly the atomic-min operation
// that Label Propagation uses to merge labels (Algorithm 1, line 10 of the
// Thrifty paper) and the write-min operation union-find algorithms use for
// hooking.
//
// All helpers operate on plain integer slices through unsafe-free
// sync/atomic pointer casts: the caller guarantees the element is only
// accessed through this package (or is otherwise data-race free).
package atomicx

import "sync/atomic"

// MinUint32 atomically sets *addr to min(*addr, val) and reports whether the
// stored value was lowered. It implements the paper's atomic_min(): a
// compare-and-swap loop that retries while the current value is larger than
// val and another writer intervenes.
func MinUint32(addr *uint32, val uint32) bool {
	for {
		cur := atomic.LoadUint32(addr)
		if cur <= val {
			return false
		}
		if atomic.CompareAndSwapUint32(addr, cur, val) {
			return true
		}
	}
}

// MaxUint32 atomically sets *addr to max(*addr, val) and reports whether the
// stored value was raised.
func MaxUint32(addr *uint32, val uint32) bool {
	for {
		cur := atomic.LoadUint32(addr)
		if cur >= val {
			return false
		}
		if atomic.CompareAndSwapUint32(addr, cur, val) {
			return true
		}
	}
}

// MaxInt64 atomically sets *addr to max(*addr, val) and reports whether the
// stored value was raised.
func MaxInt64(addr *int64, val int64) bool {
	for {
		cur := atomic.LoadInt64(addr)
		if cur >= val {
			return false
		}
		if atomic.CompareAndSwapInt64(addr, cur, val) {
			return true
		}
	}
}

// LoadUint32 is a convenience re-export so callers of this package do not
// need to also import sync/atomic for the common load/store pair.
func LoadUint32(addr *uint32) uint32 { return atomic.LoadUint32(addr) }

// StoreUint32 is the matching atomic store re-export.
func StoreUint32(addr *uint32, val uint32) { atomic.StoreUint32(addr, val) }

// AddInt64 atomically adds delta to *addr and returns the new value.
func AddInt64(addr *int64, delta int64) int64 { return atomic.AddInt64(addr, delta) }

// AddUint32 atomically adds delta to *addr and returns the new value (the
// streamed shard builder's degree counters and row cursors).
func AddUint32(addr *uint32, delta uint32) uint32 { return atomic.AddUint32(addr, delta) }

// CASUint32 is a thin re-export of CompareAndSwapUint32, used by the
// union-find hooking loops where the retry policy differs from MinUint32.
func CASUint32(addr *uint32, old, new uint32) bool {
	return atomic.CompareAndSwapUint32(addr, old, new)
}

// The remaining declarations re-export the sync/atomic surface the rest of
// the repository needs, so that every atomic access outside this package
// routes through atomicx. The benignrace analyzer (internal/lint/benignrace)
// enforces the routing: a direct sync/atomic import anywhere else in the
// module is a lint error. Funneling atomics through one package keeps the
// intentionally non-atomic regions (//thrifty:benign-race) the only accesses
// that bypass it, so "uses atomicx" vs "annotated benign race" partitions
// every shared-memory access in the codebase.

// LoadInt64 and StoreInt64 are sync/atomic re-exports for int64 counters.
func LoadInt64(addr *int64) int64       { return atomic.LoadInt64(addr) }
func StoreInt64(addr *int64, val int64) { atomic.StoreInt64(addr, val) }

// LoadUint64 and StoreUint64 are sync/atomic re-exports for uint64 words
// (bitmap words, cache-line sets).
func LoadUint64(addr *uint64) uint64       { return atomic.LoadUint64(addr) }
func StoreUint64(addr *uint64, val uint64) { atomic.StoreUint64(addr, val) }

// LoadInt32 and StoreInt32 are sync/atomic re-exports for int32 claim flags.
func LoadInt32(addr *int32) int32       { return atomic.LoadInt32(addr) }
func StoreInt32(addr *int32, val int32) { atomic.StoreInt32(addr, val) }

// CASInt32, CASInt64 and CASUint64 re-export the CompareAndSwap family for
// the claim/scatter/line-tracking loops whose retry policies live at the
// call site.
func CASInt32(addr *int32, old, new int32) bool {
	return atomic.CompareAndSwapInt32(addr, old, new)
}

func CASInt64(addr *int64, old, new int64) bool {
	return atomic.CompareAndSwapInt64(addr, old, new)
}

func CASUint64(addr *uint64, old, new uint64) bool {
	return atomic.CompareAndSwapUint64(addr, old, new)
}

// Int32, Int64, Uint64 and Bool alias the sync/atomic struct types so
// value-style atomics also route through this package. Aliases (not
// definitions) keep method sets and zero-value semantics identical.
type (
	Int32  = atomic.Int32
	Int64  = atomic.Int64
	Uint64 = atomic.Uint64
	Bool   = atomic.Bool
)

// Pointer is a typed atomic pointer routed through this package. It wraps
// sync/atomic.Pointer rather than aliasing it because generic type aliases
// are not available at this module's language version; the method set is the
// same. The zero value holds nil.
type Pointer[T any] struct{ p atomic.Pointer[T] }

// Load returns the current pointer.
func (p *Pointer[T]) Load() *T { return p.p.Load() }

// Store sets the pointer to v.
func (p *Pointer[T]) Store(v *T) { p.p.Store(v) }

// Swap sets the pointer to v and returns the previous value.
func (p *Pointer[T]) Swap(v *T) *T { return p.p.Swap(v) }

// CompareAndSwap executes the compare-and-swap operation on the pointer.
func (p *Pointer[T]) CompareAndSwap(old, new *T) bool { return p.p.CompareAndSwap(old, new) }
