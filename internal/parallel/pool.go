// Package parallel is the shared-memory runtime underneath every algorithm
// in this repository. It reproduces the execution model of the Thrifty paper
// (§V-A): a master-worker pool of persistent threads, edge-balanced
// partitioning of the vertex set into 32×#threads partitions, and a
// work-stealing discipline where each thread processes its own partitions in
// ascending order and steals partitions from other threads in descending
// order.
//
// The paper's runtime is pthreads + futex; here the persistent workers are
// goroutines parked on a condition variable, which is the closest Go
// equivalent (goroutine park/unpark is futex-based on Linux).
//
// # Ownership and failure contract
//
// A Pool owns its worker goroutines. Callers that create a pool with NewPool
// should Close it when done; a pool that becomes unreachable without Close
// is shut down by a finalizer at the next garbage collection, so abandoned
// pools do not leak goroutines permanently — but relying on the finalizer
// delays reclamation by a GC cycle, so explicit Close remains the contract
// for anything long-lived. Closing is idempotent.
//
// A panic inside a job does not crash the process and does not wedge the
// pool: the worker recovers it, the remaining workers drain normally, and
// Run returns the first recovered panic as a *PanicError. The pool stays
// usable for subsequent Run calls. Run on a closed pool returns ErrClosed
// instead of deadlocking. The derived helpers (For, Iota, Fill, Copy,
// SumInt64, Stealer.Run) re-panic the *PanicError on the calling goroutine,
// since their signatures carry results rather than errors; the public cc
// API recovers it at its boundary and surfaces it as an error.
package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"thriftylp/internal/atomicx"
	"time"
)

// ErrClosed is returned by Run when the pool has been closed.
var ErrClosed = errors.New("parallel: pool is closed")

// PanicError wraps a panic recovered from a pool job, preserving the
// panicking value and the worker's stack trace at the point of the panic.
type PanicError struct {
	// Value is the value passed to panic().
	Value any
	// Stack is the panicking worker goroutine's stack trace.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: job panicked: %v\n%s", e.Value, e.Stack)
}

// Unwrap exposes a wrapped error value so errors.Is/As reach panics that
// carried an error.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// PoolStats aggregates worker activity over a pool's lifetime. For per-run
// numbers on a shared pool, snapshot before and after the run and Sub the
// two (cc.RunContext does exactly this).
type PoolStats struct {
	// JobsRun counts job invocations summed over all workers (one Run call
	// on an N-thread pool contributes N).
	JobsRun int64
	// Idle is the summed wall time workers spent parked waiting for the
	// next job — the load-imbalance + scheduling-gap signal. It is measured
	// at job boundaries only and excludes workers currently parked (their
	// in-flight wait is charged when they wake).
	Idle time.Duration
}

// Sub returns the component-wise difference s - prev, for per-run deltas.
func (s PoolStats) Sub(prev PoolStats) PoolStats {
	return PoolStats{JobsRun: s.JobsRun - prev.JobsRun, Idle: s.Idle - prev.Idle}
}

// workerSlot is one worker's stats block, padded to its own cache line.
//
//thrifty:padded
type workerSlot struct {
	jobs, idleNanos int64
	_               [6]int64
}

// poolState is the shared master/worker state. It is split from Pool so the
// worker goroutines hold only the inner state: a finalizer on the outer Pool
// handle can then run once the handle is unreachable (the workers would
// otherwise keep the handle alive forever and the finalizer would never
// fire), closing abandoned pools instead of leaking their goroutines.
type poolState struct {
	mu      sync.Mutex
	work    *sync.Cond // workers wait here for a new job generation
	done    *sync.Cond // master waits here for job completion
	threads int
	job     func(tid int)
	gen     uint64 // increments per submitted job
	active  int    // workers still running the current job
	closed  bool
	pnc     *PanicError // first panic recovered during the current job
	wstats  []workerSlot
}

// Pool is a master-worker pool of persistent goroutines. A Pool is created
// once and reused across all parallel regions of an algorithm run, so that
// iteration loops do not pay goroutine spawn costs per iteration — mirroring
// the paper's persistent pthread workers synchronized with futexes.
type Pool struct {
	s *poolState
}

// NewPool creates a pool with the given number of worker goroutines.
// threads <= 0 selects runtime.GOMAXPROCS(0). See the package comment for
// the ownership contract: Close the pool when done with it.
func NewPool(threads int) *Pool {
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	s := &poolState{threads: threads, wstats: make([]workerSlot, threads)}
	s.work = sync.NewCond(&s.mu)
	s.done = sync.NewCond(&s.mu)
	for t := 0; t < threads; t++ {
		go s.worker(t)
	}
	p := &Pool{s: s}
	runtime.SetFinalizer(p, (*Pool).Close)
	return p
}

// Threads returns the number of workers in the pool.
func (p *Pool) Threads() int { return p.s.threads }

// recoverPanic converts a recovered value into a *PanicError with the
// current goroutine's stack.
func recoverPanic(r any) *PanicError {
	buf := make([]byte, 16<<10)
	return &PanicError{Value: r, Stack: buf[:runtime.Stack(buf, false)]}
}

// runJob invokes job(tid), converting a panic into a *PanicError instead of
// letting it kill the goroutine (an unrecovered panic in any goroutine
// terminates the whole process).
func runJob(job func(tid int), tid int) (pe *PanicError) {
	defer func() {
		if r := recover(); r != nil {
			pe = recoverPanic(r)
		}
	}()
	job(tid)
	return nil
}

func (s *poolState) worker(tid int) {
	var seen uint64
	for {
		s.mu.Lock()
		// Idle accounting happens at the job boundary only: one timestamp
		// before parking and one after waking, never inside a job.
		var idleStart time.Time
		for s.gen == seen && !s.closed {
			if idleStart.IsZero() {
				idleStart = time.Now()
			}
			s.work.Wait()
		}
		if s.closed {
			s.mu.Unlock()
			return
		}
		seen = s.gen
		job := s.job
		s.mu.Unlock()
		ws := &s.wstats[tid]
		if !idleStart.IsZero() {
			atomicx.AddInt64(&ws.idleNanos, int64(time.Since(idleStart)))
		}
		atomicx.AddInt64(&ws.jobs, 1)

		pe := runJob(job, tid)

		s.mu.Lock()
		if pe != nil && s.pnc == nil {
			s.pnc = pe
		}
		s.active--
		if s.active == 0 {
			s.done.Broadcast()
		}
		s.mu.Unlock()
	}
}

// Run executes job(tid) on every worker concurrently and returns when all
// workers have finished. Run must not be called concurrently with itself or
// Close; algorithms call it from a single master goroutine.
//
// If any worker's job panics, the panic is recovered, the remaining workers
// finish their invocations normally, and Run returns the first panic as a
// *PanicError; the pool remains usable. Run on a closed pool returns
// ErrClosed.
//
// A single-thread pool runs the job inline on the calling goroutine: the
// semantics (one invocation with tid 0, Run returns when it finishes) are
// identical, and iteration loops skip two goroutine handoffs per region —
// a fixed cost that dominates sparse-frontier iterations.
func (p *Pool) Run(job func(tid int)) error {
	s := p.s
	if s.threads == 1 {
		s.mu.Lock()
		closed := s.closed
		s.mu.Unlock()
		if closed {
			return ErrClosed
		}
		atomicx.AddInt64(&s.wstats[0].jobs, 1)
		if pe := runJob(job, 0); pe != nil {
			return pe
		}
		return nil
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.job = job
	s.gen++
	s.active = s.threads
	s.pnc = nil
	gen := s.gen
	s.work.Broadcast()
	for s.active > 0 && s.gen == gen {
		s.done.Wait()
	}
	pe := s.pnc
	s.pnc = nil
	s.mu.Unlock()
	if pe != nil {
		return pe
	}
	return nil
}

// MustRun is Run for callers whose control flow cannot carry an error: a
// recovered job panic is re-panicked on the calling goroutine as the
// *PanicError (preserving the worker's stack in the message), to be caught
// at an API boundary such as cc.RunContext. Run-after-Close also panics.
func (p *Pool) MustRun(job func(tid int)) {
	if err := p.Run(job); err != nil {
		panic(err)
	}
}

// Stats returns the pool's accumulated worker counters. It reads atomically
// and may be called at any time, including while a job is in flight; counts
// update at job boundaries only.
func (p *Pool) Stats() PoolStats {
	var st PoolStats
	var idle int64
	for i := range p.s.wstats {
		st.JobsRun += atomicx.LoadInt64(&p.s.wstats[i].jobs)
		idle += atomicx.LoadInt64(&p.s.wstats[i].idleNanos)
	}
	st.Idle = time.Duration(idle)
	return st
}

// Close shuts the worker goroutines down. The pool must be idle (no Run in
// flight). Close is idempotent and remains safe after a job panic; a closed
// pool rejects further Run calls with ErrClosed.
func (p *Pool) Close() {
	runtime.SetFinalizer(p, nil)
	s := p.s
	s.mu.Lock()
	s.closed = true
	s.work.Broadcast()
	s.mu.Unlock()
}

var (
	defaultPoolMu sync.Mutex
	defaultPool   *Pool
)

// Default returns a process-wide pool sized to GOMAXPROCS, creating it on
// first use. Algorithms that are not handed an explicit pool use this one.
func Default() *Pool {
	defaultPoolMu.Lock()
	defer defaultPoolMu.Unlock()
	if defaultPool == nil || defaultPool.Threads() != runtime.GOMAXPROCS(0) {
		if defaultPool != nil {
			defaultPool.Close()
		}
		defaultPool = NewPool(0)
	}
	return defaultPool
}
