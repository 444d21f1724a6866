package core

import (
	"unsafe"

	"thriftylp/internal/counters"
)

// This file defines the compile-time instrumentation policy every kernel is
// generic over: the one push sweep and one pull sweep in labelprop.go that
// Thrifty, DO-LP, DO-LP+Unified, LP and BFS hop distance share, SV, FastSV,
// JT, BFS-CC, and the union-find engine behind Afforest and both ConnectIt
// kernels. Each is written once, parameterized by a policy type; the run's
// Config selects the policy once, so hot loops never branch on "is
// instrumentation on?" per edge. There are exactly two policies:
//
//   - noInstr is the fast path: every hook is an empty method on a
//     zero-size value. Go monomorphizes generic functions per concrete
//     value shape, so the noInstr instantiation compiles to the bare
//     traversal loop with zero instrumentation residue — no counter
//     accumulation, no line tracking, no nil checks.
//   - counting is the instrumented path: hooks accumulate into a
//     per-worker chunkCounts block (registers/stack, flushed once per
//     chunk) and feed the LineTracker, exactly as the pre-policy kernels
//     did, so counter totals are bit-identical to historical runs. When
//     the run carries a FaultPlan (chaos.go), every hook also ticks it.
//
// The self-referential constraint (instr[I any] with Fresh() I) lets Fresh
// return the policy's own concrete type without boxing: each worker calls
// Fresh once to get a private instance with its own counter block, keeping
// the hot loop free of cross-thread sharing.
type instr[I any] interface {
	// Fresh returns a per-worker/per-chunk instance owning a private
	// counter block. Hooks must only be invoked on instances returned by
	// Fresh.
	Fresh() I
	// Visit, Edge, Load, Store, CAS and Branch record one occurrence of
	// the corresponding counters.Event.
	Visit()
	Edge()
	Load()
	Store()
	CAS()
	Branch()
	// Touch records an access to v's labels-array cache line.
	Touch(v uint32)
	// Flush folds the accumulated counts into the shared sink under tid.
	Flush(tid int)
}

// Cancellation is deliberately NOT part of the policy interface. A policy
// carrying a *Stop would be non-zero-size, and a non-zero policy loses the
// dead-code folding below: every per-edge hook becomes a live
// dictionary-dispatched call, which measures 3-6x slower than the bare loop.
// Since the CLIs always arm a signal context, that would tax every real run.
// Instead the kernels receive the stop flag as an explicit parameter and poll
// it at partition boundaries only (sweep-chunk entry, frontier-vertex
// granularity in pushes) — a nil-safe flag read whose cost is one predictable
// branch per partition, independent of the policy instantiation.

// noInstr is the zero-cost policy selected when counters, line tracking and
// tracing are all disabled. All hooks compile to nothing.
type noInstr struct{}

func (noInstr) Fresh() noInstr { return noInstr{} }
func (noInstr) Visit()         {}
func (noInstr) Edge()          {}
func (noInstr) Load()          {}
func (noInstr) Store()         {}
func (noInstr) CAS()           {}
func (noInstr) Branch()        {}
func (noInstr) Touch(uint32)   {}
func (noInstr) Flush(int)      {}

// counting is the instrumented policy: per-chunk local accumulation into
// chunkCounts (mutated through the pointer field so the policy itself can
// stay a value type and monomorphize), flushed to the shared Counters once
// per chunk, plus cache-line tracking. Each hook also ticks plan, which is
// nil unless the run injects faults; the nil test costs nothing next to the
// counting itself.
type counting struct {
	ck    *chunkCounts
	ctr   *counters.Counters
	lines *counters.LineTracker
	plan  *FaultPlan
}

// newCounting returns the instrumented-policy prototype for one run. The
// prototype has no counter block; workers obtain usable instances via Fresh.
func newCounting(cfg Config) counting {
	return counting{ctr: cfg.Ctr, lines: cfg.Lines, plan: cfg.Faults}
}

func (c counting) Fresh() counting {
	return counting{ck: new(chunkCounts), ctr: c.ctr, lines: c.lines, plan: c.plan}
}
func (c counting) Visit()         { c.ck.visits++; c.plan.tick() }
func (c counting) Edge()          { c.ck.edges++; c.plan.tick() }
func (c counting) Load()          { c.ck.loads++; c.plan.tick() }
func (c counting) Store()         { c.ck.stores++; c.plan.tick() }
func (c counting) CAS()           { c.ck.cas++; c.plan.tick() }
func (c counting) Branch()        { c.ck.branches++; c.plan.tick() }
func (c counting) Touch(v uint32) { c.lines.Touch(v); c.plan.tick() }
func (c counting) Flush(tid int)  { c.ck.flush(c.ctr, tid) }

// fastInstr reports whether the run can take the fully uninstrumented fast
// path: no event counters, no cache-line tracking, no per-iteration trace
// (trace records derive their edge totals from the counters) and no fault
// plan.
func (c Config) fastInstr() bool {
	return c.Ctr == nil && c.Lines == nil && !c.Trace.Enabled() && c.Faults == nil
}

// The hook gates below are what make the fast path truly zero-cost. Go
// compiles generic functions per gc-shape and dispatches type-parameter
// method calls through a runtime dictionary — an indirect call per hook,
// which in a per-edge loop costs more than the counters it replaces. Each
// gate checks unsafe.Sizeof(ins), a compile-time constant per
// instantiation: for the zero-size noInstr policy the condition folds to
// false and the gate — dictionary call included — is eliminated as dead
// code, leaving the bare traversal loop. The gates are small enough that
// the inliner always folds them into the kernels' worker closures.

func iVisit[I instr[I]](ins I) {
	if unsafe.Sizeof(ins) != 0 {
		ins.Visit()
	}
}

func iEdge[I instr[I]](ins I) {
	if unsafe.Sizeof(ins) != 0 {
		ins.Edge()
	}
}

func iLoad[I instr[I]](ins I) {
	if unsafe.Sizeof(ins) != 0 {
		ins.Load()
	}
}

func iStore[I instr[I]](ins I) {
	if unsafe.Sizeof(ins) != 0 {
		ins.Store()
	}
}

func iCAS[I instr[I]](ins I) {
	if unsafe.Sizeof(ins) != 0 {
		ins.CAS()
	}
}

func iBranch[I instr[I]](ins I) {
	if unsafe.Sizeof(ins) != 0 {
		ins.Branch()
	}
}

func iTouch[I instr[I]](ins I, v uint32) {
	if unsafe.Sizeof(ins) != 0 {
		ins.Touch(v)
	}
}

func iFlush[I instr[I]](ins I, tid int) {
	if unsafe.Sizeof(ins) != 0 {
		ins.Flush(tid)
	}
}
