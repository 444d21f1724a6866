package core

import (
	"fmt"
	"runtime"
	"time"

	"thriftylp/internal/atomicx"
)

// FaultPlan is a fault-injection schedule for the kernels. The counting
// policy (instr.go) ticks it at every instrumentation hook: each tick bumps
// a global event counter, and the plan injects runtime.Gosched calls,
// sleeps, and an optional panic at configured event counts. Running the kernels under a plan with -race actively exercises the
// paper's benign-race claims (the non-atomic dedup discipline of the
// worklists and the unified labels array, §IV-A/§V-A) far beyond what
// natural scheduling reaches, and the panic schedule drives the pool's
// recovery paths from arbitrary depths inside a traversal.
//
// A FaultPlan is selected by setting Config.Faults. It composes with
// cancellation (Config.Stop) and with Ctr, Lines and Trace: the plan only
// perturbs scheduling, so the counters count what they count without it.
type FaultPlan struct {
	// GoschedEvery injects runtime.Gosched every Nth hook event (0 = never).
	// Descheduling a worker mid-traversal widens the benign-race windows the
	// paper's design tolerates.
	GoschedEvery uint64
	// DelayEvery injects a Delay-long sleep every Nth hook event (0 = never).
	DelayEvery uint64
	// Delay is the sleep duration for DelayEvery injections.
	Delay time.Duration
	// PanicAt panics at the Nth hook event (0 = never), exercising panic
	// capture and pool drain from deep inside a parallel region.
	PanicAt uint64

	events atomicx.Uint64 // global hook-event count, shared by all workers
}

// Events returns the number of hook events observed so far. Useful for
// calibrating PanicAt in tests.
func (p *FaultPlan) Events() uint64 { return p.events.Load() }

// tick advances the global event count and applies whichever injections are
// scheduled for this event. A nil plan ticks nothing.
func (p *FaultPlan) tick() {
	if p == nil {
		return
	}
	n := p.events.Add(1)
	if p.PanicAt != 0 && n == p.PanicAt {
		panic(fmt.Sprintf("core: injected fault at hook event %d", n))
	}
	if p.GoschedEvery != 0 && n%p.GoschedEvery == 0 {
		runtime.Gosched()
	}
	if p.DelayEvery != 0 && n%p.DelayEvery == 0 {
		time.Sleep(p.Delay)
	}
}
