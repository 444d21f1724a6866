// Package use exercises reflease across a package boundary: snap's
// Acquire/MustAcquire facts arrive through the fact store, so every call
// site here carries a release obligation.
package use

import "snap"

// leak releases on the happy path only; the early flag-return loses the
// reference.
func leak(src *snap.Source, flag bool) {
	sn := src.Acquire() // want "result of Acquire is not released on every path \\(reference leak\\)"
	if sn == nil {
		return
	}
	if flag {
		return
	}
	sn.Release()
}

// ok is the canonical pattern: nil-check, then defer covers every exit.
func ok(src *snap.Source, flag bool) int {
	sn := src.Acquire()
	if sn == nil {
		return -1
	}
	defer sn.Release()
	if flag {
		return 0
	}
	return sn.ID()
}

// okNegated nil-checks through a negation; the analyzer must still refine.
func okNegated(src *snap.Source) {
	sn := src.Acquire()
	if !(sn != nil) {
		return
	}
	sn.Release()
}

// double releases twice on the fallthrough path.
func double(src *snap.Source) {
	sn := src.Acquire()
	if sn == nil {
		return
	}
	sn.Release()
	sn.Release() // want "sn is released more than once on some path"
}

// deferThenCall arms a deferred release and then releases again.
func deferThenCall(src *snap.Source) {
	sn := src.Acquire()
	if sn == nil {
		return
	}
	defer sn.Release()
	sn.Release() // want "sn is released more than once on some path"
}

// nilRelease defers a release without checking the nil failure value.
func nilRelease(src *snap.Source) {
	sn := src.Acquire()
	defer sn.Release() // want "sn may be nil here: Acquire can fail; check before releasing"
}

// dropped discards the reference outright, twice over.
func dropped(src *snap.Source) {
	src.Acquire()     // want "result of Acquire is dropped: the acquired reference can never be released"
	_ = src.Acquire() // want "result of Acquire is dropped: the acquired reference can never be released"
}

// handOff moves the obligation to its caller — clean here, and the
// propagated fact makes handOff itself an acquire function.
func handOff(src *snap.Source) *snap.Snapshot { // wantfact "handOff: acquires"
	sn := src.Acquire()
	return sn
}

// store parks the reference in package state: ownership escapes, some
// other protocol releases it.
var parked *snap.Snapshot

func store(src *snap.Source) {
	sn := src.Acquire()
	parked = sn
}

// passOn hands the reference to another function, which then owns it.
func passOn(src *snap.Source) {
	sn := src.Acquire()
	consume(sn)
}

func consume(sn *snap.Snapshot) {
	if sn != nil {
		sn.Release()
	}
}

// capture closes over the reference; the closure owns it now.
func capture(src *snap.Source) func() {
	sn := src.Acquire()
	return func() {
		if sn != nil {
			sn.Release()
		}
	}
}

// useMust leaks a reference obtained through the propagated MustAcquire
// fact — the cross-package, non-signature-seeded case.
func useMust(src *snap.Source) {
	sn := src.MustAcquire() // want "result of MustAcquire is not released on every path \\(reference leak\\)"
	_ = sn.ID()
}

// loop re-acquires while still holding the previous iteration's reference.
func loop(src *snap.Source, n int) {
	for i := 0; i < n; i++ {
		sn := src.Acquire() // want "result of Acquire is not released on every path \\(reference leak\\)"
		if sn == nil {
			continue
		}
		_ = sn.ID()
	}
}

// loopOK releases before looping back.
func loopOK(src *snap.Source, n int) {
	for i := 0; i < n; i++ {
		sn := src.Acquire()
		if sn == nil {
			continue
		}
		_ = sn.ID()
		sn.Release()
	}
}

// vacuous re-checks nil on a path already proven non-nil. The then-branch
// is infeasible and carries an empty state into the loop under it; the
// fixpoint must still terminate, and nothing is reported.
func vacuous(src *snap.Source) {
	sn := src.Acquire()
	if sn == nil {
		return
	}
	if sn == nil {
		for i := 0; i < 3; i++ {
			_ = i
		}
	}
	sn.Release()
}
