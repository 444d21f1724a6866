package reflease

import "testing"

// TestTupleIndexRoundTrip: index numbers the maxTuples tuples 0..71 without
// collision, and tupleAt inverts it, so a tupleSet bit names one tuple.
func TestTupleIndexRoundTrip(t *testing.T) {
	for i := range maxTuples {
		tp := tupleAt(i)
		if tp.nilness > nilIs || tp.defers > 2 {
			t.Fatalf("tupleAt(%d) = %+v outside the lattice", i, tp)
		}
		if got := tp.index(); got != i {
			t.Fatalf("tupleAt(%d).index() = %d", i, got)
		}
	}
	s := setOf(tupleAt(0))
	s.add(tupleAt(maxTuples - 1))
	if got := s.tuples(); len(got) != 2 || got[0] != tupleAt(0) || got[1] != tupleAt(maxTuples-1) {
		t.Fatalf("tuples() = %+v", got)
	}
}
