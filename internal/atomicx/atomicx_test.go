package atomicx

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestMinUint32Basic(t *testing.T) {
	v := uint32(10)
	if !MinUint32(&v, 5) {
		t.Fatal("lowering 10 to 5 reported no change")
	}
	if v != 5 {
		t.Fatalf("v = %d, want 5", v)
	}
	if MinUint32(&v, 7) {
		t.Fatal("raising reported a change")
	}
	if v != 5 {
		t.Fatalf("v = %d after failed min, want 5", v)
	}
	if MinUint32(&v, 5) {
		t.Fatal("equal value reported a change")
	}
}

// TestMinUint32Hammer checks linearizability of the CAS loop: under heavy
// contention the final value must be the global minimum, and the number of
// successful lowerings must be consistent with a strictly decreasing chain.
func TestMinUint32Hammer(t *testing.T) {
	var v uint32 = 1 << 30
	const workers = 16
	const per = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				MinUint32(&v, uint32(w*per+i+1))
			}
		}(w)
	}
	wg.Wait()
	if v != 1 {
		t.Fatalf("final value %d, want 1 (global minimum)", v)
	}
}

func TestMax(t *testing.T) {
	var m uint32 = 3
	if !MaxUint32(&m, 9) || m != 9 {
		t.Fatalf("MaxUint32: m = %d", m)
	}
	if MaxUint32(&m, 4) {
		t.Fatal("MaxUint32 lowered")
	}
	var i64 int64 = -5
	if !MaxInt64(&i64, 5) || i64 != 5 {
		t.Fatalf("MaxInt64: i = %d", i64)
	}
}

// TestQuickMinIsMin: for any sequence of values applied via MinUint32, the
// result equals the sequence minimum (seeded with the initial value).
func TestQuickMinIsMin(t *testing.T) {
	f := func(init uint32, vals []uint32) bool {
		v := init
		want := init
		for _, x := range vals {
			MinUint32(&v, x)
			if x < want {
				want = x
			}
		}
		return v == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCASAndLoadStore(t *testing.T) {
	var v uint32 = 7
	if !CASUint32(&v, 7, 9) || LoadUint32(&v) != 9 {
		t.Fatal("CAS failed")
	}
	if CASUint32(&v, 7, 11) {
		t.Fatal("stale CAS succeeded")
	}
	StoreUint32(&v, 1)
	if LoadUint32(&v) != 1 {
		t.Fatal("store/load failed")
	}
	var a int64
	if AddInt64(&a, 41) != 41 || AddInt64(&a, 1) != 42 {
		t.Fatal("AddInt64 failed")
	}
}
