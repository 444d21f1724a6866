package bitmap

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestSetGetClear(t *testing.T) {
	b := New(200)
	if b.Len() != 200 {
		t.Fatalf("Len = %d, want 200", b.Len())
	}
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 199} {
		if b.Get(i) {
			t.Fatalf("bit %d set on fresh bitmap", i)
		}
		b.Set(i)
		if !b.Get(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
	}
	if got := b.Count(); got != 8 {
		t.Fatalf("Count = %d, want 8", got)
	}
	b.Clear(64)
	if b.Get(64) {
		t.Fatal("bit 64 still set after Clear")
	}
	if got := b.Count(); got != 7 {
		t.Fatalf("Count = %d, want 7", got)
	}
}

func TestSetAllAndReset(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 1000} {
		b := New(n)
		b.SetAll()
		if got := b.Count(); got != n {
			t.Fatalf("n=%d: Count after SetAll = %d", n, got)
		}
		b.Reset()
		if b.Count() != 0 {
			t.Fatalf("n=%d: bits remain after Reset", n)
		}
	}
}

func TestSetAtomicReportsChange(t *testing.T) {
	b := New(100)
	if !b.SetAtomic(42) {
		t.Fatal("first SetAtomic returned false")
	}
	if b.SetAtomic(42) {
		t.Fatal("second SetAtomic returned true")
	}
	if !b.Get(42) {
		t.Fatal("Get false after SetAtomic")
	}
}

// TestSetAtomicConcurrent checks that exactly one concurrent setter wins
// each bit and that all set bits survive.
func TestSetAtomicConcurrent(t *testing.T) {
	const n = 1 << 14
	const workers = 8
	b := New(n)
	wins := make([]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if b.SetAtomic(i) {
					wins[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for _, c := range wins {
		total += c
	}
	if total != n {
		t.Fatalf("total wins = %d, want %d (each bit won exactly once)", total, n)
	}
	if b.Count() != n {
		t.Fatalf("Count = %d, want %d", b.Count(), n)
	}
}

func TestForEachAndAppendTo(t *testing.T) {
	b := New(300)
	want := []int{0, 5, 63, 64, 100, 255, 299}
	for _, i := range want {
		b.Set(i)
	}
	var got []int
	b.ForEach(func(i int) { got = append(got, i) })
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %d bits, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach order: got[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	ids := b.AppendTo(nil)
	for i := range want {
		if int(ids[i]) != want[i] {
			t.Fatalf("AppendTo: ids[%d] = %d, want %d", i, ids[i], want[i])
		}
	}
}

// TestCountRange counts the set bits of a range as a difference of two
// Rank.Below answers and checks it against per-bit Get probing.
func TestCountRange(t *testing.T) {
	b := New(256)
	for i := 0; i < 256; i += 3 {
		b.Set(i)
	}
	r := NewRank(b)
	for _, tc := range []struct{ lo, hi int }{
		{0, 0}, {0, 256}, {1, 255}, {63, 65}, {64, 128}, {100, 101}, {0, 64},
	} {
		want := 0
		for i := tc.lo; i < tc.hi; i++ {
			if b.Get(i) {
				want++
			}
		}
		if got := r.Below(tc.hi) - r.Below(tc.lo); got != want {
			t.Fatalf("count in [%d,%d) = %d, want %d", tc.lo, tc.hi, got, want)
		}
	}
}

// TestQuickCountMatchesNaive is a property test: Count equals the number of
// distinct indices set, for arbitrary index sets.
func TestQuickCountMatchesNaive(t *testing.T) {
	f := func(idx []uint16) bool {
		b := New(1 << 16)
		distinct := map[uint16]bool{}
		for _, i := range idx {
			b.Set(int(i))
			distinct[i] = true
		}
		return b.Count() == len(distinct)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestForEachRangeMatchesGet cross-checks the word-at-a-time range drain
// against naive per-bit probing over awkward word-boundary ranges.
func TestForEachRangeMatchesGet(t *testing.T) {
	b := New(300)
	for _, i := range []int{0, 1, 62, 63, 64, 65, 127, 128, 200, 255, 256, 299} {
		b.Set(i)
	}
	for _, tc := range []struct{ lo, hi int }{
		{0, 0}, {0, 300}, {1, 299}, {63, 65}, {64, 128}, {100, 101},
		{0, 64}, {62, 66}, {255, 257}, {299, 300},
	} {
		var want []int
		for i := tc.lo; i < tc.hi; i++ {
			if b.Get(i) {
				want = append(want, i)
			}
		}
		var got []int
		b.ForEachRange(tc.lo, tc.hi, func(i int) { got = append(got, i) })
		if len(got) != len(want) {
			t.Fatalf("ForEachRange(%d,%d): got %v, want %v", tc.lo, tc.hi, got, want)
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("ForEachRange(%d,%d): got %v, want %v", tc.lo, tc.hi, got, want)
			}
		}
		app := b.AppendRange(nil, tc.lo, tc.hi)
		if len(app) != len(want) {
			t.Fatalf("AppendRange(%d,%d): got %v, want %v", tc.lo, tc.hi, app, want)
		}
		for k := range app {
			if int(app[k]) != want[k] {
				t.Fatalf("AppendRange(%d,%d): got %v, want %v", tc.lo, tc.hi, app, want)
			}
		}
	}
}

// TestQuickForEachRangeMatchesNaive is a property test over arbitrary index
// sets and ranges.
func TestQuickForEachRangeMatchesNaive(t *testing.T) {
	f := func(idx []uint16, lo16, hi16 uint16) bool {
		const n = 1 << 16
		b := New(n)
		for _, i := range idx {
			b.Set(int(i))
		}
		lo, hi := int(lo16), int(hi16)
		if lo > hi {
			lo, hi = hi, lo
		}
		count := 0
		ok := true
		b.ForEachRange(lo, hi, func(i int) {
			if i < lo || i >= hi || !b.Get(i) {
				ok = false
			}
			count++
		})
		want := 0
		for i := lo; i < hi; i++ {
			if b.Get(i) {
				want++
			}
		}
		return ok && count == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestForEachRangeOutOfBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ForEachRange out of bounds did not panic")
		}
	}()
	New(10).ForEachRange(0, 11, func(int) {})
}

// TestRankMatchesCount pins Rank.Below to a running Get count at every index,
// including Len() itself, on sizes around word boundaries.
func TestRankMatchesCount(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 128, 200} {
		b := New(n)
		for i := 0; i < n; i++ {
			if i%3 == 0 || i%7 == 1 {
				b.Set(i)
			}
		}
		r := NewRank(b)
		want := 0
		for i := 0; i <= n; i++ {
			if got := r.Below(i); got != want {
				t.Fatalf("n=%d: Below(%d) = %d, want %d", n, i, got, want)
			}
			if i < n && b.Get(i) {
				want++
			}
		}
	}
}
