package shard

import (
	"slices"
	"testing"
)

// FuzzDecodePairs feeds arbitrary bytes to the exchange decoder over the
// range [base, base+span), clamped to the uint32 ids. Every pair it delivers,
// before an error or without one, must lie in the range in non-decreasing
// vertex order. A batch it accepts must survive a round trip: its pairs,
// encoded again through putPair, decode to themselves. Under plain
// `go test` it runs the seeds below and testdata/fuzz/FuzzDecodePairs.
func FuzzDecodePairs(f *testing.F) {
	full := encode(f, 100, []Pair{{V: 100, L: 7}, {V: 101, L: 0}, {V: 5000, L: 1 << 30}})
	f.Add(encode(f, 100, nil), uint32(100), uint32(1<<13))
	f.Add(encode(f, 100, []Pair{{V: 100, L: 0}}), uint32(100), uint32(1<<13))
	f.Add(full, uint32(100), uint32(1<<13))
	f.Add(full[:len(full)-1], uint32(100), uint32(1<<13)) // truncated mid-pair
	f.Add(full, uint32(100), uint32(4900))                // last vertex at hi
	f.Fuzz(func(t *testing.T, data []byte, base, span uint32) {
		hi := base + min(span, ^uint32(0)-base)
		var got []Pair
		err := DecodePairs(data, base, hi, func(v, l uint32) {
			if v < base || v >= hi {
				t.Fatalf("pair (%d,%d) outside [%d,%d)", v, l, base, hi)
			}
			if len(got) > 0 && v < got[len(got)-1].V {
				t.Fatalf("pair (%d,%d) after vertex %d", v, l, got[len(got)-1].V)
			}
			got = append(got, Pair{V: v, L: l})
		})
		if err != nil {
			return
		}
		var again []Pair
		if err := DecodePairs(encode(t, base, got), base, hi, func(v, l uint32) {
			again = append(again, Pair{V: v, L: l})
		}); err != nil {
			t.Fatalf("re-encoded batch rejected: %v", err)
		}
		if !slices.Equal(again, got) {
			t.Fatalf("re-encoded batch decoded to %v, want %v", again, got)
		}
	})
}
