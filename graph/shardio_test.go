package graph

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// buildTestGraph builds a small fixed graph for slice tests: two triangles
// joined by a bridge, plus an isolated vertex.
func buildTestGraph(t *testing.T) *Graph {
	t.Helper()
	g, err := BuildUndirected([]Edge{
		{0, 1}, {1, 2}, {2, 0},
		{2, 3},
		{3, 4}, {4, 5}, {5, 3},
	}, WithNumVertices(7))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestCheckOffsets64(t *testing.T) {
	cases := []struct {
		name    string
		offsets []int64
		slots   int64
		wantHub uint32
		wantErr string
	}{
		{"valid", []int64{0, 2, 5}, 5, 1, ""},
		{"tie-smallest-id", []int64{0, 1, 4, 7, 9}, 9, 1, ""},
		{"single-vertex-empty", []int64{0, 0}, 0, 0, ""},
		{"zero-vertices", []int64{0}, 0, 0, ""},
		{"empty", nil, 0, 0, "empty offsets"},
		{"nonzero-start", []int64{1, 2}, 1, 0, "want 0"},
		{"negative-slots", []int64{0}, -1, 0, "negative slot count"},
		{"not-monotone", []int64{0, 5, 3}, 3, 0, "not monotone"},
		{"span-mismatch", []int64{0, 2, 4}, 5, 0, "want slot count"},
		{"degree-overflow", []int64{0, int64(math.MaxUint32) + 1}, int64(math.MaxUint32) + 1, 0, "exceeds the uint32 range"},
		// The first offender decides the message, whichever kind it is.
		{"overflow-before-dip", []int64{0, int64(math.MaxUint32) + 1, 5}, 5, 0, "vertex 0 degree"},
		// A dip to a negative offset wraps the int64 degree positive.
		{"wrapping-dip", []int64{0, 1, 3, math.MinInt64 + 2, 0, 5}, 5, 0, "not monotone at vertex 2"},
		{"dip-before-overflow", []int64{0, 5, 3, int64(math.MaxUint32) + 4}, int64(math.MaxUint32) + 4, 0, "not monotone at vertex 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			hub, err := CheckOffsets64(tc.offsets, tc.slots)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("CheckOffsets64 = %v, want nil", err)
				}
				if hub != tc.wantHub {
					t.Fatalf("CheckOffsets64 hub = %d, want %d", hub, tc.wantHub)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("CheckOffsets64 = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

// TestCheckOffsets64At2to31Boundary is the regression test for the sharded
// path's offset arithmetic at the 2^31-edge boundary. The offsets are
// synthetic — a handful of int64 values straddling 2^31 — so no giant
// allocation happens, but any int32/uint32 narrowing inside the audit (or a
// reintroduced one) would wrap negative and be caught here.
func TestCheckOffsets64At2to31Boundary(t *testing.T) {
	const twoTo31 = int64(1) << 31
	// Four vertices whose prefix sums cross 2^31: the third vertex's row
	// spans the boundary, the last ends beyond it. int32 arithmetic on any
	// of these values would go negative or wrap.
	offsets := []int64{0, twoTo31 - 3, twoTo31 - 1, twoTo31 + 5, twoTo31 + 9}
	if _, err := CheckOffsets64(offsets, twoTo31+9); err != nil {
		t.Fatalf("boundary-straddling offsets rejected: %v", err)
	}
	// Degrees right at the uint32 limit pass; one past it fails.
	if _, err := CheckOffsets64([]int64{0, int64(math.MaxUint32)}, int64(math.MaxUint32)); err != nil {
		t.Fatalf("max-uint32 degree rejected: %v", err)
	}
	// A slot count just past 2^31 with a matching monotone ramp stays valid:
	// this is the exact shape a >2 GiB adjacency shard file produces.
	big := []int64{0, 1 << 30, 1 << 31, (1 << 31) + (1 << 30)}
	if _, err := CheckOffsets64(big, (1<<31)+(1<<30)); err != nil {
		t.Fatalf("3 GiB-slot offsets rejected: %v", err)
	}
	// Byte-size overflow guard: offsets whose 8x scaling exceeds int64.
	if _, err := CheckOffsets64([]int64{0, math.MaxInt64}, math.MaxInt64); err == nil ||
		!strings.Contains(err.Error(), "exceeds the uint32 range") {
		t.Fatalf("degree at MaxInt64 not rejected: %v", err)
	}
}

func TestSliceFromGraphRoundTrip(t *testing.T) {
	g := buildTestGraph(t)
	n := uint32(g.NumVertices())
	cuts := [][2]uint32{{0, n}, {0, 3}, {3, n}, {2, 5}, {6, 7}, {4, 4}}
	for _, c := range cuts {
		s, err := SliceFromGraph(g, c[0], c[1])
		if err != nil {
			t.Fatalf("SliceFromGraph[%d,%d): %v", c[0], c[1], err)
		}
		if s.NumLocal() != int(c[1]-c[0]) {
			t.Fatalf("NumLocal = %d, want %d", s.NumLocal(), c[1]-c[0])
		}
		for v := c[0]; v < c[1]; v++ {
			got := s.Row(v)
			want := g.Neighbors(v)
			if len(got) != len(want) {
				t.Fatalf("Row(%d) len %d, want %d", v, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("Row(%d)[%d] = %d, want %d", v, i, got[i], want[i])
				}
			}
		}
	}
	if _, err := SliceFromGraph(g, 5, 3); err == nil {
		t.Fatal("inverted range accepted")
	}
	if _, err := SliceFromGraph(g, 0, n+1); err == nil {
		t.Fatal("out-of-range hi accepted")
	}
}

func TestCSRSliceSaveLoad(t *testing.T) {
	g := buildTestGraph(t)
	dir := t.TempDir()
	n := uint32(g.NumVertices())
	for _, c := range [][2]uint32{{0, n}, {2, 5}, {6, 7}, {4, 4}} {
		s, err := SliceFromGraph(g, c[0], c[1])
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "slice.bin")
		if err := SaveCSRSlice(path, s); err != nil {
			t.Fatalf("SaveCSRSlice: %v", err)
		}
		got, err := LoadCSRSlice(path)
		if err != nil {
			t.Fatalf("LoadCSRSlice: %v", err)
		}
		if got.GlobalVertices != s.GlobalVertices || got.Lo != s.Lo || got.Hi != s.Hi {
			t.Fatalf("header mismatch: got {%d %d %d}, want {%d %d %d}",
				got.GlobalVertices, got.Lo, got.Hi, s.GlobalVertices, s.Lo, s.Hi)
		}
		for v := c[0]; v < c[1]; v++ {
			a, b := got.Row(v), s.Row(v)
			if len(a) != len(b) {
				t.Fatalf("Row(%d) len %d, want %d", v, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("Row(%d)[%d] = %d, want %d", v, i, a[i], b[i])
				}
			}
		}
		if err := got.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if err := got.Close(); err != nil {
			t.Fatalf("second Close: %v", err)
		}
	}
}

func TestLoadCSRSliceRejectsCorrupt(t *testing.T) {
	g := buildTestGraph(t)
	s, err := SliceFromGraph(g, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSRSlice(&buf, s); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	dir := t.TempDir()
	write := func(b []byte) string {
		p := filepath.Join(dir, "corrupt.bin")
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	// Truncated payload: header claims more bytes than the file holds.
	if _, err := LoadCSRSlice(write(good[:len(good)-4])); err == nil {
		t.Fatal("truncated slice accepted")
	}
	// Bad magic.
	bad := append([]byte(nil), good...)
	bad[0] ^= 0xff
	if _, err := LoadCSRSlice(write(bad)); err == nil {
		t.Fatal("bad magic accepted")
	}
	// lo > hi in the header.
	bad = append([]byte(nil), good...)
	bad[24], bad[32] = bad[32], bad[24] // swap lo/hi low bytes (2 <-> 5)
	if _, err := LoadCSRSlice(write(bad)); err == nil {
		t.Fatal("inverted header range accepted")
	}
	// Out-of-range neighbour id: clobber an adjacency slot with a huge id.
	bad = append([]byte(nil), good...)
	adjStart := sliceHeaderSize + 8*(len(s.Offsets))
	for i := 0; i < 4; i++ {
		bad[adjStart+i] = 0xff
	}
	if _, err := LoadCSRSlice(write(bad)); err == nil {
		t.Fatal("out-of-range neighbour accepted")
	}
}

func TestWriteCSRSliceValidates(t *testing.T) {
	var buf bytes.Buffer
	// Offsets length not matching the range.
	s := &CSRSlice{GlobalVertices: 4, Lo: 0, Hi: 2, Offsets: []int64{0}, Adj: nil}
	if err := WriteCSRSlice(&buf, s); err == nil {
		t.Fatal("short offsets accepted")
	}
	// Non-monotone offsets.
	s = &CSRSlice{GlobalVertices: 4, Lo: 0, Hi: 2, Offsets: []int64{0, 3, 1}, Adj: make([]uint32, 1)}
	if err := WriteCSRSlice(&buf, s); err == nil {
		t.Fatal("non-monotone offsets accepted")
	}
}
