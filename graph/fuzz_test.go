package graph

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// Native fuzz targets for the parsing/serialization surfaces. Under plain
// `go test` they run their seed corpus as regression tests; under
// `go test -fuzz=FuzzX` they explore further.

// hostileHeader builds a binary CSR header with valid magic and version but
// attacker-chosen vertex and slot counts, and no payload.
func hostileHeader(n, m uint64) []byte {
	var buf bytes.Buffer
	for _, h := range []uint64{0x54484c50, 1, n, m} {
		var b [8]byte
		for i := 0; i < 8; i++ {
			b[i] = byte(h >> (8 * i))
		}
		buf.Write(b[:])
	}
	return buf.Bytes()
}

func FuzzReadEdgeList(f *testing.F) {
	f.Add("0 1\n1 2\n")
	f.Add("# comment\n\n5 5\n")
	f.Add("0 1 extra tokens\n")
	f.Add("999999 3\n")
	f.Add("-1 2\n")
	f.Add("a b\n")
	f.Add(strings.Repeat("1 2\n", 100))
	// Newline-boundary shapes the sharded parser must cut around: CRLF line
	// ends, comment/blank lines at potential chunk boundaries, no final
	// newline, leading whitespace.
	f.Add("0 1\r\n1 2\r\n")
	f.Add("# c\n% c\n\n   \n0 1")
	f.Add("\t 0 \t1 \n")
	f.Add(strings.Repeat("# filler\n", 50) + "3 4\n" + strings.Repeat("\n", 50))
	f.Fuzz(func(t *testing.T, input string) {
		g, err := ReadEdgeList(strings.NewReader(input))
		if err != nil {
			return // rejecting malformed input is fine; crashing is not
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted input produced invalid CSR: %v\ninput: %q", err, input)
		}
	})
}

func FuzzReadBinary(f *testing.F) {
	// Seed with a valid file and with mutations of it.
	g, err := BuildUndirected([]Edge{{0, 1}, {1, 2}, {2, 2}})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	// Hostile headers: valid magic/version but counts far beyond the data.
	// These must fail with a truncation error, not allocate count-sized
	// arrays (the OOM vector this corpus pins down).
	f.Add(hostileHeader(1<<40, 1<<40))
	f.Add(hostileHeader(1<<62, 1<<62))                // payload size overflows int64
	f.Add(hostileHeader(uint64(1)<<33, 4))            // vertex count above uint32 space
	f.Add(hostileHeader(3, uint64(1)<<63))            // slot bytes overflow
	f.Add(append(hostileHeader(3, 8), valid[32:]...)) // plausible counts, short payload
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted binary produced invalid CSR: %v", err)
		}
	})
}

// rawBinary encodes a binary CSR file from raw arrays, unchecked, so fuzz
// seeds can carry malformed offsets and ids.
func rawBinary(offsets []int64, adj []uint32) []byte {
	buf := hostileHeader(uint64(len(offsets)-1), uint64(len(adj)))
	for _, o := range offsets {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(o))
	}
	for _, u := range adj {
		buf = binary.LittleEndian.AppendUint32(buf, u)
	}
	return buf
}

// FuzzLoadBinary drives LoadBinary's mapped path: whatever it accepts must
// pass a scalar reference check (monotone offsets spanning the adjacency,
// every id below n, the smallest max-degree vertex as the hub), and whatever
// ReadBinary accepts, the mapped load must accept with equal arrays and hub.
func FuzzLoadBinary(f *testing.F) {
	// Five vertices (2^⌈log₂5⌉-1 = 7) and five slots: vertex 2's self-loop
	// makes the slot count odd.
	offsets := []int64{0, 1, 3, 4, 5, 5}
	adj := []uint32{1, 0, 2, 3, 2}
	valid := rawBinary(offsets, adj)
	f.Add(valid)
	for _, id := range []uint32{5, 7, 1 << 31, math.MaxUint32} {
		for _, slot := range []int{0, 3, 4} {
			bad := slices.Clone(adj)
			bad[slot] = id
			f.Add(rawBinary(offsets, bad))
		}
	}
	f.Add(rawBinary([]int64{0, 1, 3, 2, 5, 5}, adj)) // non-monotone offsets
	f.Add(rawBinary([]int64{0, 2, 2, 4, 4}, []uint32{1, 3, 0, 2}))
	f.Add(rawBinary([]int64{0}, nil))
	f.Add(valid[:len(valid)-2])
	// Inputs run one at a time in each fuzzing process, and each mapping
	// is closed before its input returns, so one file serves them all.
	path := filepath.Join(f.TempDir(), "g.bin")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		g, err := LoadBinary(path)
		if err == nil {
			defer g.Close()
			off, ids := g.Offsets(), g.Adjacency()
			n := g.NumVertices()
			if len(off) == 0 || off[0] != 0 || off[n] != int64(len(ids)) {
				t.Fatalf("accepted offsets do not span the adjacency: %v, %d slots", off, len(ids))
			}
			hub := 0
			for v := 0; v < n; v++ {
				if off[v+1] < off[v] {
					t.Fatalf("accepted offsets not monotone at vertex %d", v)
				}
				if off[v+1]-off[v] > off[hub+1]-off[hub] {
					hub = v
				}
			}
			for i, u := range ids {
				if int(u) >= n {
					t.Fatalf("accepted slot %d references vertex %d of %d", i, u, n)
				}
			}
			if n > 0 && g.MaxDegreeVertex() != uint32(hub) {
				t.Fatalf("MaxDegreeVertex = %d, want %d", g.MaxDegreeVertex(), hub)
			}
		}
		rg, rerr := ReadBinary(bytes.NewReader(data))
		if rerr != nil {
			return
		}
		if err != nil {
			t.Fatalf("ReadBinary accepts what LoadBinary rejects: %v", err)
		}
		if !slices.Equal(g.Offsets(), rg.Offsets()) || !slices.Equal(g.Adjacency(), rg.Adjacency()) {
			t.Fatal("LoadBinary and ReadBinary disagree on the arrays")
		}
		if g.NumVertices() > 0 && g.MaxDegreeVertex() != rg.MaxDegreeVertex() {
			t.Fatalf("MaxDegreeVertex: LoadBinary %d, ReadBinary %d", g.MaxDegreeVertex(), rg.MaxDegreeVertex())
		}
	})
}

// parseEdgeListChunks parses pre-split chunks in shard order, mirroring the
// concatenation and lowest-shard-error-wins semantics of parseEdgeList.
func parseEdgeListChunks(chunks [][]byte) ([]Edge, error) {
	var out []Edge
	for i, c := range chunks {
		edges, perr := parseEdgeChunk(c, nil)
		out = append(out, edges...)
		if perr != nil {
			return out, perr.global(chunks, i)
		}
	}
	return out, nil
}

// FuzzSplitChunks pins the chunk splitter's invariants (lossless
// concatenation, newline-terminated chunks) and that a sharded parse is
// byte-for-byte equivalent to a single-chunk parse of the same input.
func FuzzSplitChunks(f *testing.F) {
	f.Add([]byte("0 1\n1 2\n2 3\n"), uint8(3))
	f.Add([]byte("# c\n\n0 1\r\n"), uint8(7))
	f.Add([]byte("no newline at all"), uint8(2))
	f.Add([]byte("\n\n\n"), uint8(255))
	f.Add([]byte{}, uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, k uint8) {
		chunks := splitChunks(data, int(k))
		var total int
		for i, c := range chunks {
			if len(c) == 0 {
				t.Fatalf("chunk %d empty", i)
			}
			if i < len(chunks)-1 && c[len(c)-1] != '\n' {
				t.Fatalf("chunk %d does not end with newline: %q", i, c)
			}
			total += len(c)
		}
		if total != len(data) {
			t.Fatalf("chunks cover %d bytes, input has %d", total, len(data))
		}
		cat := make([]byte, 0, len(data))
		for _, c := range chunks {
			cat = append(cat, c...)
		}
		if !bytes.Equal(cat, data) {
			t.Fatalf("concatenation differs from input")
		}

		// Sharded parse ≡ single-chunk parse: same edges or same error line.
		single, serr := parseEdgeChunk(data, nil)
		sharded, merr := parseEdgeListChunks(chunks)
		if (serr == nil) != (merr == nil) {
			t.Fatalf("error disagreement: single=%v sharded=%v", serr, merr)
		}
		if serr != nil {
			return
		}
		if len(single) != len(sharded) {
			t.Fatalf("edge count: single=%d sharded=%d", len(single), len(sharded))
		}
		for i := range single {
			if single[i] != sharded[i] {
				t.Fatalf("edge %d: single=%v sharded=%v", i, single[i], sharded[i])
			}
		}
	})
}

func FuzzBuildUndirected(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2})
	f.Add([]byte{5, 5})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		var edges []Edge
		for i := 0; i+1 < len(raw); i += 2 {
			edges = append(edges, Edge{U: uint32(raw[i]), V: uint32(raw[i+1])})
		}
		g, err := BuildUndirected(edges, WithDedup())
		if err != nil {
			t.Fatalf("build failed on in-range input: %v", err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("built graph invalid: %v", err)
		}
		// Round trip through both formats preserves the structure.
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			t.Fatal(err)
		}
		g2, err := ReadBinary(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if g2.NumVertices() != g.NumVertices() || g2.NumDirectedEdges() != g.NumDirectedEdges() {
			t.Fatal("binary round trip changed sizes")
		}
	})
}
