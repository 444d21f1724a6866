package shard

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"thriftylp/graph"
	"thriftylp/graph/gen"
	"thriftylp/internal/parallel"
)

func mustGraph(g *graph.Graph, err error) *graph.Graph {
	if err != nil {
		panic(err)
	}
	return g
}

// Pair is one exchange message: global vertex V receives label L.
type Pair struct {
	V, L uint32
}

// encode sizes a batch exactly with uvarintLen and writes it the way
// Node.Emit does — count header, then putPair per pair — which must fill
// the buffer.
func encode(t testing.TB, base uint32, pairs []Pair) []byte {
	t.Helper()
	size, prev := uvarintLen(uint64(len(pairs))), base
	for _, p := range pairs {
		size += uvarintLen(uint64(p.V-prev)) + uvarintLen(uint64(p.L))
		prev = p.V
	}
	buf := make([]byte, size)
	n, prev := binary.PutUvarint(buf, uint64(len(pairs))), base
	for _, p := range pairs {
		n += putPair(buf[n:], p.V-prev, p.L)
		prev = p.V
	}
	if n != size {
		t.Fatalf("encoder wrote %d bytes, uvarintLen sized %d", n, size)
	}
	return buf
}

func TestCodecRoundTrip(t *testing.T) {
	cases := [][]Pair{
		nil,
		{{V: 100, L: 0}},
		{{V: 100, L: 7}, {V: 101, L: 0}, {V: 5000, L: 1 << 30}},
		{{V: 100, L: 4}, {V: 4242, L: 3}, {V: 9999, L: 0}, {V: 9999 + 1<<21, L: ^uint32(0)}},
	}
	for i, pairs := range cases {
		var got []Pair
		if err := DecodePairs(encode(t, 100, pairs), 100, 1<<22, func(v, l uint32) {
			got = append(got, Pair{V: v, L: l})
		}); err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if !slices.Equal(got, pairs) {
			t.Fatalf("case %d: decoded %v, want %v", i, got, pairs)
		}
	}
}

// TestCodecGoldenBytes fixes the wire encoding: a count header, then per
// pair the uvarint vertex delta from the previous vertex (the first from
// base) and the uvarint label.
func TestCodecGoldenBytes(t *testing.T) {
	pairs := []Pair{{V: 100, L: 4}, {V: 4242, L: 1}, {V: 9999, L: 0}}
	got := encode(t, 100, pairs)
	want := []byte{
		0x03,       // three vertices
		0x00, 0x04, // 100: delta 0 from base, label 4
		0xAE, 0x20, 0x01, // 4242: delta 4142, label 1
		0xFD, 0x2C, 0x00, // 9999: delta 5757, label 0
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("encoded % x, want % x", got, want)
	}
}

// TestUvarintLenMatchesPutUvarint pins the size Emit allocates each batch
// at to what the encoder writes, at every varint length boundary.
func TestUvarintLenMatchesPutUvarint(t *testing.T) {
	var buf [binary.MaxVarintLen64]byte
	for shift := 0; shift < 64; shift++ {
		for _, x := range []uint64{1<<shift - 1, 1 << shift, 1<<shift + 1} {
			if got, want := uvarintLen(x), binary.PutUvarint(buf[:], x); got != want {
				t.Fatalf("uvarintLen(%d) = %d, PutUvarint writes %d", x, got, want)
			}
		}
	}
	if got := uvarintLen(^uint64(0)); got != binary.MaxVarintLen64 {
		t.Fatalf("uvarintLen(max) = %d, want %d", got, binary.MaxVarintLen64)
	}
}

func TestCodecZeroLabelIsTwoBytes(t *testing.T) {
	// The suppressing message — one vertex at a small delta with label 0 —
	// must cost two bytes past the count: that is the wire-level version of
	// "converged vertices are cheap to announce, then free forever".
	buf := encode(t, 100, []Pair{{V: 101, L: 0}})
	if len(buf) != 3 { // count=1 (1B) + delta=1 (1B) + label=0 (1B)
		t.Fatalf("zero-label pair encoded to %d bytes, want 3", len(buf))
	}
}

func TestCodecRejectsCorrupt(t *testing.T) {
	buf := encode(t, 0, []Pair{{V: 5, L: 9}, {V: 80, L: 1}})
	nop := func(uint32, uint32) {}
	if err := DecodePairs(buf[:len(buf)-1], 0, 100, nop); err == nil {
		t.Fatal("truncated batch accepted")
	}
	if err := DecodePairs(buf, 0, 50, nop); err == nil {
		t.Fatal("out-of-range vertex accepted")
	}
	if err := DecodePairs(append(buf, 0x7), 0, 100, nop); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	if err := DecodePairs(nil, 0, 100, nop); err == nil {
		t.Fatal("empty input accepted")
	}
}

// TestCodecRejectsWrappingDelta: a vertex delta of 2^64-1 wraps v from base
// 2 round to 1, below the shard range [2,4). The decoder must reject the
// pair, and Node.Apply must return that error instead of indexing its
// representatives at v-Lo.
func TestCodecRejectsWrappingDelta(t *testing.T) {
	batch := append(binary.AppendUvarint([]byte{1}, ^uint64(0)), 0)
	if len(batch) != 12 {
		t.Fatalf("wrap batch is %d bytes, want 12", len(batch))
	}
	if err := DecodePairs(batch, 2, 4, func(v, l uint32) {
		t.Fatalf("decoder delivered (%d,%d) from a wrapping delta", v, l)
	}); err == nil {
		t.Fatal("wrapping delta accepted")
	}
	g := mustGraph(csrFromEdges(6, [][2]uint32{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}}))
	sl, err := graph.SliceFromGraph(g, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	ranges := []parallel.Range{{Lo: 0, Hi: 2}, {Lo: 2, Hi: 4}, {Lo: 4, Hi: 6}}
	if err := NewNode(1, sl, ranges, g.MaxDegreeVertex()).Apply(batch); err == nil {
		t.Fatal("Node.Apply accepted a wrapping delta")
	}
}

func TestWriteOpenRoundTrip(t *testing.T) {
	g := mustGraph(gen.RMAT(gen.DefaultRMAT(10, 8, 11)))
	dir := t.TempDir()
	m, err := Write(g, dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Shards) != 4 || m.Vertices != g.NumVertices() || m.Slots != g.NumDirectedEdges() {
		t.Fatalf("manifest shape: %+v", m)
	}
	if m.Hub != g.MaxDegreeVertex() {
		t.Fatalf("manifest hub %d, want %d", m.Hub, g.MaxDegreeVertex())
	}
	set, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < set.Shards(); i++ {
		sl, err := set.Slice(i)
		if err != nil {
			t.Fatalf("slice %d: %v", i, err)
		}
		for v := sl.Lo; v < sl.Hi; v++ {
			got, want := sl.Row(v), g.Neighbors(v)
			if len(got) != len(want) {
				t.Fatalf("shard %d row %d: %d slots, want %d", i, v, len(got), len(want))
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("shard %d row %d slot %d: %d, want %d", i, v, j, got[j], want[j])
				}
			}
		}
		if err := set.Release(sl); err != nil {
			t.Fatal(err)
		}
	}
}

func TestOpenRejectsMismatchedManifest(t *testing.T) {
	g := mustGraph(gen.ErdosRenyi(512, 2048, 3))
	dir := t.TempDir()
	m, err := Write(g, dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Claim the wrong slot count for shard 0 (keeping the total consistent
	// by shifting it to shard 1): shard 1's file is then 4 bytes short of
	// its claim, which Open's size check catches.
	m.Shards[0].Slots--
	m.Shards[1].Slots++
	if err := WriteManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("slot count beyond shard 1's file accepted")
	}
	// Under-claim shard 0 instead: every file holds what the manifest
	// needs, so Open succeeds, but the slice header cross-check at load
	// time must catch the mismatch.
	m.Shards[1].Slots--
	m.Slots--
	if err := WriteManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	set, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := set.Slice(0); err == nil {
		t.Fatal("slot-count mismatch between manifest and slice header accepted")
	}
}

// TestOpenBoundsVerticesByFiles: a manifest whose ranges tile a huge vertex
// space over small slice files must fail Open, before any caller sizes
// per-vertex state from Vertices. Each case rewrites the manifest of a
// written 3-shard set.
func TestOpenBoundsVerticesByFiles(t *testing.T) {
	g := mustGraph(gen.RMATCompact(gen.DefaultRMAT(5, 8, 3)))
	for _, tc := range []struct {
		name   string
		mutate func(m *Manifest)
	}{
		// The FuzzShardSet seed of the same name: the last shard's range
		// is stretched to end at 2^31 over its few-hundred-byte file.
		{"manifest-claims-2to31", func(m *Manifest) {
			m.Vertices = 1 << 31
			m.Shards[2].Hi = 1 << 31
		}},
		{"slots-beyond-file", func(m *Manifest) {
			m.Shards[0].Slots += 1 << 20
			m.Slots += 1 << 20
		}},
		{"missing-file", func(m *Manifest) {
			m.Shards[1].File = "absent.csr"
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			m, err := Write(g, dir, 3)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Open(dir); err != nil {
				t.Fatalf("the written set does not open: %v", err)
			}
			tc.mutate(m)
			if err := WriteManifest(dir, m); err != nil {
				t.Fatal(err)
			}
			if set, err := Open(dir); err == nil {
				t.Fatalf("Open accepted the rewritten manifest (%d vertices)", set.Vertices())
			}
		})
	}
}

func TestManifestValidation(t *testing.T) {
	good := Manifest{
		Schema: ManifestSchema, Vertices: 10, Slots: 6, Hub: 3,
		Shards: []Info{{File: "a", Lo: 0, Hi: 4, Slots: 4}, {File: "b", Lo: 4, Hi: 10, Slots: 2}},
	}
	if err := good.validate(); err != nil {
		t.Fatalf("valid manifest rejected: %v", err)
	}
	bad := good
	bad.Schema = "nope"
	if bad.validate() == nil {
		t.Fatal("wrong schema accepted")
	}
	bad = good
	bad.Shards = []Info{{File: "a", Lo: 0, Hi: 4, Slots: 4}, {File: "b", Lo: 5, Hi: 10, Slots: 2}}
	if bad.validate() == nil {
		t.Fatal("range gap accepted")
	}
	bad = good
	bad.Slots = 7
	if bad.validate() == nil {
		t.Fatal("slot total mismatch accepted")
	}
	bad = good
	bad.Hub = 10
	if bad.validate() == nil {
		t.Fatal("out-of-range hub accepted")
	}
}

func TestIsSetDir(t *testing.T) {
	g := mustGraph(gen.Path(32))
	dir := t.TempDir()
	if IsSetDir(dir) {
		t.Fatal("empty dir reported as shard set")
	}
	if _, err := Write(g, dir, 2); err != nil {
		t.Fatal(err)
	}
	if !IsSetDir(dir) {
		t.Fatal("shard-set dir not recognized")
	}
	file := filepath.Join(dir, ManifestName)
	if IsSetDir(file) {
		t.Fatal("plain file reported as shard set")
	}
	if _, err := os.Stat(file); err != nil {
		t.Fatal(err)
	}
}

func TestOwnerOf(t *testing.T) {
	ranges := []parallel.Range{{Lo: 0, Hi: 3}, {Lo: 3, Hi: 3}, {Lo: 3, Hi: 10}}
	for _, tc := range []struct {
		v    uint32
		want int
	}{{0, 0}, {2, 0}, {3, 2}, {9, 2}} {
		if got := OwnerOf(ranges, tc.v); got != tc.want {
			t.Fatalf("OwnerOf(%d) = %d, want %d", tc.v, got, tc.want)
		}
	}
}

func TestGraphSourceClampsShardCount(t *testing.T) {
	g := mustGraph(gen.Path(3))
	gs := NewGraphSource(g, 100)
	if gs.Shards() > 3 {
		t.Fatalf("%d shards for 3 vertices", gs.Shards())
	}
	total := 0
	for i := 0; i < gs.Shards(); i++ {
		sl, err := gs.Slice(i)
		if err != nil {
			t.Fatal(err)
		}
		total += sl.NumLocal()
	}
	if total != 3 {
		t.Fatalf("shards cover %d vertices, want 3", total)
	}
}
