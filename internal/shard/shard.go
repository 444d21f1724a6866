// Package shard partitions a graph into vertex-range CSR shards — each its
// own binary file with its own memory mapping — and provides the per-shard
// building blocks of the out-of-core solver: the on-disk manifest, the
// boundary-exchange codec (codec.go), and the per-shard Node state machine
// (node.go). The scheduler that drives N nodes to global convergence lives
// in internal/dist.
//
// Cut points are chosen by balanced *edge* count (parallel.PartitionEdges),
// not vertex count: on the skewed-degree inputs this repository targets, a
// vertex-balanced cut would hand the hub shard a large majority of the
// adjacency and serialize the whole pipeline behind it.
package shard

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"thriftylp/graph"
	"thriftylp/internal/parallel"
)

// ManifestSchema identifies the manifest format; bump on breaking change.
const ManifestSchema = "thriftylp/shard-manifest/v1"

// ManifestName is the manifest's file name inside a shard directory. Its
// presence is how loaders distinguish a shard directory from a plain path.
const ManifestName = "manifest.json"

// Info describes one shard file within a set.
type Info struct {
	// File is the shard's file name, relative to the manifest's directory.
	File string `json:"file"`
	// Lo, Hi bound the shard's owned global vertex range [Lo, Hi).
	Lo uint32 `json:"lo"`
	Hi uint32 `json:"hi"`
	// Slots is the shard's directed adjacency slot count.
	Slots int64 `json:"slots"`
}

// Manifest is the metadata tying a directory of CSR slices back into one
// graph: the global shape plus the contiguous vertex ranges of the slices.
type Manifest struct {
	Schema string `json:"schema"`
	// Vertices is |V| of the full graph.
	Vertices int `json:"vertices"`
	// Slots is the total directed adjacency slot count across shards.
	Slots int64 `json:"slots"`
	// Hub is the global max-degree vertex — where Zero Planting puts label 0.
	Hub uint32 `json:"hub"`
	// Shards lists the slices in vertex order; ranges tile [0, Vertices).
	Shards []Info `json:"shards"`
}

// validate checks that the manifest's ranges tile [0, Vertices) and its
// totals are consistent.
func (m *Manifest) validate() error {
	if m.Schema != ManifestSchema {
		return fmt.Errorf("shard: manifest schema %q, want %q", m.Schema, ManifestSchema)
	}
	if m.Vertices < 0 || len(m.Shards) == 0 && m.Vertices != 0 {
		return fmt.Errorf("shard: manifest has %d vertices across %d shards", m.Vertices, len(m.Shards))
	}
	if m.Vertices > 0 && int64(m.Hub) >= int64(m.Vertices) {
		return fmt.Errorf("shard: manifest hub %d out of range [0,%d)", m.Hub, m.Vertices)
	}
	want := uint32(0)
	var slots int64
	for i, s := range m.Shards {
		if s.Lo != want || s.Hi < s.Lo {
			return fmt.Errorf("shard: shard %d covers [%d,%d), want lo %d", i, s.Lo, s.Hi, want)
		}
		if s.Slots < 0 {
			return fmt.Errorf("shard: shard %d has negative slot count %d", i, s.Slots)
		}
		want = s.Hi
		slots += s.Slots
	}
	if int64(want) != int64(m.Vertices) {
		return fmt.Errorf("shard: shards cover [0,%d), want [0,%d)", want, m.Vertices)
	}
	if slots != m.Slots {
		return fmt.Errorf("shard: shard slot counts sum to %d, manifest claims %d", slots, m.Slots)
	}
	return nil
}

// Ranges returns the shards' vertex ranges in order.
func (m *Manifest) Ranges() []parallel.Range {
	rs := make([]parallel.Range, len(m.Shards))
	for i, s := range m.Shards {
		rs[i] = parallel.Range{Lo: s.Lo, Hi: s.Hi}
	}
	return rs
}

// WriteManifest writes m into dir.
func WriteManifest(dir string, m *Manifest) error {
	if err := m.validate(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, ManifestName), append(data, '\n'), 0o644)
}

// ReadManifest reads and validates dir's manifest.
func ReadManifest(dir string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("shard: parsing manifest: %w", err)
	}
	if err := m.validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// IsSetDir reports whether path is a shard-set directory (a directory
// containing a manifest file). Loaders use it to dispatch between the
// single-CSR and sharded paths.
func IsSetDir(path string) bool {
	st, err := os.Stat(path)
	if err != nil || !st.IsDir() {
		return false
	}
	_, err = os.Stat(filepath.Join(path, ManifestName))
	return err == nil
}

// ShardFileName returns the canonical file name of shard i.
func ShardFileName(i int) string { return fmt.Sprintf("shard-%03d.csr", i) }

// partition cuts the vertices of a CSR offsets array into k edge-balanced
// ranges, with k clamped to [1, |V|]; an empty graph has no ranges.
func partition(offsets []int64, k int) []parallel.Range {
	n := len(offsets) - 1
	if n <= 0 {
		return nil
	}
	return parallel.PartitionEdges(offsets, min(max(k, 1), n))
}

// Write partitions g into k edge-balanced vertex-range shards, writes each
// as a CSR slice file in dir (created if needed) plus the manifest, and
// returns the manifest. Every slice's offsets pass graph.CheckOffsets64
// before a byte is written — the sharded path's guard against silent
// narrowing past the 2^31-edge boundary.
func Write(g *graph.Graph, dir string, k int) (*Manifest, error) {
	n := g.NumVertices()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	m := &Manifest{Schema: ManifestSchema, Vertices: n, Slots: g.NumDirectedEdges()}
	if n > 0 {
		m.Hub = g.MaxDegreeVertex()
	}
	for i, p := range partition(g.Offsets(), k) {
		s, err := graph.SliceFromGraph(g, p.Lo, p.Hi)
		if err != nil {
			return nil, err
		}
		file := ShardFileName(i)
		if err := graph.SaveCSRSlice(filepath.Join(dir, file), s); err != nil {
			return nil, err
		}
		m.Shards = append(m.Shards, Info{File: file, Lo: p.Lo, Hi: p.Hi, Slots: s.NumSlots()})
	}
	if err := WriteManifest(dir, m); err != nil {
		return nil, err
	}
	return m, nil
}

// Source abstracts where shards come from, so the solver is indifferent to
// on-disk sets (the out-of-core path) versus in-memory views over a loaded
// graph (the cc.AlgoShard path and the equivalence tests). Slice(i) hands
// out shard i's adjacency; Release returns it — for mapped sets that unmaps
// the file, which is what keeps at most one shard's adjacency resident
// during the collapse phase.
type Source interface {
	// Vertices returns the global |V|.
	Vertices() int
	// Hub returns the global max-degree vertex; undefined when Vertices()==0.
	Hub() uint32
	// Shards returns the shard count.
	Shards() int
	// Ranges returns the shards' vertex ranges in order, tiling [0, |V|).
	Ranges() []parallel.Range
	// Slice returns shard i's CSR slice.
	Slice(i int) (*graph.CSRSlice, error)
	// Release returns a slice obtained from Slice.
	Release(s *graph.CSRSlice) error
}

// Set is an on-disk shard set: a directory of CSR slice files plus a
// manifest. It implements Source with one independent mmap per Slice call.
type Set struct {
	Dir      string
	Manifest *Manifest
}

// Open opens the shard set in dir, validating the manifest (its ranges
// tile [0, Vertices) and its slot counts add up) and checking that each
// slice file is at least as large as its manifest entry needs, which bounds
// Vertices by the bytes on disk. It reads no slice file: Slice checks each
// slice's header against the manifest and runs the structural validation
// when it loads the slice.
func Open(dir string) (*Set, error) {
	m, err := ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	// Callers size per-vertex state from Vertices before loading a slice,
	// so bound the manifest's claims by the bytes on disk: each slice file
	// must hold the header and payload its range and slot count need.
	for _, info := range m.Shards {
		st, err := os.Stat(filepath.Join(dir, info.File))
		if err != nil {
			return nil, err
		}
		need := graph.CSRSliceFileSize(uint64(info.Hi-info.Lo), uint64(info.Slots))
		if need < 0 || st.Size() < need {
			return nil, fmt.Errorf("shard: %s holds %d bytes, manifest range [%d,%d) with %d slots needs %d",
				info.File, st.Size(), info.Lo, info.Hi, info.Slots, need)
		}
	}
	return &Set{Dir: dir, Manifest: m}, nil
}

// Vertices implements Source.
func (s *Set) Vertices() int { return s.Manifest.Vertices }

// Hub implements Source.
func (s *Set) Hub() uint32 { return s.Manifest.Hub }

// Shards implements Source.
func (s *Set) Shards() int { return len(s.Manifest.Shards) }

// Ranges implements Source.
func (s *Set) Ranges() []parallel.Range { return s.Manifest.Ranges() }

// Slice implements Source: it loads (and on capable hosts maps) shard i,
// cross-checking the slice header against the manifest entry.
func (s *Set) Slice(i int) (*graph.CSRSlice, error) {
	info := s.Manifest.Shards[i]
	sl, err := graph.LoadCSRSlice(filepath.Join(s.Dir, info.File))
	if err != nil {
		return nil, err
	}
	if sl.Lo != info.Lo || sl.Hi != info.Hi || sl.NumSlots() != info.Slots ||
		sl.GlobalVertices != s.Manifest.Vertices {
		// Capture the header before Close: afterwards the slice must not
		// be touched (mmapsafe), and on mapped hosts the fields alias the
		// unmapped region.
		gv, lo, hi, slots := sl.GlobalVertices, sl.Lo, sl.Hi, sl.NumSlots()
		sl.Close()
		return nil, fmt.Errorf("shard: %s header {%d [%d,%d) %d slots} disagrees with manifest {%d [%d,%d) %d slots}",
			info.File, gv, lo, hi, slots,
			s.Manifest.Vertices, info.Lo, info.Hi, info.Slots)
	}
	return sl, nil
}

// Release implements Source by unmapping the slice.
func (s *Set) Release(sl *graph.CSRSlice) error { return sl.Close() }

// GraphSource adapts an in-memory graph to Source: slices are views over the
// graph's own CSR arrays, so Slice allocates only the rebased offsets and
// Release is a no-op.
type GraphSource struct {
	g     *graph.Graph
	parts []parallel.Range
}

// NewGraphSource partitions g into k edge-balanced ranges and returns the
// in-memory source over them.
func NewGraphSource(g *graph.Graph, k int) *GraphSource {
	return &GraphSource{g: g, parts: partition(g.Offsets(), k)}
}

// Vertices implements Source.
func (gs *GraphSource) Vertices() int { return gs.g.NumVertices() }

// Hub implements Source.
func (gs *GraphSource) Hub() uint32 { return gs.g.MaxDegreeVertex() }

// Shards implements Source.
func (gs *GraphSource) Shards() int { return len(gs.parts) }

// Ranges implements Source.
func (gs *GraphSource) Ranges() []parallel.Range {
	return append([]parallel.Range(nil), gs.parts...)
}

// Slice implements Source with a view over the graph's storage.
func (gs *GraphSource) Slice(i int) (*graph.CSRSlice, error) {
	p := gs.parts[i]
	return graph.SliceFromGraph(gs.g, p.Lo, p.Hi)
}

// Release implements Source; views borrow the graph's storage, nothing to do.
func (gs *GraphSource) Release(*graph.CSRSlice) error { return nil }

// OwnerOf returns the index of the range containing global vertex u, by
// binary search over the sorted contiguous ranges.
func OwnerOf(ranges []parallel.Range, u uint32) int {
	return sort.Search(len(ranges), func(i int) bool { return ranges[i].Hi > u })
}
