package graph

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"thriftylp/internal/atomicx"
	"thriftylp/internal/parallel"
)

// Vertex-range CSR slice format: the on-disk unit of the sharded execution
// path (internal/shard). A slice holds the adjacency rows of one contiguous
// global vertex range [Lo, Hi): offsets are local (slice-relative, starting
// at 0) while neighbour ids stay global, so a slice can be solved against
// the rest of the graph without any id translation table. Each slice is its
// own file with its own memory mapping — the whole point is that no single
// mmap (and no single allocation) ever spans the full graph.

const (
	sliceMagic   = 0x54485348 // "THSH"
	sliceVersion = 1
	// sliceHeaderSize is the fixed slice header: magic, version, global |V|,
	// lo, hi, directed slot count — 8 bytes each. 48 bytes keeps the mapped
	// offsets array 8-byte aligned and the adjacency array 4-byte aligned.
	sliceHeaderSize = 48
)

// CSRSlice is the adjacency of one contiguous vertex range [Lo, Hi) of a
// larger graph. Offsets is local with Offsets[0] == 0 and len Hi-Lo+1; Adj
// holds global neighbour ids (which may point anywhere in [0, GlobalVertices)).
// The zero value is an empty slice of an empty graph.
type CSRSlice struct {
	// GlobalVertices is |V| of the full graph the slice was cut from.
	GlobalVertices int
	// Lo, Hi bound the owned global vertex range [Lo, Hi).
	Lo, Hi uint32
	// Offsets indexes Adj: vertex Lo+i's row is Adj[Offsets[i]:Offsets[i+1]].
	Offsets []int64
	// Adj holds global neighbour ids.
	Adj []uint32

	mapped    []byte // non-nil when Offsets/Adj alias an mmap region
	closeGate atomicx.Int32
}

// NumLocal returns the number of vertices the slice owns (Hi - Lo).
func (s *CSRSlice) NumLocal() int { return int(s.Hi - s.Lo) }

// NumSlots returns the number of directed adjacency slots the slice holds.
func (s *CSRSlice) NumSlots() int64 { return int64(len(s.Adj)) }

// Mapped reports whether the slice's arrays alias a memory-mapped file.
func (s *CSRSlice) Mapped() bool { return s.mapped != nil }

// Row returns the adjacency row of global vertex v, which must lie in
// [Lo, Hi). The returned slice aliases the slice's storage.
func (s *CSRSlice) Row(v uint32) []uint32 {
	i := v - s.Lo
	return s.Adj[s.Offsets[i]:s.Offsets[i+1]]
}

// Close releases the memory mapping backing a loaded slice; it is a no-op
// for heap-backed slices and idempotent under concurrent callers (the same
// contract as Graph.Close). After Close the Offsets/Adj arrays of a mapped
// slice must not be used.
func (s *CSRSlice) Close() error {
	if !s.closeGate.CompareAndSwap(0, 1) {
		return nil
	}
	m := s.mapped
	if m == nil {
		return nil
	}
	s.mapped = nil
	s.Offsets = nil
	s.Adj = nil
	return munmapBytes(m)
}

// CheckOffsets64 is the overflow audit every shard writer runs before
// emitting a CSR slice: offsets must be a monotone int64 prefix-sum starting
// at 0 and ending at slots, with byte sizes that survive the 8x/4x scaling
// to file positions and per-vertex degrees that fit the uint32 counters the
// streamed builders use. It exists because the sharded path does arithmetic
// on rebased offsets (global - base) where a silent int or uint32 narrowing
// past 2^31 edges would corrupt the file without failing; every boundary is
// checked here once instead of trusted at each call site.
//
// The audit is the shared checker's chunked offsets pass, so it also
// returns the local index of the vertex of maximum degree, the smallest
// among ties (0 when offsets holds no vertex).
func CheckOffsets64(offsets []int64, slots int64) (hub uint32, err error) {
	if len(offsets) == 0 {
		return 0, errors.New("graph: empty offsets array")
	}
	if offsets[0] != 0 {
		return 0, fmt.Errorf("graph: offsets[0] = %d, want 0", offsets[0])
	}
	if slots < 0 {
		return 0, fmt.Errorf("graph: negative slot count %d", slots)
	}
	n := len(offsets) - 1
	bad, maxV, maxDeg := scanOffsets(parallel.Default(), offsets)
	if bad >= 0 || maxDeg > int64(math.MaxUint32) {
		// Recompute the first offender of either kind, in vertex order.
		for v := 0; v < n; v++ {
			if offsets[v+1] < offsets[v] {
				return 0, fmt.Errorf("graph: offsets not monotone at vertex %d", v)
			}
			if d := offsets[v+1] - offsets[v]; d > int64(math.MaxUint32) {
				return 0, fmt.Errorf("graph: vertex %d degree %d exceeds the uint32 range", v, d)
			}
		}
	}
	if offsets[n] != slots {
		return 0, fmt.Errorf("graph: offsets[%d] = %d, want slot count %d", n, offsets[n], slots)
	}
	// The byte positions 8*(n+1) and 4*slots are computed in int64 by the
	// writers; reject inputs where that scaling itself would overflow.
	if int64(len(offsets)) > math.MaxInt64/8 || slots > math.MaxInt64/4-sliceHeaderSize {
		return 0, fmt.Errorf("graph: offsets byte size overflows (%d entries, %d slots)", len(offsets), slots)
	}
	return uint32(maxV), nil
}

// WriteCSRSlice writes s in the slice binary format. The slice is validated
// (CheckOffsets64 plus range checks) before the first byte is written.
func WriteCSRSlice(w io.Writer, s *CSRSlice) error {
	if err := validateSliceShape(s.GlobalVertices, s.Lo, s.Hi, s.Offsets, int64(len(s.Adj))); err != nil {
		return err
	}
	var hdr [sliceHeaderSize]byte
	binary.LittleEndian.PutUint64(hdr[0:], sliceMagic)
	binary.LittleEndian.PutUint64(hdr[8:], sliceVersion)
	binary.LittleEndian.PutUint64(hdr[16:], uint64(s.GlobalVertices))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(s.Lo))
	binary.LittleEndian.PutUint64(hdr[32:], uint64(s.Hi))
	binary.LittleEndian.PutUint64(hdr[40:], uint64(len(s.Adj)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if err := writeInt64s(w, s.Offsets); err != nil {
		return err
	}
	return writeUint32s(w, s.Adj)
}

// SaveCSRSlice writes s to the named file.
func SaveCSRSlice(path string, s *CSRSlice) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := WriteCSRSlice(bw, s); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// validateSliceShape checks the structural invariants of a slice's metadata
// and offsets without touching the adjacency payload.
func validateSliceShape(globalV int, lo, hi uint32, offsets []int64, slots int64) error {
	if globalV < 0 || int64(hi) > int64(globalV) || lo > hi {
		return fmt.Errorf("graph: slice range [%d,%d) invalid for %d vertices", lo, hi, globalV)
	}
	if len(offsets) != int(hi-lo)+1 {
		return fmt.Errorf("graph: slice has %d offsets for range [%d,%d)", len(offsets), lo, hi)
	}
	_, err := CheckOffsets64(offsets, slots)
	return err
}

// readSliceHeader reads and sanity-checks the fixed slice header.
func readSliceHeader(r io.Reader) (globalV uint64, lo, hi uint32, slots uint64, err error) {
	var raw [sliceHeaderSize]byte
	if _, err := io.ReadFull(r, raw[:]); err != nil {
		return 0, 0, 0, 0, fmt.Errorf("graph: reading slice header: %w", err)
	}
	magic := binary.LittleEndian.Uint64(raw[0:])
	version := binary.LittleEndian.Uint64(raw[8:])
	globalV = binary.LittleEndian.Uint64(raw[16:])
	rawLo := binary.LittleEndian.Uint64(raw[24:])
	rawHi := binary.LittleEndian.Uint64(raw[32:])
	slots = binary.LittleEndian.Uint64(raw[40:])
	if magic != sliceMagic {
		return 0, 0, 0, 0, fmt.Errorf("graph: bad magic %#x", magic)
	}
	if version != sliceVersion {
		return 0, 0, 0, 0, fmt.Errorf("graph: unsupported version %d", version)
	}
	if globalV > uint64(^uint32(0)) {
		return 0, 0, 0, 0, fmt.Errorf("graph: header claims %d vertices, above the uint32 id space", globalV)
	}
	if rawLo > rawHi || rawHi > globalV {
		return 0, 0, 0, 0, fmt.Errorf("graph: slice header range [%d,%d) invalid for %d vertices", rawLo, rawHi, globalV)
	}
	if binPayloadSize(rawHi-rawLo, slots) < 0 {
		return 0, 0, 0, 0, fmt.Errorf("graph: header sizes overflow (%d vertices, %d slots)", rawHi-rawLo, slots)
	}
	return globalV, uint32(rawLo), uint32(rawHi), slots, nil
}

// CSRSliceFileSize returns the byte size of a slice file over n vertices
// and m directed slots, header included, or -1 on overflow: the least a
// file must hold before a loader may trust a claim of that shape.
func CSRSliceFileSize(n, m uint64) int64 {
	p := binPayloadSize(n, m)
	if p < 0 || p > 1<<63-1-sliceHeaderSize {
		return -1
	}
	return sliceHeaderSize + p
}

// LoadCSRSlice reads a slice written by WriteCSRSlice. On little-endian
// hosts with mmap support the offsets and adjacency arrays alias the page
// cache (the returned slice owns the mapping; call Close); elsewhere the
// portable chunked-read path runs. Both paths validate the header against
// the file size before allocation and the structural invariants (monotone
// local offsets spanning the adjacency, global-range ids) after.
func LoadCSRSlice(path string) (*CSRSlice, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if mmapSupported && hostLittleEndian && st.Mode().IsRegular() && st.Size() >= sliceHeaderSize {
		s, err := loadSliceMmap(f, path, st.Size())
		if err == nil {
			return s, nil
		}
		if !errors.Is(err, errMmapFallback) {
			return nil, err
		}
	}
	globalV, lo, hi, slots, err := readSliceHeader(f)
	if err != nil {
		return nil, err
	}
	if need := binPayloadSize(uint64(hi-lo), slots); st.Mode().IsRegular() && need > st.Size()-sliceHeaderSize {
		return nil, fmt.Errorf(
			"graph: %s: header claims %d vertices and %d slots (%d payload bytes) but file holds %d",
			path, hi-lo, slots, need, st.Size()-sliceHeaderSize)
	}
	br := bufio.NewReaderSize(f, 1<<20)
	offsets, err := readInt64s(br, uint64(hi-lo)+1)
	if err != nil {
		return nil, fmt.Errorf("graph: %s: reading offsets: %w", path, err)
	}
	adj, err := readUint32s(br, slots)
	if err != nil {
		return nil, fmt.Errorf("graph: %s: reading adjacency: %w", path, err)
	}
	s := &CSRSlice{GlobalVertices: int(globalV), Lo: lo, Hi: hi, Offsets: offsets, Adj: adj}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// loadSliceMmap is the zero-copy LoadCSRSlice path; see loadBinaryMmap for
// the contract. The 48-byte header keeps both aliases aligned.
func loadSliceMmap(f *os.File, path string, size int64) (*CSRSlice, error) {
	data, err := mmapFile(f, size)
	if err != nil {
		return nil, errMmapFallback
	}
	ok := false
	defer func() {
		if !ok {
			munmapBytes(data)
		}
	}()
	globalV, lo, hi, slots, err := readSliceHeader(bytes.NewReader(data[:sliceHeaderSize]))
	if err != nil {
		return nil, err
	}
	need := binPayloadSize(uint64(hi-lo), slots)
	if need > size-sliceHeaderSize {
		return nil, fmt.Errorf(
			"graph: %s: header claims %d vertices and %d slots (%d payload bytes) but file holds %d",
			path, hi-lo, slots, need, size-sliceHeaderSize)
	}
	offEnd := sliceHeaderSize + int64(8*(uint64(hi-lo)+1))
	offsets := int64sFromBytes(data[sliceHeaderSize:offEnd])
	var adj []uint32
	if slots > 0 {
		adj = uint32sFromBytes(data[offEnd : offEnd+int64(4*slots)])
	}
	s := &CSRSlice{GlobalVertices: int(globalV), Lo: lo, Hi: hi, Offsets: offsets, Adj: adj, mapped: data}
	if err := s.validate(); err != nil {
		return nil, err
	}
	ok = true
	return s, nil
}

// validate checks a loaded slice's structural invariants: the offsets audit
// plus global-range neighbour ids. Symmetry cannot be audited locally — a
// slice sees only its own rows — so that remains the shard set loader's
// cross-slice responsibility (internal/shard verifies slot totals against
// the manifest).
func (s *CSRSlice) validate() error {
	if err := validateSliceShape(s.GlobalVertices, s.Lo, s.Hi, s.Offsets, int64(len(s.Adj))); err != nil {
		return err
	}
	n := s.GlobalVertices
	if i := firstOutOfRange(parallel.Default(), s.Adj, n); i >= 0 {
		return fmt.Errorf("graph: adjacency slot %d references vertex %d out of range [0,%d)", i, s.Adj[i], n)
	}
	return nil
}

// SliceFromGraph returns the CSR slice of g covering [lo, hi) as views over
// g's storage — no copying. The returned slice's Offsets alias g's offsets
// array rebased lazily via SliceOffsets, so it allocates only the rebased
// offsets (8 bytes per owned vertex); Adj aliases g's adjacency directly.
func SliceFromGraph(g *Graph, lo, hi uint32) (*CSRSlice, error) {
	n := g.NumVertices()
	if int64(hi) > int64(n) || lo > hi {
		return nil, fmt.Errorf("graph: slice range [%d,%d) invalid for %d vertices", lo, hi, n)
	}
	base := g.offsets[lo]
	offsets := make([]int64, int(hi-lo)+1)
	for i := range offsets {
		offsets[i] = g.offsets[int(lo)+i] - base
	}
	return &CSRSlice{
		GlobalVertices: n,
		Lo:             lo,
		Hi:             hi,
		Offsets:        offsets,
		Adj:            g.adj[base:g.offsets[hi]],
	}, nil
}
