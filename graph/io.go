package graph

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"thriftylp/internal/parallel"
)

// Text edge-list format: one "u v" pair per line, whitespace separated,
// '#' or '%' prefixed lines are comments. Binary CSR format: a fixed header
// (magic, version, |V|, directed slot count) followed by the little-endian
// offsets and adjacency arrays; loading a binary CSR skips edge-list
// re-symmetrization entirely, which is how the large generated datasets are
// shipped between cmd/graphgen and the benchmark tools.

const (
	binMagic   = 0x54484c50 // "THLP"
	binVersion = 1
)

// WriteEdgeList writes g as a text edge list with one line per undirected
// edge (u <= v). Lines are formatted with strconv.AppendUint into a reused
// buffer, so the per-edge cost is two integer conversions and a copy — no
// fmt state machine and no per-line allocation.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	fmt.Fprintf(bw, "# thriftylp edge list: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())
	buf := make([]byte, 0, 32)
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range g.Neighbors(uint32(v)) {
			if uint32(v) <= u {
				buf = strconv.AppendUint(buf[:0], uint64(v), 10)
				buf = append(buf, ' ')
				buf = strconv.AppendUint(buf, uint64(u), 10)
				buf = append(buf, '\n')
				if _, err := bw.Write(buf); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// ReadEdgeList parses a text edge list and builds an undirected graph with
// the supplied build options. The whole input is read into one buffer
// (pre-sized from the file length when the reader is a regular file) and
// parsed with the sharded parser in parse.go.
func ReadEdgeList(r io.Reader, opts ...BuildOption) (*Graph, error) {
	data, err := readAll(r)
	if err != nil {
		return nil, err
	}
	edges, err := parseEdgeList(data, nil)
	if err != nil {
		return nil, err
	}
	return BuildUndirected(edges, opts...)
}

// readAll slurps r, pre-sizing the buffer from Stat when r is a regular
// file so the read happens into one allocation instead of the doubling
// growth of a bare io.ReadAll.
func readAll(r io.Reader) ([]byte, error) {
	var buf bytes.Buffer
	if f, ok := r.(*os.File); ok {
		if st, err := f.Stat(); err == nil && st.Mode().IsRegular() {
			if pos, err := f.Seek(0, io.SeekCurrent); err == nil && st.Size() > pos {
				// +1 spares ReadFrom's final probe-for-EOF grow.
				buf.Grow(int(st.Size()-pos) + 1)
			}
		}
	}
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// WriteBinary writes g in the binary CSR format. On little-endian hosts the
// offsets and adjacency arrays are emitted as two bulk byte views of the
// in-memory arrays; other hosts convert through a chunked staging buffer.
func WriteBinary(w io.Writer, g *Graph) error {
	var hdr [binHeaderSize]byte
	binary.LittleEndian.PutUint64(hdr[0:], binMagic)
	binary.LittleEndian.PutUint64(hdr[8:], binVersion)
	binary.LittleEndian.PutUint64(hdr[16:], uint64(g.NumVertices()))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(len(g.adj)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if err := writeInt64s(w, g.offsets); err != nil {
		return err
	}
	return writeUint32s(w, g.adj)
}

// writeInt64s emits s little-endian: zero-copy on little-endian hosts, via
// a chunked conversion buffer elsewhere.
func writeInt64s(w io.Writer, s []int64) error {
	if len(s) == 0 {
		return nil
	}
	if hostLittleEndian {
		_, err := w.Write(int64sAsBytes(s))
		return err
	}
	buf := make([]byte, 8*minU64(uint64(len(s)), readChunkCap))
	for len(s) > 0 {
		k := minU64(uint64(len(s)), readChunkCap)
		for i := 0; i < k; i++ {
			binary.LittleEndian.PutUint64(buf[8*i:], uint64(s[i]))
		}
		if _, err := w.Write(buf[:8*k]); err != nil {
			return err
		}
		s = s[k:]
	}
	return nil
}

// writeUint32s emits s little-endian: zero-copy on little-endian hosts, via
// a chunked conversion buffer elsewhere.
func writeUint32s(w io.Writer, s []uint32) error {
	if len(s) == 0 {
		return nil
	}
	if hostLittleEndian {
		_, err := w.Write(uint32sAsBytes(s))
		return err
	}
	buf := make([]byte, 4*minU64(uint64(len(s)), readChunkCap))
	for len(s) > 0 {
		k := minU64(uint64(len(s)), readChunkCap)
		for i := 0; i < k; i++ {
			binary.LittleEndian.PutUint32(buf[4*i:], s[i])
		}
		if _, err := w.Write(buf[:4*k]); err != nil {
			return err
		}
		s = s[k:]
	}
	return nil
}

// binHeaderSize is the fixed binary CSR header: magic, version, |V|,
// directed slot count, 8 bytes each.
const binHeaderSize = 32

// binPayloadSize returns the byte size of the offsets + adjacency payload
// for a graph with n vertices and m directed slots, or -1 on overflow. Used
// to validate untrusted headers against a known input size before
// allocating anything.
func binPayloadSize(n, m uint64) int64 {
	const maxInt64 = 1<<63 - 1
	if n >= maxInt64/8-1 || m >= maxInt64/4 {
		return -1
	}
	off := 8 * (n + 1)
	adj := 4 * m
	if off > maxInt64-adj {
		return -1
	}
	return int64(off + adj)
}

// readBinaryHeader reads and sanity-checks the fixed header, returning the
// claimed vertex and directed-slot counts.
func readBinaryHeader(r io.Reader) (n, m uint64, err error) {
	var raw [binHeaderSize]byte
	if _, err := io.ReadFull(r, raw[:]); err != nil {
		return 0, 0, fmt.Errorf("graph: reading binary header: %w", err)
	}
	magic := binary.LittleEndian.Uint64(raw[0:])
	version := binary.LittleEndian.Uint64(raw[8:])
	n = binary.LittleEndian.Uint64(raw[16:])
	m = binary.LittleEndian.Uint64(raw[24:])
	if magic != binMagic {
		return 0, 0, fmt.Errorf("graph: bad magic %#x", magic)
	}
	if version != binVersion {
		return 0, 0, fmt.Errorf("graph: unsupported version %d", version)
	}
	// CSR indices are int and vertex ids uint32; anything larger cannot
	// have been written by WriteBinary and is a corrupt or hostile header.
	if n > uint64(^uint32(0)) {
		return 0, 0, fmt.Errorf("graph: header claims %d vertices, above the uint32 id space", n)
	}
	if binPayloadSize(n, m) < 0 {
		return 0, 0, fmt.Errorf("graph: header sizes overflow (%d vertices, %d slots)", n, m)
	}
	return n, m, nil
}

// readChunkCap bounds how much memory a single allocation step may commit
// before the bytes backing it have actually been read: headers are
// untrusted, so slices grow incrementally as data arrives instead of
// trusting the claimed element count up front. 4Mi elements ≈ 16–32 MiB.
const readChunkCap = 4 << 20

// ReadBinary reads a graph written by WriteBinary, validating the CSR
// invariants before returning it.
//
// The input is treated as untrusted: header counts are range- and
// overflow-checked, and the offsets/adjacency arrays are allocated
// incrementally while the stream delivers bytes, so a corrupt or hostile
// header claiming huge counts fails with ErrUnexpectedEOF after reading at
// most the real input — it cannot force an allocation proportional to the
// claim. Readers with a known size (files) get a cheaper up-front check via
// LoadBinary.
func ReadBinary(r io.Reader) (*Graph, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	n, m, err := readBinaryHeader(br)
	if err != nil {
		return nil, err
	}

	offsets, err := readInt64s(br, n+1)
	if err != nil {
		return nil, fmt.Errorf("graph: reading offsets: %w", err)
	}
	adj, err := readUint32s(br, m)
	if err != nil {
		return nil, fmt.Errorf("graph: reading adjacency: %w", err)
	}
	return FromCSR(offsets, adj)
}

// readInt64s reads count little-endian int64s in chunks, growing the result
// only as bytes actually arrive.
func readInt64s(r io.Reader, count uint64) ([]int64, error) {
	out := make([]int64, 0, minU64(count, readChunkCap))
	buf := make([]byte, 8*minU64(count, readChunkCap))
	for done := uint64(0); done < count; {
		k := minU64(count-done, readChunkCap)
		b := buf[:8*k]
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, fmt.Errorf("element %d of %d: %w", done, count, noEOF(err))
		}
		for i := 0; i < k; i++ {
			out = append(out, int64(binary.LittleEndian.Uint64(b[8*i:])))
		}
		done += uint64(k)
	}
	return out, nil
}

// readUint32s reads count little-endian uint32s in chunks, growing the
// result only as bytes actually arrive.
func readUint32s(r io.Reader, count uint64) ([]uint32, error) {
	out := make([]uint32, 0, minU64(count, readChunkCap))
	buf := make([]byte, 4*minU64(count, readChunkCap))
	for done := uint64(0); done < count; {
		k := minU64(count-done, readChunkCap)
		b := buf[:4*k]
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, fmt.Errorf("element %d of %d: %w", done, count, noEOF(err))
		}
		for i := 0; i < k; i++ {
			out = append(out, binary.LittleEndian.Uint32(b[4*i:]))
		}
		done += uint64(k)
	}
	return out, nil
}

func minU64(a, b uint64) int {
	if a < b {
		return int(a)
	}
	return int(b)
}

// noEOF maps io.EOF to ErrUnexpectedEOF: once the header promised more
// elements, a clean EOF mid-array is still a truncation.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// SaveBinary writes g to the named file in binary CSR format.
func SaveBinary(path string, g *Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteBinary(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// errMmapFallback signals that the zero-copy loader could not establish a
// mapping (kernel refusal, special file) and the portable path should run
// instead. It never escapes LoadBinary.
var errMmapFallback = errors.New("graph: mmap unavailable")

// LoadBinary reads a graph from a binary CSR file. Unlike ReadBinary on a
// bare stream, the file size is known, so the header's claimed counts are
// validated against it before any allocation: a corrupt header that
// promises more data than the file holds is rejected up front.
//
// On little-endian hosts with mmap support the offsets and adjacency arrays
// are aliased directly out of the page cache — no copy, no decode loop. The
// returned graph then owns a memory mapping; call Close to release it (see
// Graph.Close). Elsewhere, and whenever the kernel refuses the mapping, the
// portable chunked-read path runs instead. Both paths validate the header
// and the structural CSR invariants (monotone offsets, in-range ids); the
// portable path additionally audits symmetry, as FromCSR always has.
func LoadBinary(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if mmapSupported && hostLittleEndian && st.Mode().IsRegular() && st.Size() >= binHeaderSize {
		g, err := loadBinaryMmap(f, path, st.Size())
		if err == nil {
			return g, nil
		}
		if !errors.Is(err, errMmapFallback) {
			return nil, err
		}
	}
	n, m, err := readBinaryHeader(f)
	if err != nil {
		return nil, err
	}
	if need := binPayloadSize(n, m); st.Mode().IsRegular() && need > st.Size()-binHeaderSize {
		return nil, fmt.Errorf(
			"graph: %s: header claims %d vertices and %d slots (%d payload bytes) but file holds %d",
			path, n, m, need, st.Size()-binHeaderSize)
	}
	br := bufio.NewReaderSize(f, 1<<20)
	offsets, err := readInt64s(br, n+1)
	if err != nil {
		return nil, fmt.Errorf("graph: %s: reading offsets: %w", path, err)
	}
	adj, err := readUint32s(br, m)
	if err != nil {
		return nil, fmt.Errorf("graph: %s: reading adjacency: %w", path, err)
	}
	return FromCSR(offsets, adj)
}

// loadBinaryMmap is the zero-copy LoadBinary path: map the file, validate
// the header against the mapped size, and alias the CSR arrays straight
// from the mapping. The header is 32 bytes and the mapping page-aligned, so
// the offsets alias is 8-byte aligned and the adjacency alias 4-byte
// aligned by construction. Returns errMmapFallback when no mapping can be
// established; any other error is a verdict on the file itself.
func loadBinaryMmap(f *os.File, path string, size int64) (*Graph, error) {
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
	n, m, err := readBinaryHeader(bytes.NewReader(data[:binHeaderSize]))
	if err != nil {
		return nil, err
	}
	need := binPayloadSize(n, m)
	if need > size-binHeaderSize {
		return nil, fmt.Errorf(
			"graph: %s: header claims %d vertices and %d slots (%d payload bytes) but file holds %d",
			path, n, m, need, size-binHeaderSize)
	}
	offEnd := binHeaderSize + int64(8*(n+1))
	offsets := int64sFromBytes(data[binHeaderSize:offEnd])
	var adj []uint32
	if m > 0 {
		adj = uint32sFromBytes(data[offEnd : offEnd+int64(4*m)])
	}
	g := &Graph{offsets: offsets, adj: adj, mapped: data}
	// Structural validation only: monotone offsets spanning the adjacency
	// array and in-range ids — everything memory safety downstream depends
	// on. The O(|E|) symmetry audit is skipped here: binary CSR is this
	// repository's own interchange format and WriteBinary only emits
	// symmetric graphs, while an asymmetric file can skew results but cannot
	// corrupt memory. Untrusted streams (ReadBinary) and raw arrays
	// (FromCSR) still run the full audit; callers wanting it on a mapped
	// graph can invoke Validate themselves.
	hub, err := g.validateStructure(parallel.Default())
	if err != nil {
		return nil, err
	}
	g.maxDeg = hub
	ok = true
	return g, nil
}

// LoadEdgeList reads a graph from a text edge-list file.
func LoadEdgeList(path string, opts ...BuildOption) (*Graph, error) {
	g, _, err := ingestEdgeList(path, opts...)
	return g, err
}

// Load reads a graph from path, dispatching on extension: ".bin" and ".csr"
// use the binary CSR format, anything else is parsed as a text edge list.
func Load(path string, opts ...BuildOption) (*Graph, error) {
	if strings.HasSuffix(path, ".bin") || strings.HasSuffix(path, ".csr") {
		return LoadBinary(path)
	}
	return LoadEdgeList(path, opts...)
}
