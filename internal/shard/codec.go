package shard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// Boundary-exchange wire format. A message from one shard to another is a
// batch of (vertex, label) pairs: "vertex v of yours is adjacent to one of
// my components whose label is now l". Batches are sorted by vertex and
// encoded as
//
//	uvarint count
//	count × { uvarint vertexDelta, uvarint label }
//
// where the first vertexDelta is relative to the destination shard's Lo and
// each subsequent one to the previous vertex. Sorted ids make the deltas
// small; hub-component labels are literally 0, so the common suppressing
// message costs two bytes. NaivePairBytes is the flat encoding a
// no-compaction exchange would use — the denominator the compacted traffic
// is measured against.

// Pair is one decoded exchange message: global vertex V receives label L.
type Pair struct {
	V, L uint32
}

// NaivePairBytes is the per-pair cost of a naive fixed-width boundary
// exchange: a 4-byte vertex id plus a 4-byte label, shipped every round for
// every boundary entry whether or not anything changed.
const NaivePairBytes = 8

// encodePairs writes the count header and delta-encoded pairs into dst and
// returns the bytes written. pairs must be sorted by vertex with distinct
// vertices, each at least base, the destination shard's Lo; dst must have
// room for them (Node.Emit sizes it exactly with uvarintLen).
// This is the per-round exchange encode loop; it runs once per outgoing
// batch per round, so it stays free of allocation and formatting.
//
//thrifty:hotpath
func encodePairs(dst []byte, base uint32, pairs []Pair) int {
	n := binary.PutUvarint(dst, uint64(len(pairs)))
	prev := base
	for _, p := range pairs {
		n += binary.PutUvarint(dst[n:], uint64(p.V-prev))
		n += binary.PutUvarint(dst[n:], uint64(p.L))
		prev = p.V
	}
	return n
}

// uvarintLen is the number of bytes binary.PutUvarint writes for x.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// DecodePairs decodes a batch encoded by encodePairs, invoking fn for every
// pair in ascending vertex order. hi bounds the vertex ids (the destination
// shard's Hi); a batch decoding outside [base, hi) or truncating mid-pair is
// reported as an error rather than applied. The decode loop is the hot half
// of every exchange round — error construction lives in the cold helpers
// below so the loop itself never touches fmt.
//
//thrifty:hotpath
func DecodePairs(data []byte, base, hi uint32, fn func(v, label uint32)) error {
	count, n := binary.Uvarint(data)
	if n <= 0 {
		return errCorruptHeader
	}
	data = data[n:]
	v := uint64(base)
	for i := uint64(0); i < count; i++ {
		delta, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated(i, count)
		}
		data = data[n:]
		label, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated(i, count)
		}
		data = data[n:]
		v += delta
		if v >= uint64(hi) || label > uint64(^uint32(0)) {
			return errOutsideRange(v, label, base, hi)
		}
		fn(uint32(v), uint32(label))
	}
	if len(data) != 0 {
		return errTrailing(len(data))
	}
	return nil
}

// Cold error constructors for DecodePairs. The strings are frozen by the
// errfreeze analyzer (internal/lint/errfreeze/frozen.go); change them there
// in the same commit or the lint gate fails.
var errCorruptHeader = errors.New("shard: corrupt exchange batch header")

func errTruncated(i, count uint64) error {
	return fmt.Errorf("shard: exchange batch truncated at pair %d of %d", i, count)
}

func errOutsideRange(v, label uint64, base, hi uint32) error {
	return fmt.Errorf("shard: exchange pair (%d,%d) outside shard range [%d,%d)", v, label, base, hi)
}

func errTrailing(n int) error {
	return fmt.Errorf("shard: %d trailing bytes after exchange batch", n)
}
