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

// NaivePairBytes is the per-pair cost of a naive fixed-width boundary
// exchange: a 4-byte vertex id plus a 4-byte label, shipped every round for
// every boundary entry whether or not anything changed.
const NaivePairBytes = 8

// putPair writes one pair's vertex delta and label at the front of dst and
// returns the bytes written. Node.Emit writes the count header, then one
// putPair per touched target in ascending vertex order, into a batch it has
// sized exactly with uvarintLen.
// This is the per-round exchange encode step, so it stays free of
// allocation and formatting.
//
//thrifty:hotpath
func putPair(dst []byte, delta, label uint32) int {
	n := binary.PutUvarint(dst, uint64(delta))
	return n + binary.PutUvarint(dst[n:], uint64(label))
}

// uvarintLen is the number of bytes binary.PutUvarint writes for x.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// DecodePairs decodes a batch encoded as above, invoking fn for every
// pair in ascending vertex order. hi bounds the vertex ids (the destination
// shard's Hi, so base <= hi); a batch decoding outside [base, hi) or
// truncating mid-pair is reported as an error rather than applied. The decode loop is the hot half
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
		// v <= hi holds here (base <= hi, and each accepted pair is below
		// hi), so hi-v cannot wrap: comparing delta with it rejects every
		// pair at or past hi, including a v+delta that wraps below base.
		if delta >= uint64(hi)-v || label > uint64(^uint32(0)) {
			return errOutsideRange(v+delta, label, base, hi)
		}
		v += delta
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
