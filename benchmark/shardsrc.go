package main

import (
	"time"

	"thriftylp/graph"
	"thriftylp/internal/shard"
)

// timedSource wraps a shard.Source and timestamps every Slice and Release,
// so the sharded path's time can be attributed from outside the program.
//
// The attribution relies on the call order of dist.RunSource: for each
// shard in turn it calls Slice(i), builds the shard's node with
// shard.NewNode (interior solve and boundary lists), then calls Release,
// and after the last Release it runs the boundary-exchange rounds. So:
//   - shard.slice is the time inside Slice;
//   - shard.node is the gap from Slice returning to Release being called;
//   - shard.release is the time inside Release;
//   - dist.exchange is the time from the last Release returning to
//     RunSource returning (it also holds the last node's bootstrap).
//
// If RunSource changes that order, these intervals mean something else.
type timedSource struct {
	shard.Source
	slices []shardTimes
}

// shardTimes are the four timestamps of one shard's Slice/Release pair.
type shardTimes struct {
	sliceStart, sliceEnd, releaseStart, releaseEnd time.Time
}

func (s *timedSource) Slice(i int) (*graph.CSRSlice, error) {
	t := shardTimes{sliceStart: time.Now()}
	sl, err := s.Source.Slice(i)
	t.sliceEnd = time.Now()
	s.slices = append(s.slices, t)
	return sl, err
}

func (s *timedSource) Release(sl *graph.CSRSlice) error {
	t := &s.slices[len(s.slices)-1]
	t.releaseStart = time.Now()
	err := s.Source.Release(sl)
	t.releaseEnd = time.Now()
	return err
}

// calls turns the recorded timestamps into the children of a RunSource
// call that ended at end.
func (s *timedSource) calls(end time.Time) []call {
	var out []call
	for _, t := range s.slices {
		out = append(out,
			call{name: "shard.slice", start: t.sliceStart, end: t.sliceEnd},
			call{name: "shard.node", start: t.sliceEnd, end: t.releaseStart},
			call{name: "shard.release", start: t.releaseStart, end: t.releaseEnd})
	}
	if n := len(s.slices); n > 0 {
		out = append(out, call{name: "dist.exchange", start: s.slices[n-1].releaseEnd, end: end})
	}
	return out
}
