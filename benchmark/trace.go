package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// call is one timed interval of an op: a call the benchmark made into a
// layer's public API, or a sub-phase the program reported for that call
// (laid inside the call's interval). Calls nest through sub.
type call struct {
	name       string
	start, end time.Time
	counts     map[string]int64
	sub        []call
}

// layer is the package a span name belongs to: the part before the first
// dot ("graph.Ingest" → "graph").
func layer(name string) string {
	l, _, _ := strings.Cut(name, ".")
	return l
}

// phases lays program-reported durations end to end from start, in order,
// each clipped to end. It turns the phase totals a layer returns (load and
// build of an ingest, probe and per-kind solve phases of a run) into
// intervals inside the call that reported them.
func phases(start, end time.Time, names []string, ds []time.Duration) []call {
	var out []call
	t := start
	for i, d := range ds {
		if d <= 0 {
			continue
		}
		e := t.Add(d)
		if e.After(end) {
			e = end
		}
		out = append(out, call{name: names[i], start: t, end: e})
		t = e
	}
	return out
}

// span is one record of the -spans file.
type span struct {
	Workload string           `json:"workload"`
	Op       int              `json:"op"`
	ID       int              `json:"id"`
	Parent   int              `json:"parent"`
	Name     string           `json:"name"`
	StartNs  int64            `json:"start_ns"`
	EndNs    int64            `json:"end_ns"`
	Counts   map[string]int64 `json:"counts,omitempty"`
}

// tracer keeps the spans of a traced phase in memory and attributes each
// op's time to layers. Span ids are unique per tracer; parent 0 marks an
// op's root span, whose name is "op".
type tracer struct {
	base   time.Time
	spans  []span
	nextID int
	// self sums each layer's self time over all recorded ops; rootTime
	// sums the root spans' durations.
	self     map[string]time.Duration
	rootTime time.Duration
	ops      int
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), self: map[string]time.Duration{}}
}

// record stores one op: a root span from start to end with calls as its
// children. The root's self time — the part of the op no call covers — is
// charged to the "bench" layer: it is the benchmark's own time.
func (t *tracer) record(workload string, op int, start, end time.Time, calls []call) {
	root := call{name: "op", start: start, end: end, sub: calls}
	t.add(workload, op, 0, root)
	t.rootTime += end.Sub(start)
	t.ops++
}

func (t *tracer) add(workload string, op, parent int, c call) {
	t.nextID++
	id := t.nextID
	t.spans = append(t.spans, span{
		Workload: workload, Op: op, ID: id, Parent: parent, Name: c.name,
		StartNs: c.start.Sub(t.base).Nanoseconds(), EndNs: c.end.Sub(t.base).Nanoseconds(),
		Counts: c.counts,
	})
	l := layer(c.name)
	if parent == 0 {
		l = "bench"
	}
	t.self[l] += selfTime(c)
	for _, s := range c.sub {
		t.add(workload, op, id, s)
	}
}

// selfTime is c's duration minus the part of it its children cover.
func selfTime(c call) time.Duration {
	iv := make([][2]time.Time, 0, len(c.sub))
	for _, s := range c.sub {
		a, b := s.start, s.end
		if a.Before(c.start) {
			a = c.start
		}
		if b.After(c.end) {
			b = c.end
		}
		if b.After(a) {
			iv = append(iv, [2]time.Time{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0].Before(iv[j][0]) })
	var covered time.Duration
	var reach time.Time
	for _, x := range iv {
		if x[0].Before(reach) {
			x[0] = reach
		}
		if x[1].After(x[0]) {
			covered += x[1].Sub(x[0])
			reach = x[1]
		}
	}
	return c.end.Sub(c.start) - covered
}

// coverage is the share of the recorded ops' time that named layers
// account for, in percent.
func (t *tracer) coverage() float64 {
	if t.rootTime <= 0 {
		return 0
	}
	return 100 * (1 - float64(t.self["bench"])/float64(t.rootTime))
}

// selfPerOp returns each layer's mean self time per op.
func (t *tracer) selfPerOp() map[string]time.Duration {
	out := map[string]time.Duration{}
	if t.ops == 0 {
		return out
	}
	for l, d := range t.self {
		out[l] = d / time.Duration(t.ops)
	}
	return out
}

// printSelf writes the per-layer self-time table of one workload.
func (t *tracer) printSelf(w io.Writer) {
	per := t.selfPerOp()
	layers := make([]string, 0, len(per))
	for l := range per {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return per[layers[i]] > per[layers[j]] })
	opMean := time.Duration(0)
	if t.ops > 0 {
		opMean = t.rootTime / time.Duration(t.ops)
	}
	fmt.Fprintf(w, "  self time per op, %d traced ops (mean op %.3f ms):\n", t.ops, ms(opMean))
	for _, l := range layers {
		share := 0.0
		if opMean > 0 {
			share = 100 * float64(per[l]) / float64(opMean)
		}
		fmt.Fprintf(w, "    %-10s %12.3f ms %6.1f%%\n", l, ms(per[l]), share)
	}
}

// writeSpans writes every span of every tracer as JSON lines.
func writeSpans(path string, tracers []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, t := range tracers {
		for i := range t.spans {
			if err := enc.Encode(&t.spans[i]); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
