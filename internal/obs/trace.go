package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"thriftylp/cc"
	"thriftylp/internal/counters"
)

// TraceSchema identifies the JSONL trace record layout. Every record carries
// it, so a consumer can reject files written by a future incompatible
// version instead of misreading them. Additive field changes keep the same
// schema id; renames/semantic changes bump it.
const TraceSchema = "thriftylp/trace/v1"

// TraceRecord is one telemetry row as serialized to the -trace JSONL
// artifact: the run identity plus the embedded iteration record
// (cc.IterationStats), whose fields encode in place as iter, kind, active,
// active_edges, changed, zero, edges, density, threshold and duration_ns.
// An iteration row carries the *why* of the direction decision: the
// frontier size (active/active_edges), the density it implied, and the
// threshold the density was compared against. Ingest, select, request and
// reload rows reuse Kind and Duration and add the fields below.
type TraceRecord struct {
	Schema  string `json:"schema"`
	Algo    string `json:"algo"`
	Dataset string `json:"dataset,omitempty"`
	// Run distinguishes repetitions when one invocation traces several runs
	// (e.g. thriftycc -reps 3 emits runs 0, 1, 2).
	Run int `json:"run"`
	counters.IterRecord
	// LoadNs and BuildNs split an "ingest" record's duration into the
	// read+parse and CSR-construction phases. Additive fields: zero (and
	// omitted) on iteration records, so the schema id is unchanged.
	LoadNs  int64 `json:"load_ns,omitempty"`
	BuildNs int64 `json:"build_ns,omitempty"`
	// Selector-record fields (Kind "select", written by WriteSelector for
	// cc.AlgoAuto runs): the concrete algorithm chosen, the decision rule
	// that fired, and the probe values the rule fired on. Additive: absent
	// on iteration and ingest records, so the schema id is unchanged.
	Selected       string  `json:"selected,omitempty"`
	Reason         string  `json:"reason,omitempty"`
	ProbeVertices  int     `json:"probe_vertices,omitempty"`
	ProbeEdges     int64   `json:"probe_edges,omitempty"`
	ProbeSkew      float64 `json:"probe_skew,omitempty"`
	ProbeHubFrac   float64 `json:"probe_hub_frac,omitempty"`
	ProbeMeanDeg   float64 `json:"probe_mean_deg,omitempty"`
	ProbeAlpha     float64 `json:"probe_alpha,omitempty"`
	ProbeCoverage  float64 `json:"probe_coverage,omitempty"`
	ProbeLargestCC float64 `json:"probe_largest_cc,omitempty"`
	// Request-span fields (Kind "request", written by the serving slow-query
	// log): the request's id, endpoint, HTTP status, and the phase split of
	// its latency (queue wait, snapshot acquire, handler, encode; the total
	// is in Duration). Additive: absent on all earlier record kinds, so
	// the schema id is unchanged.
	ReqID     uint64 `json:"req_id,omitempty"`
	Endpoint  string `json:"endpoint,omitempty"`
	Status    int    `json:"status,omitempty"`
	QueueNs   int64  `json:"queue_ns,omitempty"`
	AcquireNs int64  `json:"acquire_ns,omitempty"`
	HandlerNs int64  `json:"handler_ns,omitempty"`
	EncodeNs  int64  `json:"encode_ns,omitempty"`
	// Reload-span fields (Kind "reload", one record per snapshot publish,
	// including the initial load): the validate/solve/publish phase split;
	// ingest time rides the existing LoadNs field and the total is in
	// Duration. Additive, schema id unchanged.
	ValidateNs int64 `json:"validate_ns,omitempty"`
	SolveNs    int64 `json:"solve_ns,omitempty"`
	PublishNs  int64 `json:"publish_ns,omitempty"`
}

// Kinds of the non-iteration records; iteration records carry the
// traversal-direction kinds of counters.IterKind.
const (
	// KindIngest marks a graph-loading record.
	KindIngest counters.IterKind = "ingest"
	// KindSelect marks an auto run's algorithm-selection record.
	KindSelect counters.IterKind = "select"
	// KindRequest marks a request-span record from the slow-query log.
	KindRequest counters.IterKind = "request"
	// KindReload marks a snapshot load/reload span record.
	KindReload counters.IterKind = "reload"
)

// TraceWriter streams TraceRecords as JSONL (one record per line). Writes
// are serialized, so several runs may append concurrently.
type TraceWriter struct {
	mu     sync.Mutex
	bw     *bufio.Writer
	enc    *json.Encoder
	closer io.Closer
}

// NewTraceWriter wraps w in a buffered JSONL encoder. Close flushes; it does
// not close w.
func NewTraceWriter(w io.Writer) *TraceWriter {
	bw := bufio.NewWriter(w)
	return &TraceWriter{bw: bw, enc: json.NewEncoder(bw)}
}

// CreateTrace creates (truncating) the JSONL trace file at path. Close
// flushes and closes the file.
func CreateTrace(path string) (*TraceWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("obs: creating trace file: %w", err)
	}
	t := NewTraceWriter(f)
	t.closer = f
	return t, nil
}

// Write appends one record. The record's Schema field is stamped if empty.
func (t *TraceWriter) Write(rec TraceRecord) error {
	if rec.Schema == "" {
		rec.Schema = TraceSchema
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.enc.Encode(rec) // Encode appends the newline
}

// WriteRun appends every iteration of one run, in execution order.
func (t *TraceWriter) WriteRun(algo, dataset string, run int, iters []cc.IterationStats) error {
	for _, it := range iters {
		if err := t.Write(TraceRecord{Algo: algo, Dataset: dataset, Run: run, IterRecord: it}); err != nil {
			return err
		}
	}
	return nil
}

// WriteIngest appends one graph-ingestion record: Kind "ingest", with the
// load/build phase split in LoadNs/BuildNs and their sum in Duration.
func (t *TraceWriter) WriteIngest(dataset string, loadNs, buildNs int64) error {
	rec := TraceRecord{Algo: "ingest", Dataset: dataset, LoadNs: loadNs, BuildNs: buildNs}
	rec.Kind = KindIngest
	rec.Duration = time.Duration(loadNs + buildNs)
	return t.Write(rec)
}

// WriteSelector appends one algorithm-selection record for an auto run:
// Kind "select", Algo "auto", the chosen algorithm, the rule that fired,
// the probe values it fired on, and the probe's cost in Duration. No-op
// when the run carries no probe (i.e. was not an AlgoAuto run).
func (t *TraceWriter) WriteSelector(dataset string, run int, st *cc.RunStats) error {
	if st == nil || st.Probe == nil {
		return nil
	}
	p := st.Probe
	rec := TraceRecord{
		Algo:           string(st.Algorithm),
		Dataset:        dataset,
		Run:            run,
		Selected:       string(st.Selected),
		Reason:         p.Reason,
		ProbeVertices:  p.Vertices,
		ProbeEdges:     p.DirectedEdges,
		ProbeSkew:      p.SkewRatio,
		ProbeHubFrac:   p.HubEdgeFraction,
		ProbeMeanDeg:   p.MeanDegree,
		ProbeAlpha:     p.SampleAlpha,
		ProbeCoverage:  p.SampleCoverage,
		ProbeLargestCC: p.LargestSampleComponent,
	}
	rec.Kind = KindSelect
	rec.Duration = p.Cost
	return t.Write(rec)
}

// Flush forces buffered records to the underlying writer without closing
// it. Long-lived writers (the serving slow-query log) flush on drain so an
// imminent SIGTERM exit cannot truncate the final records.
func (t *TraceWriter) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.bw.Flush()
}

// Close flushes buffered records and closes the underlying file when the
// writer owns one.
func (t *TraceWriter) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	err := t.bw.Flush()
	if t.closer != nil {
		if cerr := t.closer.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// ReadTrace decodes a JSONL trace stream, rejecting records whose schema id
// is missing or unknown (line numbers are 1-based in errors).
func ReadTrace(r io.Reader) ([]TraceRecord, error) {
	dec := json.NewDecoder(r)
	var recs []TraceRecord
	for line := 1; ; line++ {
		var rec TraceRecord
		if err := dec.Decode(&rec); err == io.EOF {
			return recs, nil
		} else if err != nil {
			return recs, fmt.Errorf("obs: trace line %d: %w", line, err)
		}
		if rec.Schema != TraceSchema {
			return recs, fmt.Errorf("obs: trace line %d: unknown schema %q (want %q)", line, rec.Schema, TraceSchema)
		}
		recs = append(recs, rec)
	}
}
