package obs

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"thriftylp/cc"
)

func TestRegistryCountersAndGauges(t *testing.T) {
	r := NewRegistry()
	r.Add("a_total", 2)
	r.Add("a_total", 3)
	r.SetGauge("g", 1.5)
	r.SetGauge("g", 2.5)
	if got := r.Counter("a_total"); got != 5 {
		t.Errorf("Counter(a_total) = %d, want 5", got)
	}
	if got := r.Gauge("g"); got != 2.5 {
		t.Errorf("Gauge(g) = %v, want 2.5", got)
	}
	if got := r.Counter("absent"); got != 0 {
		t.Errorf("Counter(absent) = %d, want 0", got)
	}
	snap := r.Snapshot()
	if snap["a_total"] != int64(5) || snap["g"] != 2.5 {
		t.Errorf("Snapshot() = %v", snap)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Add("zz_total", 7)
	r.SetGauge("aa_seconds", 0.25)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := "# TYPE aa_seconds gauge\naa_seconds 0.25\n# TYPE zz_total counter\nzz_total 7\n"
	if buf.String() != want {
		t.Errorf("WritePrometheus:\n%s\nwant:\n%s", buf.String(), want)
	}
}

func TestObserveRun(t *testing.T) {
	r := NewRegistry()
	res := &cc.Result{
		Iterations: 4,
		Stats: &cc.RunStats{
			Algorithm: cc.AlgoThrifty,
			Duration:  125 * time.Millisecond,
			PhaseDurations: map[string]time.Duration{
				"pull": 100 * time.Millisecond,
			},
			Sched:  cc.SchedStats{PartitionsOwned: 90, PartitionsStolen: 6, FailedSteals: 11},
			Events: map[string]int64{"edges": 1234, "cas-ops": 56},
		},
	}
	r.ObserveRun(res)
	r.ObserveRun(res)
	if got := r.Counter(MetricRuns); got != 2 {
		t.Errorf("%s = %d, want 2", MetricRuns, got)
	}
	if got := r.Counter(MetricIterations); got != 8 {
		t.Errorf("%s = %d, want 8", MetricIterations, got)
	}
	if got := r.Counter(MetricPartitionsStolen); got != 12 {
		t.Errorf("%s = %d, want 12", MetricPartitionsStolen, got)
	}
	if got := r.Counter(EventMetric("edges")); got != 2468 {
		t.Errorf("%s = %d, want 2468", EventMetric("edges"), got)
	}
	if got := r.Counter(EventMetric("cas-ops")); got != 112 {
		t.Errorf("%s = %d, want 112 (name sanitized)", EventMetric("cas-ops"), got)
	}
	if got := r.Gauge(PhaseMetric("pull")); got != 0.1 {
		t.Errorf("%s = %v, want 0.1", PhaseMetric("pull"), got)
	}
	// Nil-safe on hand-constructed results.
	r.ObserveRun(&cc.Result{})
	r.ObserveRun(nil)
	if got := r.Counter(MetricRuns); got != 2 {
		t.Errorf("%s = %d after nil-stats observes, want 2", MetricRuns, got)
	}
	// Shard telemetry folds only when present.
	if got := r.Counter(MetricShardRounds); got != 0 {
		t.Errorf("%s = %d before any shard run, want 0", MetricShardRounds, got)
	}
	r.ObserveRun(&cc.Result{Stats: &cc.RunStats{
		Algorithm: cc.AlgoShard,
		Shard: &cc.ShardStats{
			Shards: 4, Rounds: 3, BoundaryEntries: 500,
			ExchangedBytes: 900, NaiveBytes: 4000, SuppressedVertices: 42,
		},
	}})
	if got := r.Counter(MetricShardRounds); got != 3 {
		t.Errorf("%s = %d, want 3", MetricShardRounds, got)
	}
	if got := r.Counter(MetricShardExchangedBytes); got != 900 {
		t.Errorf("%s = %d, want 900", MetricShardExchangedBytes, got)
	}
	if got := r.Counter(MetricShardNaiveBytes); got != 4000 {
		t.Errorf("%s = %d, want 4000", MetricShardNaiveBytes, got)
	}
	if got := r.Counter(MetricShardSuppressed); got != 42 {
		t.Errorf("%s = %d, want 42", MetricShardSuppressed, got)
	}
	if got := r.Gauge(MetricShardBoundary); got != 500 {
		t.Errorf("%s = %v, want 500", MetricShardBoundary, got)
	}
}

func TestTraceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	tw, err := CreateTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	iters := []cc.IterationStats{
		{Index: 0, Kind: "initial-push", Active: 1, ActiveEdges: 50, Changed: 50, Edges: 50, Threshold: 0.01, Duration: time.Millisecond},
		{Index: 1, Kind: "pull", Active: 50, ActiveEdges: 400, Changed: 7, Zero: 93, Edges: 120, Density: 0.4, Threshold: 0.01, Duration: 2 * time.Millisecond},
	}
	if err := tw.WriteRun("thrifty", "rmat:10", 0, iters); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := ReadTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(iters) {
		t.Fatalf("ReadTrace returned %d records, want %d", len(recs), len(iters))
	}
	for i, rec := range recs {
		it := iters[i]
		if rec.Schema != TraceSchema {
			t.Errorf("rec %d schema = %q, want %q", i, rec.Schema, TraceSchema)
		}
		if rec.Algo != "thrifty" || rec.Dataset != "rmat:10" || rec.Run != 0 {
			t.Errorf("rec %d identity = %q/%q/%d", i, rec.Algo, rec.Dataset, rec.Run)
		}
		if rec.IterRecord != it {
			t.Errorf("rec %d = %+v does not match iteration %+v", i, rec, it)
		}
	}
}

// TestTraceGoldenDecode pins the v1 wire format: a byte-for-byte golden line
// must keep decoding, so readers of old trace files never break silently.
func TestTraceGoldenDecode(t *testing.T) {
	const golden = `{"schema":"thriftylp/trace/v1","algo":"thrifty","dataset":"rmat:14:8","run":0,"iter":1,"kind":"pull","active":2478,"active_edges":165661,"changed":8266,"zero":10730,"edges":8862,"density":0.7357801136015544,"threshold":0.01,"duration_ns":367905}`
	recs, err := ReadTrace(strings.NewReader(golden))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1", len(recs))
	}
	want := TraceRecord{
		Schema: TraceSchema, Algo: "thrifty", Dataset: "rmat:14:8", Run: 0,
		IterRecord: cc.IterationStats{
			Index: 1, Kind: "pull", Active: 2478, ActiveEdges: 165661,
			Changed: 8266, Zero: 10730, Edges: 8862,
			Density: 0.7357801136015544, Threshold: 0.01, Duration: 367905,
		},
	}
	if recs[0] != want {
		t.Errorf("decoded %+v, want %+v", recs[0], want)
	}
}

// TestTraceWriterGoldenEncode pins the v1 encoder: one record of each kind
// written through TraceWriter must come out byte for byte as below, so a
// change to the record types cannot move, rename or drop a wire field.
func TestTraceWriterGoldenEncode(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	iters := []cc.IterationStats{
		{Index: 2, Kind: "push", Active: 40, ActiveEdges: 300, Changed: 12, Zero: 980, Edges: 310, Density: 0.0034, Threshold: 0.01, Duration: 1500 * time.Microsecond},
	}
	if err := tw.WriteRun("thrifty", "rmat:10", 1, iters); err != nil {
		t.Fatal(err)
	}
	if err := tw.WriteIngest("web:12", 2000, 3000); err != nil {
		t.Fatal(err)
	}
	st := &cc.RunStats{Algorithm: cc.AlgoAuto, Selected: cc.AlgoThrifty, Probe: &cc.ProbeStats{
		Vertices: 1024, DirectedEdges: 16384, SkewRatio: 12.5, HubEdgeFraction: 0.25, MeanDegree: 16,
		SampleAlpha: 2.1, SampleCoverage: 0.75, LargestSampleComponent: 0.5, Cost: 4 * time.Microsecond, Reason: "skewed",
	}}
	if err := tw.WriteSelector("rmat:10", 0, st); err != nil {
		t.Fatal(err)
	}
	sp := RequestSpan{ID: 7, Endpoint: "component", Status: 200, QueueNs: 10, AcquireNs: 20, HandlerNs: 30, EncodeNs: 40, TotalNs: 150}
	if err := tw.Write(sp.record()); err != nil {
		t.Fatal(err)
	}
	reload := TraceRecord{Dataset: "g.bin", LoadNs: 100, ValidateNs: 200, SolveNs: 300, PublishNs: 400}
	reload.Kind = KindReload
	reload.Duration = 1200
	if err := tw.Write(reload); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	const want = `{"schema":"thriftylp/trace/v1","algo":"thrifty","dataset":"rmat:10","run":1,"iter":2,"kind":"push","active":40,"active_edges":300,"changed":12,"zero":980,"edges":310,"density":0.0034,"threshold":0.01,"duration_ns":1500000}
{"schema":"thriftylp/trace/v1","algo":"ingest","dataset":"web:12","run":0,"iter":0,"kind":"ingest","active":0,"active_edges":0,"changed":0,"zero":0,"edges":0,"density":0,"threshold":0,"duration_ns":5000,"load_ns":2000,"build_ns":3000}
{"schema":"thriftylp/trace/v1","algo":"auto","dataset":"rmat:10","run":0,"iter":0,"kind":"select","active":0,"active_edges":0,"changed":0,"zero":0,"edges":0,"density":0,"threshold":0,"duration_ns":4000,"selected":"thrifty","reason":"skewed","probe_vertices":1024,"probe_edges":16384,"probe_skew":12.5,"probe_hub_frac":0.25,"probe_mean_deg":16,"probe_alpha":2.1,"probe_coverage":0.75,"probe_largest_cc":0.5}
{"schema":"thriftylp/trace/v1","algo":"","run":0,"iter":0,"kind":"request","active":0,"active_edges":0,"changed":0,"zero":0,"edges":0,"density":0,"threshold":0,"duration_ns":150,"req_id":7,"endpoint":"component","status":200,"queue_ns":10,"acquire_ns":20,"handler_ns":30,"encode_ns":40}
{"schema":"thriftylp/trace/v1","algo":"","dataset":"g.bin","run":0,"iter":0,"kind":"reload","active":0,"active_edges":0,"changed":0,"zero":0,"edges":0,"density":0,"threshold":0,"duration_ns":1200,"load_ns":100,"validate_ns":200,"solve_ns":300,"publish_ns":400}
`
	if got := buf.String(); got != want {
		t.Errorf("encoded:\n%s\nwant:\n%s", got, want)
	}
}

func TestReadTraceRejectsUnknownSchema(t *testing.T) {
	_, err := ReadTrace(strings.NewReader(`{"schema":"thriftylp/trace/v999","iter":0}`))
	if err == nil || !strings.Contains(err.Error(), "unknown schema") {
		t.Errorf("err = %v, want unknown-schema error", err)
	}
	_, err = ReadTrace(strings.NewReader(`{"iter":0}`))
	if err == nil {
		t.Errorf("missing schema accepted")
	}
}

func TestServeEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Add(MetricRuns, 3)
	srv, err := Serve("127.0.0.1:0", reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/metrics"); code != http.StatusOK || !strings.Contains(body, MetricRuns+" 3") {
		t.Errorf("/metrics: code %d body:\n%s", code, body)
	}
	if code, body := get("/debug/vars"); code != http.StatusOK || !strings.Contains(body, "thriftylp") {
		t.Errorf("/debug/vars: code %d body:\n%s", code, body)
	}
	if code, _ := get("/debug/pprof/"); code != http.StatusOK {
		t.Errorf("/debug/pprof/: code %d", code)
	}
	if code, body := get("/"); code != http.StatusOK || !strings.Contains(body, "/metrics") {
		t.Errorf("/: code %d body:\n%s", code, body)
	}
	if code, _ := get("/nope"); code != http.StatusNotFound {
		t.Errorf("/nope: code %d, want 404", code)
	}
}
