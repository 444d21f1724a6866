package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"thriftylp/cc"
	"thriftylp/internal/obs"
)

// newTestServer builds a server around a freshly generated binary graph,
// loads it, and returns the server plus an httptest front end. mutate lets
// tests shrink limits before anything starts.
func newTestServer(t *testing.T, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	path := writeTestGraph(t, t.TempDir(), "g", 42)
	cfg := Config{Path: path, Algo: cc.AlgoThrifty}
	if mutate != nil {
		mutate(&cfg)
	}
	s := New(cfg)
	if err := s.Load(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Source().Retire()
	})
	return s, ts
}

// get fetches a URL and returns status plus body.
func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	status, body := get(t, url)
	if status == http.StatusOK {
		if err := json.Unmarshal([]byte(body), out); err != nil {
			t.Fatalf("GET %s: bad JSON %q: %v", url, body, err)
		}
	}
	return status
}

// TestServerEndpoints exercises all four query endpoints against the
// sequential oracle.
func TestServerEndpoints(t *testing.T) {
	s, ts := newTestServer(t, nil)
	sn := s.Source().Acquire()
	defer sn.Release()
	oracle := cc.Sequential(sn.Graph)

	var comp struct {
		Vertex    uint32 `json:"vertex"`
		Component uint32 `json:"component"`
		Size      int64  `json:"size"`
	}
	if st := getJSON(t, ts.URL+"/component?v=0", &comp); st != http.StatusOK {
		t.Fatalf("/component status %d", st)
	}
	if comp.Vertex != 0 || comp.Size <= 0 {
		t.Errorf("component response %+v", comp)
	}

	// same must agree with the oracle for connected and disconnected pairs.
	pairs := [][2]uint32{{0, 1}, {0, uint32(sn.NumVertices() - 1)}, {3, 7}}
	for _, p := range pairs {
		var same struct {
			Same bool `json:"same"`
		}
		url := fmt.Sprintf("%s/same?u=%d&v=%d", ts.URL, p[0], p[1])
		if st := getJSON(t, url, &same); st != http.StatusOK {
			t.Fatalf("%s status %d", url, st)
		}
		if want := oracle[p[0]] == oracle[p[1]]; same.Same != want {
			t.Errorf("same(%d,%d) = %v, oracle says %v", p[0], p[1], same.Same, want)
		}
	}

	var size struct {
		Size int64 `json:"size"`
	}
	if st := getJSON(t, fmt.Sprintf("%s/size?c=%d", ts.URL, comp.Component), &size); st != http.StatusOK {
		t.Fatal("size status")
	}
	if size.Size != comp.Size {
		t.Errorf("/size = %d, /component reported %d", size.Size, comp.Size)
	}

	var census struct {
		Vertices   int   `json:"vertices"`
		Components int   `json:"components"`
		Edges      int64 `json:"edges"`
		Largest    struct {
			Size int64 `json:"size"`
		} `json:"largest"`
		Algorithm string `json:"algorithm"`
	}
	if st := getJSON(t, ts.URL+"/census", &census); st != http.StatusOK {
		t.Fatal("census status")
	}
	if census.Vertices != sn.NumVertices() ||
		census.Components != sn.Result.NumComponents() ||
		census.Largest.Size <= 0 || census.Algorithm != "thrifty" {
		t.Errorf("census response %+v", census)
	}
}

// TestServerBadRequests pins the 4xx surface.
func TestServerBadRequests(t *testing.T) {
	s, ts := newTestServer(t, nil)
	n := s.Source().Current().NumVertices()
	cases := []struct {
		url  string
		want int
	}{
		{"/component", http.StatusBadRequest},                     // missing v
		{"/component?v=abc", http.StatusBadRequest},               // malformed
		{fmt.Sprintf("/component?v=%d", n), http.StatusNotFound},  // out of range
		{"/same?u=0", http.StatusBadRequest},                      // missing v
		{fmt.Sprintf("/same?u=0&v=%d", n+5), http.StatusNotFound}, // out of range
		{"/size", http.StatusBadRequest},                          // missing c
		{"/size?c=4294967295", http.StatusNotFound},               // no such component
		{"/nosuch", http.StatusNotFound},                          // unknown path
	}
	for _, c := range cases {
		if st, body := get(t, ts.URL+c.url); st != c.want {
			t.Errorf("GET %s = %d (%q), want %d", c.url, st, strings.TrimSpace(body), c.want)
		}
	}
	// Reload is POST-only.
	if st, _ := get(t, ts.URL+"/reload"); st != http.StatusMethodNotAllowed {
		t.Errorf("GET /reload = %d, want 405", st)
	}
}

// TestServerNotReadyBeforeLoad: a fresh server answers health but not
// queries, and /readyz flips exactly when the initial load publishes.
func TestServerNotReadyBeforeLoad(t *testing.T) {
	path := writeTestGraph(t, t.TempDir(), "g", 42)
	s := New(Config{Path: path})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Source().Retire()

	if st, _ := get(t, ts.URL+"/healthz"); st != http.StatusOK {
		t.Fatalf("/healthz before load = %d", st)
	}
	if st, body := get(t, ts.URL+"/readyz"); st != http.StatusServiceUnavailable ||
		!strings.Contains(body, "initial load") {
		t.Fatalf("/readyz before load = %d %q", st, body)
	}
	if st, _ := get(t, ts.URL+"/component?v=0"); st != http.StatusServiceUnavailable {
		t.Fatalf("query before load = %d, want 503", st)
	}

	if err := s.Load(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st, _ := get(t, ts.URL+"/readyz"); st != http.StatusOK {
		t.Fatalf("/readyz after load = %d", st)
	}
	if st, _ := get(t, ts.URL+"/component?v=0"); st != http.StatusOK {
		t.Fatalf("query after load = %d", st)
	}
}

// TestServerLoadShedding saturates a deliberately tiny admission layer and
// checks the contract both ways: overflow requests get 429 with a
// Retry-After header, while every admitted request completes 200 within its
// deadline.
func TestServerLoadShedding(t *testing.T) {
	const delay = 100 * time.Millisecond
	s, ts := newTestServer(t, func(c *Config) {
		c.MaxInFlight = 1
		c.MaxQueue = 1
		c.QueueWait = 2 * time.Second // queued requests wait out the slot
		c.RequestTimeout = time.Second
	})
	s.testQueryDelay = delay

	const clients = 8
	type outcome struct {
		status  int
		latency time.Duration
		retry   string
	}
	results := make([]outcome, clients)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start := time.Now()
			resp, err := http.Get(ts.URL + "/component?v=1")
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			results[i] = outcome{resp.StatusCode, time.Since(start), resp.Header.Get("Retry-After")}
		}(i)
	}
	wg.Wait()

	var ok, shed int
	for i, r := range results {
		switch r.status {
		case http.StatusOK:
			ok++
			if r.latency > s.cfg.QueueWait+s.cfg.RequestTimeout {
				t.Errorf("client %d admitted but took %v", i, r.latency)
			}
		case http.StatusTooManyRequests:
			shed++
			if r.retry == "" {
				t.Errorf("client %d shed without Retry-After", i)
			}
		default:
			t.Errorf("client %d status %d", i, r.status)
		}
	}
	if ok < 1 || shed < 1 {
		t.Fatalf("ok=%d shed=%d; want both admission and shedding under saturation", ok, shed)
	}
	if got := s.reg.Counter(MetricShed); got != int64(shed) {
		t.Errorf("%s = %d, observed %d sheds", MetricShed, got, shed)
	}
}

// TestServerDeadline: a query slower than its deadline answers 503 instead
// of hanging.
func TestServerDeadline(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) {
		c.RequestTimeout = 30 * time.Millisecond
	})
	s.testQueryDelay = 500 * time.Millisecond
	start := time.Now()
	st, body := get(t, ts.URL+"/component?v=0")
	if st != http.StatusServiceUnavailable || !strings.Contains(body, "deadline") {
		t.Fatalf("slow query = %d %q, want 503 deadline", st, body)
	}
	if e := time.Since(start); e > 400*time.Millisecond {
		t.Errorf("deadline response took %v, want ~30ms", e)
	}
}

// TestServerMetrics: per-endpoint request/latency counters accumulate.
func TestServerMetrics(t *testing.T) {
	s, ts := newTestServer(t, nil)
	sn := s.Source().Acquire()
	label := sn.ComponentOf(0)
	miss := uint32(0)
	for sn.SizeOf(miss) != 0 {
		miss++
	}
	sn.Release()

	// A known number of requests per endpoint, including one /size miss: a
	// well-formed lookup of a non-label answers 404 but is served latency.
	sent := map[string]int{"component": 3, "same": 2, "size": 2, "census": 1}
	for i := 0; i < sent["component"]; i++ {
		get(t, ts.URL+"/component?v=0")
	}
	for i := 0; i < sent["same"]; i++ {
		get(t, ts.URL+"/same?u=0&v=1")
	}
	if st, _ := get(t, fmt.Sprintf("%s/size?c=%d", ts.URL, label)); st != http.StatusOK {
		t.Fatalf("/size of label %d: status %d", label, st)
	}
	if st, _ := get(t, fmt.Sprintf("%s/size?c=%d", ts.URL, miss)); st != http.StatusNotFound {
		t.Fatalf("/size of non-label %d: status %d, want 404", miss, st)
	}
	get(t, ts.URL+"/census")
	if n := s.reg.Counter(RequestsMetric("component")); n != 3 {
		t.Errorf("component requests = %d, want 3", n)
	}
	if n := s.reg.Counter(LatencyMetric("component")); n <= 0 {
		t.Errorf("component latency total = %d, want > 0", n)
	}
	if n := s.reg.Counter(RequestsMetric("census")); n != 1 {
		t.Errorf("census requests = %d, want 1", n)
	}
	if n := s.reg.Counter(MetricReloads); n != 1 {
		t.Errorf("%s = %d, want 1 (the initial load)", MetricReloads, n)
	}
	// The latency histograms behind the compat counters: every served
	// request recorded (the /size miss included), quantiles ordered,
	// buckets exposed on /metrics with the versioned text content type.
	for ep, n := range sent {
		hs := s.reg.Histogram(LatencyHistogram(ep)).Snapshot()
		if hs.Count != int64(n) {
			t.Errorf("%s histogram count = %d, want %d", ep, hs.Count, n)
		}
		if p50, p99 := hs.Quantile(0.50), hs.Quantile(0.99); p50 <= 0 || p50 > p99 {
			t.Errorf("%s histogram p50=%d p99=%d, want 0 < p50 <= p99", ep, p50, p99)
		}
	}
	hs := s.reg.Histogram(LatencyHistogram("component")).Snapshot()
	if sum := hs.Sum; sum != s.reg.Counter(LatencyMetric("component")) {
		t.Errorf("compat latency counter %d != histogram sum %d",
			s.reg.Counter(LatencyMetric("component")), sum)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("/metrics Content-Type = %q", ct)
	}
	for _, want := range []string{
		LatencyHistogram("component") + "_bucket{le=",
		LatencyHistogram("component") + "_p99 ",
		MetricQueueWaitHist + "_count ",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestServerSlowLog: with a zero threshold every request span is offered to
// the slow log and the rate cap off, so each served request produces one
// request record carrying the span phases; Drain flushes them out.
func TestServerSlowLog(t *testing.T) {
	var buf bytes.Buffer
	slow := obs.NewSlowLog(obs.NewTraceWriter(&buf), 0, 0)
	s, ts := newTestServer(t, func(c *Config) { c.SlowLog = slow })
	get(t, ts.URL+"/component?v=0")
	get(t, ts.URL+"/same?u=0&v=1")
	dctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatal(err)
	}
	recs, err := obs.ReadTrace(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	var reqs, reloads int
	for _, r := range recs {
		switch r.Kind {
		case obs.KindRequest:
			reqs++
			if r.ReqID == 0 || r.Status != http.StatusOK || r.Duration <= 0 {
				t.Errorf("bad request record: %+v", r)
			}
			if r.Endpoint != "component" && r.Endpoint != "same" {
				t.Errorf("unexpected endpoint %q", r.Endpoint)
			}
		case obs.KindReload:
			// The initial load publishes through the same path as a reload
			// and records the ingest/validate/solve/publish split.
			reloads++
			if r.SolveNs <= 0 || r.Duration <= 0 || r.Dataset == "" {
				t.Errorf("bad reload record: %+v", r)
			}
		}
	}
	if reqs != 2 {
		t.Errorf("%d request records, want 2", reqs)
	}
	if reloads != 1 {
		t.Errorf("%d reload records, want 1 (the initial load)", reloads)
	}
}

// TestServerDrain: in-flight requests complete during Drain, the listener
// stops accepting, and the final munmap happens only after the last request
// released its snapshot.
func TestServerDrain(t *testing.T) {
	path := writeTestGraph(t, t.TempDir(), "g", 42)
	s := New(Config{Path: path, RequestTimeout: 2 * time.Second})
	if err := s.Load(context.Background()); err != nil {
		t.Fatal(err)
	}
	s.testQueryDelay = 150 * time.Millisecond

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	// Launch slow in-flight requests, then drain while they run.
	const inflight = 4
	statuses := make(chan int, inflight)
	var wg sync.WaitGroup
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(base + "/component?v=0")
			if err != nil {
				statuses <- -1
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			statuses <- resp.StatusCode
		}()
	}
	time.Sleep(30 * time.Millisecond) // let the requests reach the handler

	dctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	wg.Wait()
	close(statuses)
	for st := range statuses {
		if st != http.StatusOK && st != http.StatusTooManyRequests {
			t.Errorf("in-flight request during drain finished %d", st)
		}
	}
	if err := <-serveDone; err != nil {
		t.Errorf("Serve returned %v after drain", err)
	}
	if _, err := net.DialTimeout("tcp", ln.Addr().String(), time.Second); err == nil {
		t.Error("listener still accepting after drain")
	}
	if ready, reason := s.Ready(); ready || !strings.Contains(reason, "drain") {
		t.Errorf("Ready after drain = %v %q", ready, reason)
	}
	if sn := s.Source().Acquire(); sn != nil {
		t.Error("snapshot still acquirable after drain")
	}
}

// TestServerDrainDeadline: requests that refuse to finish cannot hold the
// drain past its deadline — Drain returns the context error and the
// connections are aborted.
func TestServerDrainDeadline(t *testing.T) {
	path := writeTestGraph(t, t.TempDir(), "g", 42)
	s := New(Config{Path: path, RequestTimeout: 10 * time.Second})
	if err := s.Load(context.Background()); err != nil {
		t.Fatal(err)
	}
	s.testQueryDelay = 5 * time.Second

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	go http.Get("http://" + ln.Addr().String() + "/component?v=0")
	time.Sleep(50 * time.Millisecond)

	dctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = s.Drain(dctx)
	if err == nil {
		t.Fatal("Drain with a stuck request returned nil before the deadline")
	}
	if e := time.Since(start); e > 2*time.Second {
		t.Fatalf("Drain took %v, want ~100ms deadline", e)
	}
}
