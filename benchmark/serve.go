package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"thriftylp/cc"
	"thriftylp/graph"
	"thriftylp/graph/gen"
	"thriftylp/internal/obs"
	"thriftylp/internal/serve"
)

// checkEvery: every checkEvery-th response of a connection is decoded and
// checked against the reference (and, in the traced phase, kept as a
// span).
const checkEvery = 64

// server is one in-process query server: serve.Server over the input file
// on a loopback listener, with its metrics registry and, when traced, a
// slow log kept in memory.
type server struct {
	srv  *serve.Server
	reg  *obs.Registry
	slow *obs.SlowLog // nil unless traced
	buf  *bytes.Buffer
	addr string // host:port of the listener
	done chan error
	// mark is the endpoints' merged latency histogram when the measured
	// window opened; serverQuantiles counts only what came after it.
	mark obs.HistogramSnapshot
}

// startServer loads path and starts serving it. A traced server logs every
// request to its slow log.
func startServer(path string, traced bool) (*server, error) {
	s := &server{reg: obs.NewRegistry(), done: make(chan error, 1)}
	cfg := serve.Config{Path: path, Registry: s.reg}
	if traced {
		s.buf = &bytes.Buffer{}
		s.slow = obs.NewSlowLog(obs.NewTraceWriter(s.buf), 0, 0)
		cfg.SlowLog = s.slow
	}
	s.srv = serve.New(cfg)
	if err := s.srv.Load(context.Background()); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = s.srv.Drain(context.Background())
		return nil, err
	}
	s.addr = ln.Addr().String()
	//thrifty:goroutine Serve returns once stop drains the server; stop waits on done
	go func() { s.done <- s.srv.Serve(ln) }()
	// An answer from /healthz proves Serve is running, so a later Drain
	// reaches its http.Server; draining earlier would leave Serve running.
	hc := &httpConn{addr: s.addr}
	status, err := hc.get("/healthz", &bytes.Buffer{})
	hc.close()
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("/healthz answered HTTP %d", status)
	}
	if err != nil {
		ln.Close() // Serve returns even if it has not reached its http.Server yet
		s.stop()
		return nil, err
	}
	return s, nil
}

// stop drains the server and waits for Serve to return.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Drain(ctx)
	if serr := <-s.done; err == nil {
		err = serr
	}
	if s.slow != nil {
		if cerr := s.slow.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// requests decodes a traced server's slow log after stop and hands fn each
// request record.
func (s *server) requests(fn func(*obs.TraceRecord)) error {
	dec := json.NewDecoder(s.buf)
	for {
		var rec obs.TraceRecord
		if err := dec.Decode(&rec); errors.Is(err, io.EOF) {
			return nil
		} else if err != nil {
			return fmt.Errorf("decoding slow log: %w", err)
		}
		if rec.Kind == obs.KindRequest {
			fn(&rec)
		}
	}
}

// latencies merges the four endpoints' latency histograms.
func (s *server) latencies() obs.HistogramSnapshot {
	var all obs.HistogramSnapshot
	for _, ep := range []string{"component", "same", "size", "census"} {
		h := s.reg.Histogram(serve.LatencyHistogram(ep)).Snapshot()
		for i := range all.Counts {
			all.Counts[i] += h.Counts[i]
		}
		all.Count += h.Count
		all.Sum += h.Sum
	}
	return all
}

// serverQuantiles returns the server-side latency quantiles of the
// requests served since mark was taken.
func (s *server) serverQuantiles() (p50, p99 time.Duration) {
	all := s.latencies()
	for i := range all.Counts {
		all.Counts[i] -= s.mark.Counts[i]
	}
	all.Count -= s.mark.Count
	all.Sum -= s.mark.Sum
	return time.Duration(all.Quantile(0.5)), time.Duration(all.Quantile(0.99))
}

// reference is what a correct server answers, from a solve during setup.
type reference struct {
	labels     []uint32
	sizes      map[uint32]int64
	vertices   int
	edges      int64
	components int
	largest    int64
}

func newReference(g *graph.Graph) (*reference, error) {
	res, err := cc.Run(cc.AlgoAuto, g)
	if err != nil {
		return nil, err
	}
	if !cc.Verify(g, res.Labels) {
		return nil, fmt.Errorf("reference labels fail cc.Verify")
	}
	_, largest := res.LargestComponent()
	return &reference{
		labels: res.Labels, sizes: res.ComponentSizes(),
		vertices: g.NumVertices(), edges: g.NumEdges(),
		components: res.NumComponents(), largest: largest,
	}, nil
}

// query is one request of the mix: 25% each of /component, /same, /size
// (of a random vertex's label, so always a hit) and /census.
type query struct {
	kind int
	u, v uint32
}

const (
	qComponent = iota
	qSame
	qSize
	qCensus
)

func nextQuery(rng *rand.Rand, ref *reference) query {
	n := uint32(ref.vertices)
	return query{kind: rng.IntN(4), u: rng.Uint32N(n), v: rng.Uint32N(n)}
}

func (q query) path(ref *reference) string {
	switch q.kind {
	case qComponent:
		return "/component?v=" + strconv.FormatUint(uint64(q.u), 10)
	case qSame:
		return "/same?u=" + strconv.FormatUint(uint64(q.u), 10) + "&v=" + strconv.FormatUint(uint64(q.v), 10)
	case qSize:
		return "/size?c=" + strconv.FormatUint(uint64(ref.labels[q.u]), 10)
	}
	return "/census"
}

// check decodes a response body and compares it with the reference.
func (ref *reference) check(q query, body []byte) error {
	var b struct {
		Vertex     uint32 `json:"vertex"`
		Component  uint32 `json:"component"`
		Size       int64  `json:"size"`
		Same       bool   `json:"same"`
		Vertices   int    `json:"vertices"`
		Edges      int64  `json:"edges"`
		Components int    `json:"components"`
		Largest    struct {
			Size int64 `json:"size"`
		} `json:"largest"`
	}
	if err := json.Unmarshal(body, &b); err != nil {
		return fmt.Errorf("undecodable body %q: %v", body, err)
	}
	c := ref.labels[q.u]
	ok := true
	switch q.kind {
	case qComponent:
		ok = b.Vertex == q.u && b.Component == c && b.Size == ref.sizes[c]
	case qSame:
		ok = b.Same == (c == ref.labels[q.v])
	case qSize:
		ok = b.Component == c && b.Size == ref.sizes[c]
	case qCensus:
		ok = b.Vertices == ref.vertices && b.Edges == ref.edges &&
			b.Components == ref.components && b.Largest.Size == ref.largest
	}
	if !ok {
		return fmt.Errorf("wrong answer %q", bytes.TrimSpace(body))
	}
	return nil
}

// queryTimeout bounds one query; a query that takes longer fails.
const queryTimeout = 10 * time.Second

// httpConn is one keep-alive HTTP/1.1 connection used by one goroutine.
// The request is written and the answer read on that goroutine, so a
// query costs no handoff between client goroutines: net/http's client
// would add a reader and a writer goroutine per connection, and with them
// two wake-ups per query that the scheduler, not the server, decides.
type httpConn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	// mutate, a test seam, rewrites an answer's body before it is checked.
	mutate func(path string, body []byte) []byte
}

// get sends GET path and reads the whole answer into buf. It dials on
// first use and after an error, and returns the status code.
func (h *httpConn) get(path string, buf *bytes.Buffer) (int, error) {
	if h.c == nil {
		c, err := net.DialTimeout("tcp", h.addr, queryTimeout)
		if err != nil {
			return 0, err
		}
		h.c, h.br, h.bw = c, bufio.NewReader(c), bufio.NewWriter(c)
	}
	if err := h.c.SetDeadline(time.Now().Add(queryTimeout)); err != nil {
		h.close()
		return 0, err
	}
	h.bw.WriteString("GET ")
	h.bw.WriteString(path)
	h.bw.WriteString(" HTTP/1.1\r\nHost: bench\r\n\r\n")
	if err := h.bw.Flush(); err != nil {
		h.close()
		return 0, err
	}
	resp, err := http.ReadResponse(h.br, nil)
	if err != nil {
		h.close()
		return 0, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil || resp.Close {
		h.close()
	}
	if err == nil && h.mutate != nil {
		b := h.mutate(path, buf.Bytes())
		buf.Reset()
		buf.Write(b)
	}
	return resp.StatusCode, err
}

func (h *httpConn) close() {
	if h.c != nil {
		h.c.Close()
		h.c = nil
	}
}

// conn is one load-generating connection's record of its queries.
type conn struct {
	lat     durations // send → body read
	perSec  []int     // completions per second of the window
	queries int64
	failed  int64
	errs    []string
	traced  []call // the checked queries, in the traced phase
}

// do sends one query, reads the whole answer and checks every
// checkEvery-th one. It returns when the answer arrived.
func (c *conn) do(hc *httpConn, ref *reference, rng *rand.Rand, buf *bytes.Buffer, traced bool) time.Time {
	q := nextQuery(rng, ref)
	url := q.path(ref)
	check := c.queries%checkEvery == 0
	c.queries++
	t0 := time.Now()
	status, err := hc.get(url, buf)
	t1 := time.Now()
	c.lat = append(c.lat, t1.Sub(t0))
	switch {
	case err != nil:
		c.fail("%s: %v", url, err)
		return t1
	case status != http.StatusOK:
		c.fail("%s: HTTP %d", url, status)
	case check:
		if err := ref.check(q, buf.Bytes()); err != nil {
			c.fail("%s: %v", url, err)
		}
	}
	if traced && check {
		c.traced = append(c.traced, call{name: "op", start: t0, end: time.Now(),
			sub: []call{{name: "http.Get", start: t0, end: t1}}})
	}
	return t1
}

func (c *conn) fail(format string, args ...any) {
	c.failed++
	if len(c.errs) < maxProblems {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

// closedLoop runs cfg.conns connections, each sending its next query as
// soon as the previous one is answered, until the window ends.
func closedLoop(cfg *config, s *server, ref *reference, window time.Duration, seed uint64, traced bool) []*conn {
	start := time.Now()
	end := start.Add(window)
	conns := make([]*conn, cfg.conns)
	var wg sync.WaitGroup
	for i := range conns {
		c := &conn{perSec: make([]int, int(window/time.Second)+1)}
		conns[i] = c
		wg.Add(1)
		//thrifty:goroutine loops until the window ends; joined by wg.Wait below
		go func() {
			defer wg.Done()
			hc := &httpConn{addr: s.addr, mutate: cfg.mutateBody}
			defer hc.close()
			rng := rand.New(rand.NewPCG(seed, uint64(i)))
			var buf bytes.Buffer
			for time.Now().Before(end) {
				t1 := c.do(hc, ref, rng, &buf, traced)
				if sec := int(t1.Sub(start) / time.Second); sec < len(c.perSec) {
					c.perSec[sec]++
				}
			}
		}()
	}
	wg.Wait()
	return conns
}

// collect folds the connections' outcomes into r and returns all latencies.
func collect(r *result, conns []*conn) durations {
	var lat durations
	for _, c := range conns {
		lat = append(lat, c.lat...)
		r.Attempted += c.queries
		r.Failed += c.failed
		for _, e := range c.errs {
			r.problem("%s", e)
		}
	}
	return lat
}

// traceQueries records the checked queries of a traced phase as ops.
func traceQueries(r *result, tr *tracer, conns []*conn) {
	op := 0
	for _, c := range conns {
		for _, q := range c.traced {
			tr.record(r.Workload, op, q.start, q.end, q.sub)
			op++
		}
	}
}

// setupServe generates the serve input, starts a server on it setupReps
// times (keeping the last), and builds the reference answers.
func setupServe(cfg *config, r *result) (*server, *reference, string, error) {
	var s *server
	var g *graph.Graph
	var path string
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		if s != nil {
			if err := s.stop(); err != nil {
				return nil, nil, "", err
			}
		}
		dir, err := setupDir(cfg, r.Workload, rep)
		if err != nil {
			return nil, nil, "", err
		}
		path = filepath.Join(dir, "graph.bin")
		g = nil
		t0 := time.Now()
		if g, err = gen.RMATCompact(gen.DefaultRMAT(cfg.scale.serve, 16, cfg.seed)); err != nil {
			return nil, nil, "", err
		}
		if err := graph.SaveBinary(path, g); err != nil {
			return nil, nil, "", err
		}
		if s, err = startServer(path, false); err != nil {
			return nil, nil, "", err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	r.setE2E("setup_s", median(setups))
	ref, err := newReference(g)
	if err != nil {
		s.stop()
		return nil, nil, "", err
	}
	return s, ref, path, nil
}

// serverLayers records the server-side view of a phase and the transport
// gap between it and the client's view.
func serverLayers(r *result, s *server, lat durations) {
	p50, p99 := s.serverQuantiles()
	r.setLayer("serve.server_p50_us", us(p50))
	r.setLayer("serve.server_p99_us", us(p99))
	r.setLayer("serve.shed", float64(s.reg.Counter(serve.MetricShed)))
	r.setLayer("transport.p50_us", us(lat.quantile(0.5)-p50))
	r.setLayer("transport.p99_us", us(lat.quantile(0.99)-p99))
}

// tracedServe runs phase on a fresh traced server over path and records
// the request phases it logged.
func tracedServe(r *result, path string, phase func(s *server)) error {
	s, err := startServer(path, true)
	if err != nil {
		return err
	}
	phase(s)
	if err := s.stop(); err != nil {
		return err
	}
	// The median request phases of the traced phase.
	var q, a, h, e []float64
	err = s.requests(func(rec *obs.TraceRecord) {
		q = append(q, float64(rec.QueueNs)/1e3)
		a = append(a, float64(rec.AcquireNs)/1e3)
		h = append(h, float64(rec.HandlerNs)/1e3)
		e = append(e, float64(rec.EncodeNs)/1e3)
	})
	r.setLayer("serve.queue_us", median(q))
	r.setLayer("serve.acquire_us", median(a))
	r.setLayer("serve.handler_us", median(h))
	r.setLayer("serve.encode_us", median(e))
	return err
}

func runServeRead(cfg *config, r *result) error {
	s, ref, path, err := setupServe(cfg, r)
	if err != nil {
		return err
	}
	// A second of queries before the window, so the window does not pay
	// for opening connections, growing stacks and buffers, or pacing the
	// collector. Its answers are checked like any others.
	collect(r, closedLoop(cfg, s, ref, min(time.Second, cfg.window), cfg.seed+2, false))
	s.mark = s.latencies()
	meas, err := startMeasuring()
	if err != nil {
		s.stop()
		return err
	}
	start := time.Now()
	conns := closedLoop(cfg, s, ref, cfg.window, cfg.seed, false)
	elapsed := time.Since(start)
	lat := collect(r, conns)
	if err := meas.finish(r, len(lat)); err != nil {
		s.stop()
		return err
	}
	serverLayers(r, s, lat)
	if err := s.stop(); err != nil {
		return err
	}
	r.setE2E("op_mean_ms", ms(lat.mean()))
	r.setE2E("op_tail_ms", ms(lat.quantile(0.99)))
	// qps is the median of the per-second completion counts over the
	// window's whole seconds, so one stalled second does not decide it.
	var perSec []float64
	for sec := 0; sec < int(cfg.window/time.Second); sec++ {
		n := 0
		for _, c := range conns {
			n += c.perSec[sec]
		}
		perSec = append(perSec, float64(n))
	}
	qps := float64(len(lat)) / elapsed.Seconds()
	if len(perSec) > 0 {
		qps = median(perSec)
	}
	r.setE2E("ops_per_s", qps)

	if !cfg.trace {
		return nil
	}
	tr := newTracer()
	return tracedServe(r, path, func(ts *server) {
		tconns := closedLoop(cfg, ts, ref, cfg.window/2, cfg.seed+1, true)
		tlat := collect(r, tconns)
		traceQueries(r, tr, tconns)
		attribute(r, tr, lat.quantile(0.5), tlat.quantile(0.5))
	})
}
