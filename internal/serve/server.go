package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"thriftylp/cc"
	"thriftylp/internal/obs"
)

// Config parameterizes a query server. The zero value of every field is
// replaced by a sensible default in New; tests shrink the limits to make
// saturation and shedding reachable without load.
type Config struct {
	// Path is the graph file served; Reload re-ingests it.
	Path string
	// Algo is the solve algorithm (default cc.AlgoAuto).
	Algo cc.Algorithm
	// MaxInFlight bounds concurrently executing queries (default
	// 4×GOMAXPROCS — queries are O(1) map/array reads, so a small multiple
	// of the CPUs keeps them cache-friendly without queue starvation).
	MaxInFlight int
	// MaxQueue bounds queries waiting for a slot; beyond it requests are
	// shed immediately with 429 (default 4×MaxInFlight).
	MaxQueue int
	// QueueWait caps how long an admitted-to-queue request waits for a
	// slot before being shed (default 50ms).
	QueueWait time.Duration
	// RequestTimeout is the per-request deadline once admitted (default
	// 1s). It also seeds the HTTP server's read-header timeout, so a
	// stalled or byte-dribbling client is disconnected rather than holding
	// a connection open across the drain deadline.
	RequestTimeout time.Duration
	// Registry receives the serving metrics (default: a private registry;
	// pass the debug server's to expose them on /metrics).
	Registry *obs.Registry
	// Log receives lifecycle events (default: discard).
	Log *slog.Logger
	// SlowLog, when set, receives sampled slow-query span records and the
	// per-reload span records (thriftylp/trace/v1 JSONL). The server
	// flushes it on Drain; the creator owns closing it.
	SlowLog *obs.SlowLog
	// Watchdog, when set, gains a "reload" heartbeat (deadline
	// ReloadDeadline) and snapshot health probes: published refcount,
	// mapped bytes, and mmap residency of the current snapshot. The caller
	// starts and stops it.
	Watchdog *obs.Watchdog
	// ReloadDeadline is the stall deadline for the reload heartbeat: a
	// load/reload running longer triggers a watchdog goroutine dump
	// (default 2m). Only meaningful with Watchdog set.
	ReloadDeadline time.Duration
}

// Serving metric names. Per-endpoint latency is a histogram
// (thriftyd_<endpoint>_latency_ns, log-linear buckets, scrape-time p50/p90/
// p99/p999 gauges); the pre-histogram cumulative counter name
// thriftyd_<endpoint>_latency_ns_total stays published, derived from the
// histogram's exact sum, so existing dashboards keep working.
const (
	MetricShed           = "thriftyd_shed_total"
	MetricInFlight       = "thriftyd_inflight"
	MetricQueueDepth     = "thriftyd_queue_depth"
	MetricReloads        = "thriftyd_reloads_total"
	MetricReloadFailures = "thriftyd_reload_failures_total"
	MetricSnapshotSwaps  = "thriftyd_snapshot_swaps_total"
	MetricReloadSeconds  = "thriftyd_reload_seconds"
	MetricQueueWaitHist  = "thriftyd_queue_wait_ns"
	MetricSnapshotRefs   = "thriftyd_snapshot_refs"
	MetricMappedBytes    = "thriftyd_snapshot_mapped_bytes"
	MetricResidentBytes  = "thriftyd_snapshot_resident_bytes"
)

// RequestsMetric returns the request counter name for an endpoint.
func RequestsMetric(endpoint string) string {
	return "thriftyd_" + endpoint + "_requests_total"
}

// LatencyMetric returns the cumulative-latency counter name for an
// endpoint. Since the histogram conversion the value is derived (the
// histogram's exact sample sum) but the name and semantics are unchanged.
func LatencyMetric(endpoint string) string {
	return "thriftyd_" + endpoint + "_latency_ns_total"
}

// LatencyHistogram returns the latency histogram name for an endpoint.
func LatencyHistogram(endpoint string) string {
	return "thriftyd_" + endpoint + "_latency_ns"
}

// ErrReloadInProgress is returned by Reload when another reload is already
// running; the HTTP endpoint maps it to 409 Conflict.
var ErrReloadInProgress = errors.New("serve: reload already in progress")

// Server is the admission-controlled connectivity query server. Create with
// New, publish the first snapshot with Load (queries 503 until it
// completes), expose Handler on a listener (or call Serve/ListenAndServe),
// and stop with Drain.
type Server struct {
	cfg Config
	src Source
	adm *admission
	mux *http.ServeMux
	reg *obs.Registry
	log *slog.Logger

	// slow is the optional slow-query/reload span log; qwait the shared
	// queue-wait histogram; reloadHB the optional watchdog heartbeat
	// bracketing load/reload (nil without a watchdog).
	slow     *obs.SlowLog
	qwait    *obs.Histogram
	reloadHB *obs.Heartbeat

	// reloadMu serializes Load/Reload; TryLock turns a concurrent reload
	// into ErrReloadInProgress instead of a queue of stale reloads.
	reloadMu sync.Mutex

	// statusMu guards the readiness state reported by /readyz. Not-ready
	// does not imply not-serving: after a failed reload the old snapshot
	// keeps answering queries while readiness screams for an operator.
	statusMu sync.Mutex
	ready    bool
	reason   string

	// httpMu guards httpSrv, which exists only between Serve and Drain.
	httpMu  sync.Mutex
	httpSrv *http.Server

	// testQueryDelay, when set (chaos tests only, before serving starts),
	// stretches every query handler so deadlines and drains become
	// observable without a large graph.
	testQueryDelay time.Duration
}

// New builds a server around cfg without loading anything: /healthz answers
// immediately, /readyz reports not-ready, queries 503 until Load publishes
// the first snapshot.
func New(cfg Config) *Server {
	if cfg.Algo == "" {
		cfg.Algo = cc.AlgoAuto
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 4 * runtime.GOMAXPROCS(0)
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 4 * cfg.MaxInFlight
	}
	if cfg.QueueWait <= 0 {
		cfg.QueueWait = 50 * time.Millisecond
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = time.Second
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	if cfg.Log == nil {
		cfg.Log = obs.NopLogger()
	}
	if cfg.ReloadDeadline <= 0 {
		cfg.ReloadDeadline = 2 * time.Minute
	}
	s := &Server{
		cfg:    cfg,
		adm:    newAdmission(cfg.MaxInFlight, cfg.MaxQueue, cfg.QueueWait),
		mux:    http.NewServeMux(),
		reg:    cfg.Registry,
		log:    cfg.Log,
		slow:   cfg.SlowLog,
		reason: "initial load not complete",
	}
	s.qwait = s.reg.Histogram(MetricQueueWaitHist)
	if wd := cfg.Watchdog; wd != nil {
		s.reloadHB = wd.Heartbeat("reload", cfg.ReloadDeadline)
		wd.Gauge(MetricSnapshotRefs, s.probeRefs)
		wd.Gauge(MetricMappedBytes, s.probeMapped)
		wd.Gauge(MetricResidentBytes, s.probeResident)
	}
	s.mux.HandleFunc("/component", s.query("component", s.handleComponent))
	s.mux.HandleFunc("/same", s.query("same", s.handleSame))
	s.mux.HandleFunc("/size", s.query("size", s.handleSize))
	s.mux.HandleFunc("/census", s.query("census", s.handleCensus))
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/reload", s.handleReload)
	s.mux.Handle("/metrics", s.reg)
	s.mux.HandleFunc("/", s.handleIndex)
	return s
}

// Watchdog probes: each acquires the current snapshot (so the graph cannot
// be closed mid-probe), reads one health value, and releases. The refcount
// reported excludes the probe's own transient reference.
func (s *Server) probeRefs() float64 {
	sn := s.src.Acquire()
	if sn == nil {
		return 0
	}
	defer sn.Release()
	return float64(sn.Refs() - 1)
}

func (s *Server) probeMapped() float64 {
	sn := s.src.Acquire()
	if sn == nil {
		return 0
	}
	defer sn.Release()
	return float64(sn.Graph.MappedBytes())
}

func (s *Server) probeResident() float64 {
	sn := s.src.Acquire()
	if sn == nil {
		return 0
	}
	defer sn.Release()
	b, ok := sn.Graph.ResidentBytes()
	if !ok {
		return 0
	}
	return float64(b)
}

// Handler returns the server's HTTP handler (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Source returns the snapshot source (tests and diagnostics).
func (s *Server) Source() *Source { return &s.src }

// setReady publishes the /readyz state.
func (s *Server) setReady(ready bool, reason string) {
	s.statusMu.Lock()
	s.ready, s.reason = ready, reason
	s.statusMu.Unlock()
}

// Ready reports the current /readyz state.
func (s *Server) Ready() (bool, string) {
	s.statusMu.Lock()
	defer s.statusMu.Unlock()
	return s.ready, s.reason
}

// Load performs the initial load-validate-solve-publish sequence. It is
// Reload without the rollback framing: there is nothing to roll back to, so
// a failure simply leaves the server not-ready (reason carries the error)
// and queries answering 503.
func (s *Server) Load(ctx context.Context) error { return s.Reload(ctx) }

// Reload ingests, validates and fully re-solves cfg.Path off to the side,
// then atomically publishes the result. On any error the currently-published
// snapshot is untouched — queries keep being answered from it — and /readyz
// flips to not-ready so orchestrators see the failed reload. Concurrent
// calls are rejected with ErrReloadInProgress rather than queued: a reload
// reflects the file's current state, so a queued second reload would either
// duplicate work or publish the same bytes twice.
func (s *Server) Reload(ctx context.Context) error {
	if !s.reloadMu.TryLock() {
		return ErrReloadInProgress
	}
	defer s.reloadMu.Unlock()
	if s.reloadHB != nil {
		s.reloadHB.Begin()
		defer s.reloadHB.End()
	}
	start := time.Now()
	sn, err := LoadSnapshot(ctx, s.cfg.Path, s.cfg.Algo)
	if err != nil {
		s.reg.Add(MetricReloadFailures, 1)
		s.setReady(false, fmt.Sprintf("reload failed (serving previous snapshot): %v", err))
		s.log.Error("reload failed", "path", s.cfg.Path, "err", err)
		return err
	}
	pubStart := time.Now()
	s.src.Publish(sn)
	publishNs := time.Since(pubStart).Nanoseconds()
	s.reg.Add(MetricReloads, 1)
	s.reg.SetGauge(MetricSnapshotSwaps, float64(s.src.Swaps()))
	s.reg.SetGauge(MetricReloadSeconds, time.Since(start).Seconds())
	s.reg.ObserveRun(&sn.Result)
	s.setReady(true, "")
	if s.slow != nil {
		// One span record per publish, initial load included: the
		// ingest/validate/solve/publish split that decides whether a slow
		// reload is I/O, a hostile file, or the solve itself.
		rec := obs.TraceRecord{
			Dataset:    s.cfg.Path,
			LoadNs:     sn.Phases.IngestNs,
			ValidateNs: sn.Phases.ValidateNs,
			SolveNs:    sn.Phases.SolveNs,
			PublishNs:  publishNs,
		}
		rec.Kind = obs.KindReload
		rec.Duration = time.Since(start)
		_ = s.slow.WriteRecord(rec)
	}
	s.log.Info("snapshot published",
		"path", s.cfg.Path,
		"vertices", sn.NumVertices(),
		"edges", sn.Graph.NumEdges(),
		"components", sn.NumComponents(),
		"ingest", time.Duration(sn.Phases.IngestNs),
		"validate", time.Duration(sn.Phases.ValidateNs),
		"solve", time.Duration(sn.Phases.SolveNs),
		"total", time.Since(start))
	return nil
}

// Serve accepts connections on ln until Drain. The embedded http.Server
// carries the anti-stall timeouts: ReadHeaderTimeout evicts byte-dribbling
// clients, WriteTimeout bounds the full queue-wait + handler + response
// window so no connection can outlive the drain deadline by stalling reads.
func (s *Server) Serve(ln net.Listener) error {
	srv := &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: s.cfg.RequestTimeout,
		WriteTimeout:      s.cfg.QueueWait + 2*s.cfg.RequestTimeout,
	}
	s.httpMu.Lock()
	s.httpSrv = srv
	s.httpMu.Unlock()
	err := srv.Serve(ln)
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

// ListenAndServe binds addr and calls Serve. thriftyd binds its own
// listener instead so it can print the resolved port before serving.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Drain gracefully stops the server: /readyz flips to not-ready, the
// listener closes, in-flight requests get until ctx's deadline, then the
// snapshot source retires (the final munmap fires once the last reader
// releases — never under one). If the deadline passes with requests still
// running, remaining connections are aborted and ctx's error returned.
func (s *Server) Drain(ctx context.Context) error {
	s.setReady(false, "draining")
	s.httpMu.Lock()
	srv := s.httpSrv
	s.httpSrv = nil
	s.httpMu.Unlock()
	var err error
	if srv != nil {
		err = srv.Shutdown(ctx)
		if err != nil {
			_ = srv.Close()
		}
	}
	s.src.Retire()
	if s.slow != nil {
		// Push buffered span records to disk before the process exits: a
		// drain must not truncate the slow-query log's final records. The
		// creator still owns (and closes) the underlying file.
		if ferr := s.slow.Flush(); err == nil {
			err = ferr
		}
	}
	return err
}

// query wraps an endpoint handler in the serving envelope: a request span
// (id + queue/acquire/handler/encode phase clocks, one time read per
// boundary), admission control (shed with 429 + Retry-After), the
// per-request deadline, snapshot acquire/release, and latency metrics —
// the per-endpoint latency histogram plus the sampled slow-query log. The
// wrapped fn runs with a live snapshot reference — the munmap of a
// concurrent reload-retired graph cannot fire until fn returns and the
// reference is released.
func (s *Server) query(name string, fn func(http.ResponseWriter, *http.Request, *Snapshot, *obs.RequestSpan) error) http.HandlerFunc {
	hist := s.reg.Histogram(LatencyHistogram(name))
	return func(w http.ResponseWriter, r *http.Request) {
		sp := obs.StartSpan(name)
		release, ok := s.adm.admit(r.Context())
		sp.EndQueue()
		s.qwait.Record(sp.QueueNs)
		if !ok {
			s.reg.Add(MetricShed, 1)
			retryAfter := int(s.cfg.QueueWait / time.Second)
			if retryAfter < 1 {
				retryAfter = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
			http.Error(w, "overloaded: admission queue full", http.StatusTooManyRequests)
			s.observeSpan(&sp, http.StatusTooManyRequests)
			return
		}
		defer release()
		s.reg.SetGauge(MetricInFlight, float64(s.adm.inFlight()))
		s.reg.SetGauge(MetricQueueDepth, float64(s.adm.queued()))

		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()

		sn := s.src.Acquire()
		sp.EndAcquire()
		if sn == nil {
			http.Error(w, "no snapshot loaded", http.StatusServiceUnavailable)
			s.observeSpan(&sp, http.StatusServiceUnavailable)
			return
		}
		defer sn.Release()

		if d := s.testQueryDelay; d > 0 {
			// Chaos seam: pretend the query is expensive, but stay
			// deadline-aware like a real expensive query would.
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
			}
		}
		if err := ctx.Err(); err != nil {
			http.Error(w, "deadline exceeded", http.StatusServiceUnavailable)
			s.observeSpan(&sp, http.StatusServiceUnavailable)
			return
		}

		if err := fn(w, r.WithContext(ctx), sn, &sp); err != nil {
			sp.EndHandler()
			var qe *queryError
			status := http.StatusInternalServerError
			if errors.As(err, &qe) {
				status = qe.status
			}
			if qe != nil {
				http.Error(w, qe.msg, status)
			} else {
				http.Error(w, err.Error(), status)
			}
			s.observeSpan(&sp, status)
			if status == http.StatusNotFound {
				// A well-formed lookup that found nothing (/size of a dead
				// label) ran the full query path and is served latency, not
				// an error: it belongs in the histogram.
				hist.Record(sp.TotalNs)
			}
			return
		}
		sp.EndHandler()
		s.reg.Add(RequestsMetric(name), 1)
		s.observeSpan(&sp, http.StatusOK)
		hist.Record(sp.TotalNs)
	}
}

// observeSpan finishes a request span and offers it to the slow-query log.
func (s *Server) observeSpan(sp *obs.RequestSpan, status int) {
	sp.Finish(status)
	if s.slow != nil {
		s.slow.Observe(sp)
	}
}

// queryError carries an HTTP status with a handler error.
type queryError struct {
	status int
	msg    string
}

func (e *queryError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &queryError{http.StatusBadRequest, fmt.Sprintf(format, args...)}
}

func notFound(format string, args ...any) error {
	return &queryError{http.StatusNotFound, fmt.Sprintf(format, args...)}
}

// vertexParam parses and bounds-checks a vertex-id query parameter.
func vertexParam(r *http.Request, sn *Snapshot, key string) (uint32, error) {
	raw := r.URL.Query().Get(key)
	if raw == "" {
		return 0, badRequest("missing query parameter %q", key)
	}
	v, err := strconv.ParseUint(raw, 10, 32)
	if err != nil {
		return 0, badRequest("bad vertex id %q: %v", raw, err)
	}
	if int(v) >= sn.NumVertices() {
		return 0, notFound("vertex %d out of range [0,%d)", v, sn.NumVertices())
	}
	return uint32(v), nil
}

// writeJSON encodes the response body, crediting the encode+write time to
// the span's encode phase (sp may be nil for control-plane endpoints).
func writeJSON(w http.ResponseWriter, sp *obs.RequestSpan, v any) error {
	if sp != nil {
		sp.EndHandler()
	}
	w.Header().Set("Content-Type", "application/json")
	err := json.NewEncoder(w).Encode(v)
	if sp != nil {
		sp.EndEncode()
	}
	return err
}

func (s *Server) handleComponent(w http.ResponseWriter, r *http.Request, sn *Snapshot, sp *obs.RequestSpan) error {
	v, err := vertexParam(r, sn, "v")
	if err != nil {
		return err
	}
	c := sn.ComponentOf(v)
	return writeJSON(w, sp, map[string]any{
		"vertex": v, "component": c, "size": sn.SizeOf(c),
	})
}

func (s *Server) handleSame(w http.ResponseWriter, r *http.Request, sn *Snapshot, sp *obs.RequestSpan) error {
	u, err := vertexParam(r, sn, "u")
	if err != nil {
		return err
	}
	v, err := vertexParam(r, sn, "v")
	if err != nil {
		return err
	}
	return writeJSON(w, sp, map[string]any{
		"u": u, "v": v, "same": sn.ComponentOf(u) == sn.ComponentOf(v),
	})
}

func (s *Server) handleSize(w http.ResponseWriter, r *http.Request, sn *Snapshot, sp *obs.RequestSpan) error {
	raw := r.URL.Query().Get("c")
	if raw == "" {
		return badRequest("missing query parameter \"c\"")
	}
	c, err := strconv.ParseUint(raw, 10, 32)
	if err != nil {
		return badRequest("bad component label %q: %v", raw, err)
	}
	size := sn.SizeOf(uint32(c))
	if size == 0 {
		return notFound("no component labelled %d", c)
	}
	return writeJSON(w, sp, map[string]any{"component": uint32(c), "size": size})
}

func (s *Server) handleCensus(w http.ResponseWriter, _ *http.Request, sn *Snapshot, sp *obs.RequestSpan) error {
	label, size := sn.Largest()
	body := map[string]any{
		"path":       sn.Path,
		"vertices":   sn.NumVertices(),
		"edges":      sn.Graph.NumEdges(),
		"components": sn.NumComponents(),
		"largest":    map[string]any{"label": label, "size": size},
		"loaded":     sn.Loaded.Format(time.RFC3339Nano),
	}
	if st := sn.Result.Stats; st != nil {
		algo := st.Algorithm
		if st.Selected != "" {
			algo = st.Selected
		}
		body["algorithm"] = string(algo)
		body["solve_ns"] = st.Duration.Nanoseconds()
	}
	return writeJSON(w, sp, body)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	ready, reason := s.Ready()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !ready {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "not ready: "+reason)
		return
	}
	fmt.Fprintln(w, "ready")
}

// handleReload is the endpoint-triggered hot reload. POST-only: it mutates
// serving state. It is a control-plane operation and deliberately bypasses
// query admission — an operator must be able to reload a saturated server.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "reload requires POST", http.StatusMethodNotAllowed)
		return
	}
	err := s.Reload(r.Context())
	switch {
	case errors.Is(err, ErrReloadInProgress):
		http.Error(w, err.Error(), http.StatusConflict)
	case err != nil:
		http.Error(w, fmt.Sprintf("reload failed, still serving previous snapshot: %v", err),
			http.StatusInternalServerError)
	default:
		sn := s.src.Acquire()
		if sn == nil {
			// The freshly reloaded snapshot was retired before we could
			// reference it (concurrent shutdown); the reload itself stuck.
			http.Error(w, "reloaded, but no snapshot available", http.StatusServiceUnavailable)
			return
		}
		defer sn.Release()
		_ = writeJSON(w, nil, map[string]any{
			"reloaded":   true,
			"vertices":   sn.NumVertices(),
			"components": sn.NumComponents(),
		})
	}
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "thriftyd connectivity query server")
	fmt.Fprintln(w, "  /component?v=ID     component label and size of vertex ID")
	fmt.Fprintln(w, "  /same?u=ID&v=ID     whether u and v are connected")
	fmt.Fprintln(w, "  /size?c=LABEL       vertex count of component LABEL")
	fmt.Fprintln(w, "  /census             component census of the loaded graph")
	fmt.Fprintln(w, "  /reload (POST)      re-ingest, re-solve and swap the graph")
	fmt.Fprintln(w, "  /metrics            Prometheus text metrics (histograms + counters)")
	fmt.Fprintln(w, "  /healthz /readyz    liveness / readiness")
}
