package obs

import (
	"time"

	"thriftylp/internal/atomicx"
)

// This file is the request-scoped span layer of the serving telemetry:
// every thriftyd request gets an ID and a RequestSpan that records where
// its time went (queue wait, snapshot acquire, handler, encode) with one
// clock read per phase boundary, and a SlowLog that turns the spans worth
// keeping — the slow ones, rate-capped — into thriftylp/trace/v1 JSONL
// records an operator can tail. The fast path deliberately does no I/O, no
// formatting, and no locking: a span is five time reads and a handful of
// subtractions; whether it becomes a log record is decided by two atomic
// compares after the response has already been written.

// reqID hands out process-unique request ids.
var reqID atomicx.Int64

// NextRequestID returns a process-unique request id (monotone from 1).
func NextRequestID() uint64 { return uint64(reqID.Add(1)) }

// RequestSpan records the phase boundaries of one served request. Create
// with StartSpan at arrival, call the End* methods at each boundary in
// order (each is one time read; missed boundaries stay zero), and Finish
// once the response is written. A span is owned by its request goroutine —
// no method is safe for concurrent use.
type RequestSpan struct {
	ID       uint64
	Endpoint string
	Start    time.Time
	// Status is the HTTP status the request was answered with.
	Status int
	// Phase durations, in nanoseconds. Zero means the phase was never
	// reached (a shed request has only QueueNs) or took under a nanosecond.
	QueueNs   int64 // admission: arrival → slot granted (or shed)
	AcquireNs int64 // snapshot acquire: slot → reference held
	HandlerNs int64 // handler: reference → response body produced
	EncodeNs  int64 // encode: body produced → bytes written
	// TotalNs is arrival → Finish, set by Finish.
	TotalNs int64

	last        int64 // ns since Start at the previous boundary
	handlerDone bool
	encodeDone  bool
}

// StartSpan begins a span for one request against endpoint: one clock read.
func StartSpan(endpoint string) RequestSpan {
	return RequestSpan{ID: NextRequestID(), Endpoint: endpoint, Start: time.Now()}
}

// mark returns the nanoseconds since the previous boundary and advances it.
func (sp *RequestSpan) mark() int64 {
	t := time.Since(sp.Start).Nanoseconds()
	d := t - sp.last
	sp.last = t
	return d
}

// EndQueue closes the admission phase (slot granted, or the request shed).
func (sp *RequestSpan) EndQueue() { sp.QueueNs = sp.mark() }

// EndAcquire closes the snapshot-acquire phase.
func (sp *RequestSpan) EndAcquire() { sp.AcquireNs = sp.mark() }

// EndHandler closes the handler phase. Idempotent: the encoder calls it
// before writing (so encode time is not charged to the handler) and the
// serving envelope calls it again after the handler returns, which is a
// no-op when the encoder already did.
func (sp *RequestSpan) EndHandler() {
	if sp.handlerDone {
		return
	}
	sp.handlerDone = true
	sp.HandlerNs = sp.mark()
}

// EndEncode closes the encode phase. Idempotent like EndHandler; requests
// answered without a JSON body (errors, sheds) simply never reach it.
func (sp *RequestSpan) EndEncode() {
	if sp.encodeDone {
		return
	}
	sp.encodeDone = true
	sp.EncodeNs = sp.mark()
}

// Finish stamps the status and total duration. The total is one fresh
// clock read, so it covers trailing work after the last phase boundary.
func (sp *RequestSpan) Finish(status int) {
	sp.Status = status
	sp.TotalNs = time.Since(sp.Start).Nanoseconds()
}

// record converts the span to its stable external trace form.
func (sp *RequestSpan) record() TraceRecord {
	rec := TraceRecord{
		Schema:    TraceSchema,
		ReqID:     sp.ID,
		Endpoint:  sp.Endpoint,
		Status:    sp.Status,
		QueueNs:   sp.QueueNs,
		AcquireNs: sp.AcquireNs,
		HandlerNs: sp.HandlerNs,
		EncodeNs:  sp.EncodeNs,
	}
	rec.Kind = KindRequest
	rec.Duration = time.Duration(sp.TotalNs)
	return rec
}

// SlowLog is the sampled slow-query JSONL log: spans whose total latency
// reaches Threshold are written as Kind "request" trace records, but never
// more often than one per MinGap — a full-tilt overload cannot turn the
// trace file into a second overload. Observe is cheap for the fast path
// (one int compare) and lock-free for the slow one (a CAS on the last-emit
// clock); only the winning record pays the JSON encode.
type SlowLog struct {
	w *TraceWriter
	// threshold is the minimum TotalNs a span must reach to be logged.
	threshold int64
	// minGap is the minimum nanosecond spacing between logged records.
	minGap int64

	lastEmit atomicx.Int64 // unix ns of the last logged record
	logged   atomicx.Int64
	dropped  atomicx.Int64
}

// NewSlowLog builds a slow-query log writing to w. Spans at or above
// threshold are logged, rate-capped at maxPerSec records per second
// (maxPerSec <= 0 means uncapped). threshold <= 0 logs every finished
// request the rate cap admits — useful in tests and smoke jobs.
func NewSlowLog(w *TraceWriter, threshold time.Duration, maxPerSec int) *SlowLog {
	l := &SlowLog{w: w, threshold: threshold.Nanoseconds()}
	if maxPerSec > 0 {
		l.minGap = int64(time.Second) / int64(maxPerSec)
	}
	return l
}

// Observe offers a finished span to the log. It returns true when the span
// was written (tests and diagnostics; production callers ignore it).
func (l *SlowLog) Observe(sp *RequestSpan) bool {
	if sp.TotalNs < l.threshold {
		return false
	}
	if l.minGap > 0 {
		now := time.Now().UnixNano()
		last := l.lastEmit.Load()
		if now-last < l.minGap || !l.lastEmit.CompareAndSwap(last, now) {
			// Inside the gap, or lost the slot to a concurrent slow span:
			// count the drop so the scrape can report sampling pressure.
			l.dropped.Add(1)
			return false
		}
	}
	if err := l.w.Write(sp.record()); err != nil {
		l.dropped.Add(1)
		return false
	}
	l.logged.Add(1)
	return true
}

// WriteRecord writes one non-request record (reload and ingest spans)
// through the log's writer, bypassing threshold and rate gates — those
// events are rare and always worth keeping.
func (l *SlowLog) WriteRecord(rec TraceRecord) error { return l.w.Write(rec) }

// Logged returns the number of records written.
func (l *SlowLog) Logged() int64 { return l.logged.Load() }

// Dropped returns the number of spans that crossed the threshold but were
// suppressed by the rate cap (or lost to a write error).
func (l *SlowLog) Dropped() int64 { return l.dropped.Load() }

// Flush forces buffered records to the underlying file. The serving drain
// path calls it so a SIGTERM cannot truncate the final records.
func (l *SlowLog) Flush() error { return l.w.Flush() }

// Close flushes and closes the underlying writer.
func (l *SlowLog) Close() error { return l.w.Close() }
