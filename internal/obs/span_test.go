package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"thriftylp/internal/counters"
)

// TestRequestSpanPhases walks one span through every boundary and checks
// the phase accounting: ids are unique, phases are non-negative, the encode
// boundaries are idempotent, and the total covers the phases.
func TestRequestSpanPhases(t *testing.T) {
	sp := StartSpan("component")
	sp2 := StartSpan("component")
	if sp.ID == 0 || sp.ID == sp2.ID {
		t.Fatalf("request ids not unique: %d, %d", sp.ID, sp2.ID)
	}
	sp.EndQueue()
	sp.EndAcquire()
	sp.EndHandler()
	firstHandler := sp.HandlerNs
	sp.EndHandler() // idempotent: the envelope re-ends after the encoder did
	if sp.HandlerNs != firstHandler {
		t.Error("EndHandler not idempotent")
	}
	sp.EndEncode()
	firstEncode := sp.EncodeNs
	sp.EndEncode()
	if sp.EncodeNs != firstEncode {
		t.Error("EndEncode not idempotent")
	}
	sp.Finish(200)
	if sp.Status != 200 {
		t.Errorf("status = %d", sp.Status)
	}
	phases := sp.QueueNs + sp.AcquireNs + sp.HandlerNs + sp.EncodeNs
	if sp.TotalNs < phases {
		t.Errorf("total %dns less than the phases it contains (%dns)", sp.TotalNs, phases)
	}

	rec := sp.record()
	if rec.Kind != KindRequest || rec.Schema != TraceSchema {
		t.Errorf("record kind/schema = %q/%q", rec.Kind, rec.Schema)
	}
	if rec.ReqID != sp.ID || rec.Endpoint != "component" || rec.Duration.Nanoseconds() != sp.TotalNs {
		t.Errorf("record did not carry the span: %+v", rec)
	}
}

// TestSlowLogThreshold checks the gate: fast spans are skipped, slow ones
// written as request records.
func TestSlowLogThreshold(t *testing.T) {
	var buf bytes.Buffer
	l := NewSlowLog(NewTraceWriter(&buf), 50*time.Millisecond, 0)

	fast := StartSpan("same")
	fast.Finish(200)
	if l.Observe(&fast) {
		t.Error("fast span was logged")
	}
	slow := StartSpan("same")
	slow.TotalNs = (60 * time.Millisecond).Nanoseconds()
	slow.Status = 200
	if !l.Observe(&slow) {
		t.Error("slow span was not logged")
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := l.Logged(); got != 1 {
		t.Errorf("Logged = %d, want 1", got)
	}
	if out := buf.String(); !strings.Contains(out, `"kind":"request"`) || !strings.Contains(out, `"endpoint":"same"`) {
		t.Errorf("unexpected record: %s", out)
	}
}

// TestSlowLogRateCap checks the sampling gate: an overload of slow spans
// produces at most maxPerSec records per second, the rest counted dropped —
// concurrently, since the CAS gate is what makes that safe.
func TestSlowLogRateCap(t *testing.T) {
	var buf bytes.Buffer
	l := NewSlowLog(NewTraceWriter(&buf), 0, 1) // 1 record/s, log everything offered

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp := StartSpan("census")
			sp.TotalNs = 1
			l.Observe(&sp)
		}()
	}
	wg.Wait()
	if got := l.Logged(); got != 1 {
		t.Errorf("Logged = %d, want exactly 1 under a 1/s cap", got)
	}
	if got := l.Dropped(); got != 15 {
		t.Errorf("Dropped = %d, want 15", got)
	}
}

// TestSlowLogWriteRecord checks the bypass for reload/ingest records: no
// threshold, no rate gate.
func TestSlowLogWriteRecord(t *testing.T) {
	var buf bytes.Buffer
	l := NewSlowLog(NewTraceWriter(&buf), time.Hour, 1)
	for i := 0; i < 3; i++ {
		rec := TraceRecord{Schema: TraceSchema, IterRecord: counters.IterRecord{Kind: KindReload}, SolveNs: 1}
		if err := l.WriteRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), `"kind":"reload"`); got != 3 {
		t.Errorf("%d reload records, want 3:\n%s", got, buf.String())
	}
}
