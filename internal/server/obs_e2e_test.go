package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"headroom/internal/jobs"
	"headroom/internal/obs"
)

// spanJSON mirrors obs.SpanData's wire shape; attrs decode as a generic map
// (AttrList marshals to an object, so it can't round-trip into the slice).
type spanJSON struct {
	SpanID   uint64         `json:"span_id"`
	ParentID uint64         `json:"parent_id"`
	Name     string         `json:"name"`
	Start    time.Time      `json:"start"`
	Duration time.Duration  `json:"duration_ns"`
	Attrs    map[string]any `json:"attrs"`
}

type traceJSON struct {
	TraceID string     `json:"trace_id"`
	Spans   []spanJSON `json:"spans"`
}

// TestPlanJobEndToEndObservability runs a sharded plan job through the full
// HTTP surface and asserts the acceptance criteria: the response carries a
// trace id, /debug/traces contains that trace with one span per aggregation
// shard plus the queue-wait and stage spans with consistent durations, and
// /metrics exposes a stage histogram for every stage that ran.
func TestPlanJobEndToEndObservability(t *testing.T) {
	tracer := obs.NewTracer(32)
	s := New(Config{
		Workers: 2, QueueDepth: 8, CacheSize: 16, JobTimeout: time.Minute,
		Shards: 2, Tracer: tracer,
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Shutdown(context.Background())
	})

	// Two pools on two shards so the trace must carry two simulate.pool
	// spans.
	resp, err := http.Post(ts.URL+"/v1/plan?wait=true", "application/json",
		strings.NewReader(`{"pools":["B","D"],"days":1}`))
	if err != nil {
		t.Fatalf("POST plan: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plan = %d", resp.StatusCode)
	}
	headerTrace := resp.Header.Get("X-Trace-Id")
	if headerTrace == "" {
		t.Fatal("response missing X-Trace-Id")
	}
	if resp.Header.Get("X-Request-Id") == "" {
		t.Fatal("response missing X-Request-Id")
	}
	var v jobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode job: %v", err)
	}
	if v.State != jobs.Done {
		t.Fatalf("job state = %s: %s", v.State, v.Error)
	}
	if v.TraceID == "" {
		t.Fatal("job JSON missing trace_id")
	}
	if v.TraceID != headerTrace {
		t.Fatalf("job trace_id %q != X-Trace-Id %q", v.TraceID, headerTrace)
	}

	td := fetchTrace(t, ts.URL, v.TraceID)

	spans := map[string][]spanJSON{}
	byID := map[uint64]spanJSON{}
	for _, sd := range td.Spans {
		spans[sd.Name] = append(spans[sd.Name], sd)
		byID[sd.SpanID] = sd
	}
	for _, name := range []string{
		"jobs.job", "jobs.queued", "jobs.attempt",
		"session.simulate", "session.aggregate", "session.merge", "session.plan",
	} {
		if len(spans[name]) == 0 {
			t.Errorf("trace missing span %q (have %v)", name, spanNames(td.Spans))
		}
	}
	// One simulate.pool span per shard, each naming its pool.
	shardSpans := spans["simulate.pool"]
	if len(shardSpans) != 2 {
		t.Fatalf("simulate.pool spans = %d, want one per shard", len(shardSpans))
	}
	pools := map[string]bool{}
	for _, sd := range shardSpans {
		for _, p := range strings.Split(fmt.Sprint(sd.Attrs["pool"]), ",") {
			pools[p] = true
		}
		if sd.Attrs["records"] == nil {
			t.Errorf("shard span missing records attr: %v", sd.Attrs)
		}
	}
	if !pools["B"] || !pools["D"] {
		t.Errorf("shard spans cover pools %v, want B and D", pools)
	}
	// Queue-wait span carries the measured wait and matches the job span's
	// attribute; JSON numbers decode as float64.
	queued := spans["jobs.queued"][0]
	jobSpan := spans["jobs.job"][0]
	qw, _ := queued.Attrs["queue_wait_ns"].(float64)
	jw, _ := jobSpan.Attrs["queue_wait_ns"].(float64)
	if qw != jw {
		t.Errorf("queue_wait_ns disagree: queued span %v, job span %v", qw, jw)
	}
	if queued.Duration != time.Duration(qw) {
		t.Errorf("jobs.queued duration %d != queue_wait_ns %v", queued.Duration, qw)
	}
	// Duration consistency: every child fits inside its parent's window
	// (with a small tolerance for clock reads on either side of End).
	for _, sd := range td.Spans {
		p, ok := byID[sd.ParentID]
		if !ok {
			continue
		}
		if sd.Start.Before(p.Start.Add(-time.Millisecond)) {
			t.Errorf("span %s starts before parent %s", sd.Name, p.Name)
		}
		if end, pend := sd.Start.Add(sd.Duration), p.Start.Add(p.Duration); end.After(pend.Add(time.Millisecond)) {
			t.Errorf("span %s (ends %v) outruns parent %s (ends %v)", sd.Name, end, p.Name, pend)
		}
	}

	// Every executed stage must have a histogram series on /metrics.
	_, mbody := getJSON(t, ts.URL+"/metrics")
	metrics := string(mbody)
	for _, stage := range []string{"simulate", "aggregate", "merge", "plan"} {
		want := fmt.Sprintf(`headroom_stage_duration_seconds_count{stage="%s"}`, stage)
		line := metricLine(metrics, want)
		if line == "" {
			t.Errorf("metrics missing %s", want)
			continue
		}
		if strings.HasSuffix(line, " 0") {
			t.Errorf("stage %s ran but histogram count is zero: %s", stage, line)
		}
	}
	if !strings.Contains(metrics, `headroom_simulate_shard_duration_seconds_count{shard="1"}`) {
		t.Error("metrics missing per-shard simulate histogram")
	}
	for _, want := range []string{
		"headroom_jobs_queue_wait_seconds_count",
		"headroom_jobs_run_seconds_count",
		`capserved_http_requests_total{handler="plan"}`,
		`capserved_jobs_completed_total{kind="plan",state="done"}`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %s", want)
		}
	}
}

func TestRequestIDPropagationAndErrorTraceID(t *testing.T) {
	tracer := obs.NewTracer(8)
	s := New(Config{Workers: 1, QueueDepth: 4, CacheSize: 4, JobTimeout: time.Minute, Tracer: tracer})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Shutdown(context.Background())
	})

	// A caller-supplied request id is echoed back, not replaced.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/plan", strings.NewReader(`{"bad json`))
	req.Header.Set("X-Request-Id", "req-e2e-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-Id"); got != "req-e2e-42" {
		t.Errorf("X-Request-Id = %q, want echo", got)
	}
	// Error bodies carry the trace id so a failing client report can be
	// matched to its trace.
	var e struct {
		Error   string `json:"error"`
		TraceID string `json:"trace_id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("decode error body: %v", err)
	}
	if e.TraceID == "" || e.TraceID != resp.Header.Get("X-Trace-Id") {
		t.Errorf("error body trace_id %q != header %q", e.TraceID, resp.Header.Get("X-Trace-Id"))
	}
}

func TestDebugGoroutinesEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	code, body := getJSON(t, ts.URL+"/debug/goroutines")
	if code != http.StatusOK {
		t.Fatalf("goroutines = %d: %s", code, body)
	}
	var g struct {
		Total      int               `json:"total"`
		Count      int               `json:"count"`
		Goroutines []json.RawMessage `json:"goroutines"`
	}
	if err := json.Unmarshal(body, &g); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if g.Total == 0 || g.Count != len(g.Goroutines) {
		t.Fatalf("dump = total %d count %d len %d", g.Total, g.Count, len(g.Goroutines))
	}
	// min_age filters out every young goroutine in a fresh test process.
	code, body = getJSON(t, ts.URL+"/debug/goroutines?min_age=10m")
	if code != http.StatusOK {
		t.Fatalf("filtered = %d", code)
	}
	if err := json.Unmarshal(body, &g); err != nil {
		t.Fatal(err)
	}
	if g.Count != 0 {
		t.Errorf("min_age=10m kept %d goroutines", g.Count)
	}
	code, _ = getJSON(t, ts.URL+"/debug/goroutines?min_age=banana")
	if code != http.StatusBadRequest {
		t.Errorf("bad min_age = %d, want 400", code)
	}
}

func TestDebugTracesChromeExport(t *testing.T) {
	tracer := obs.NewTracer(8)
	s := New(Config{Workers: 1, QueueDepth: 4, CacheSize: 4, JobTimeout: time.Minute, Tracer: tracer})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Shutdown(context.Background())
	})
	code, body := postJSON(t, ts.URL+"/v1/simulate?wait=true", `{"pools":["B"],"days":1}`)
	if code != http.StatusOK {
		t.Fatalf("simulate = %d: %s", code, body)
	}
	code, body = getJSON(t, ts.URL+"/debug/traces?format=chrome")
	if code != http.StatusOK {
		t.Fatalf("chrome export = %d", code)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	var sawComplete bool
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Name == "session.simulate" {
			sawComplete = true
		}
	}
	if !sawComplete {
		t.Error("chrome export missing session.simulate complete event")
	}
}

// fetchTrace polls /debug/traces?id= until the middleware has ended the
// root span (its Duration turns nonzero) — the trace is registered at root
// start, so it is visible before the request fully unwinds.
func fetchTrace(t *testing.T, base, id string) traceJSON {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, body := getJSON(t, base+"/debug/traces?id="+id)
		if code == http.StatusOK {
			var out struct {
				Traces []traceJSON `json:"traces"`
			}
			if err := json.Unmarshal(body, &out); err != nil {
				t.Fatalf("unmarshal traces: %v", err)
			}
			if len(out.Traces) == 1 {
				td := out.Traces[0]
				for _, sd := range td.Spans {
					if strings.HasPrefix(sd.Name, "http.") && sd.Duration > 0 {
						return td
					}
				}
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %s never completed", id)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func spanNames(spans []spanJSON) []string {
	out := make([]string, len(spans))
	for i, sd := range spans {
		out[i] = sd.Name
	}
	return out
}

func metricLine(out, substr string) string {
	for _, ln := range strings.Split(out, "\n") {
		if strings.Contains(ln, substr) {
			return ln
		}
	}
	return ""
}
