package server

// End-to-end distributed scale-out tests: an in-process cluster of capserved
// workers behind httptest, driven through the real HTTP surface. The
// acceptance criteria live here — byte-identity with single-node results,
// reroute on worker loss, partial-result degradation naming exactly the
// lost pools, remote shard spans in traces, and no goroutine leaks.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"headroom/internal/dist"
	"headroom/internal/faults"
	"headroom/internal/jobs"
	"headroom/internal/leakcheck"
	"headroom/internal/obs"
)

const e2eToken = "dist-e2e-token"

// distWorker is one worker node of a test cluster.
type distWorker struct {
	srv *Server
	ts  *httptest.Server
}

// newDistWorkers starts n capserved workers serving the internal shard
// endpoint, each with its own tracer so remote shard spans can be asserted
// per node.
func newDistWorkers(t testing.TB, n int, mutate func(i int, cfg *Config)) []distWorker {
	t.Helper()
	workers := make([]distWorker, n)
	for i := range workers {
		cfg := Config{
			Workers: 2, QueueDepth: 8, CacheSize: 16, JobTimeout: time.Minute,
			DistToken: e2eToken,
			Tracer:    obs.NewTracer(64),
		}
		if mutate != nil {
			mutate(i, &cfg)
		}
		srv := New(cfg)
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(func() {
			ts.Close()
			srv.Shutdown(context.Background())
		})
		workers[i] = distWorker{srv: srv, ts: ts}
	}
	return workers
}

// newCoordinator starts a coordinator distributing to the given workers.
func newCoordinator(t testing.TB, workers []distWorker, mutate func(cfg *Config)) (*Server, *httptest.Server) {
	t.Helper()
	peers := make([]string, len(workers))
	for i, w := range workers {
		peers[i] = w.ts.URL
	}
	cfg := Config{
		Workers: 2, QueueDepth: 8, CacheSize: 16, JobTimeout: time.Minute,
		Shards: 4, Peers: peers, DistToken: e2eToken,
		HedgeAfter: -1, // deterministic dispatch counts; hedging is unit-tested
		Tracer:     obs.NewTracer(64),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Shutdown(context.Background())
	})
	return srv, ts
}

// submitWait posts a job with ?wait=true and returns the terminal job view.
func submitWait(t testing.TB, base, path, body string) (int, jobView) {
	t.Helper()
	code, raw := postJSON(t, base+path+"?wait=true", body)
	var v jobView
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("unmarshal job view (%d: %s): %v", code, raw, err)
	}
	return code, v
}

// TestDistClusterByteIdentical is the headline acceptance test: a plan job
// distributed across a 3-worker cluster returns byte-for-byte the result a
// single-node server computes, the job status names the coordinator node
// and a worker per shard, and both sides' traces carry the shard spans.
func TestDistClusterByteIdentical(t *testing.T) {
	leakcheck.Check(t)
	const reqBody = `{"pools":["A","B","C","D"],"days":1,"seed":3}`

	// Single-node reference, same shard count.
	single := New(Config{Workers: 2, QueueDepth: 8, CacheSize: 16, JobTimeout: time.Minute, Shards: 4})
	singleTS := httptest.NewServer(single.Handler())
	t.Cleanup(func() {
		singleTS.Close()
		single.Shutdown(context.Background())
	})
	code, want := submitWait(t, singleTS.URL, "/v1/plan", reqBody)
	if code != http.StatusOK || want.State != jobs.Done {
		t.Fatalf("single-node plan = %d state %s: %s", code, want.State, want.Error)
	}

	workers := newDistWorkers(t, 3, nil)
	_, coordTS := newCoordinator(t, workers, nil)
	code, got := submitWait(t, coordTS.URL, "/v1/plan", reqBody)
	if code != http.StatusOK || got.State != jobs.Done {
		t.Fatalf("distributed plan = %d state %s: %s", code, got.State, got.Error)
	}

	if !bytes.Equal(got.Result, want.Result) {
		t.Errorf("distributed result differs from single-node:\n dist:   %s\n single: %s", got.Result, want.Result)
	}

	// Job status provenance: the coordinator's hostname and one placement
	// entry per shard, each naming a real worker.
	if got.Node == "" {
		t.Error("job view missing node")
	}
	if len(got.Placement) != 4 {
		t.Fatalf("placement entries = %d, want one per shard: %+v", len(got.Placement), got.Placement)
	}
	workerURLs := map[string]bool{}
	for _, w := range workers {
		workerURLs[w.ts.URL] = true
	}
	seenShards := map[int]bool{}
	for _, p := range got.Placement {
		if !workerURLs[p.AssignedWorker] {
			t.Errorf("shard %d assigned to unknown worker %q", p.Shard, p.AssignedWorker)
		}
		if len(p.Pools) == 0 {
			t.Errorf("shard %d placement missing pools", p.Shard)
		}
		seenShards[p.Shard] = true
	}
	if len(seenShards) != 4 {
		t.Errorf("placement covers shards %v, want 0-3", seenShards)
	}

	// Coordinator trace: one remote dispatch span per shard, each naming
	// the worker that answered.
	td := fetchTrace(t, coordTS.URL, got.TraceID)
	var dispatch []spanJSON
	for _, sd := range td.Spans {
		if sd.Name == "dist.shard" {
			dispatch = append(dispatch, sd)
		}
	}
	if len(dispatch) != 4 {
		t.Fatalf("dist.shard spans = %d, want one per shard (have %v)", len(dispatch), spanNames(td.Spans))
	}
	for _, sd := range dispatch {
		if w, _ := sd.Attrs["worker"].(string); !workerURLs[w] {
			t.Errorf("dist.shard span worker = %v, want a cluster worker", sd.Attrs["worker"])
		}
	}

	// Worker traces: across the cluster, exactly one dist.shard.serve span
	// per shard, each tagged with the coordinator's trace id.
	served := 0
	for _, w := range workers {
		for _, tr := range w.srv.Tracer().Traces() {
			for _, sd := range tr.Spans {
				if sd.Name != "dist.shard.serve" {
					continue
				}
				served++
				attrs := sd.Attrs.Map()
				if attrs["coordinator_trace_id"] != got.TraceID {
					t.Errorf("worker shard span coordinator_trace_id = %v, want %s",
						attrs["coordinator_trace_id"], got.TraceID)
				}
			}
		}
	}
	if served != 4 {
		t.Errorf("dist.shard.serve spans across workers = %d, want 4", served)
	}
}

// TestDistTelemetryMatchesLocal: a distributed job runs through the same
// session executor as a local one, so the coordinator's trace carries the
// local span tree — session.simulate → session.aggregate → one
// simulate.pool per shard, each wrapping its dist.shard dispatch — and its
// /metrics the same simulate, aggregate and merge stage series.
func TestDistTelemetryMatchesLocal(t *testing.T) {
	leakcheck.Check(t)
	workers := newDistWorkers(t, 3, nil)
	_, coordTS := newCoordinator(t, workers, nil)

	stages := []string{"simulate", "aggregate", "merge"}
	stageCount := func(stage string) float64 {
		_, body := getJSON(t, coordTS.URL+"/metrics")
		return metricValue(t, string(body), fmt.Sprintf(`headroom_stage_duration_seconds_count{stage="%s"}`, stage))
	}
	before := map[string]float64{}
	for _, st := range stages {
		before[st] = stageCount(st)
	}

	code, got := submitWait(t, coordTS.URL, "/v1/plan", `{"pools":["A","B","C","D"],"days":1,"seed":4}`)
	if code != http.StatusOK || got.State != jobs.Done {
		t.Fatalf("distributed plan = %d state %s: %s", code, got.State, got.Error)
	}

	td := fetchTrace(t, coordTS.URL, got.TraceID)
	byID := map[uint64]spanJSON{}
	children := map[uint64][]spanJSON{}
	for _, sd := range td.Spans {
		byID[sd.SpanID] = sd
		children[sd.ParentID] = append(children[sd.ParentID], sd)
	}
	named := func(spans []spanJSON, name string) []spanJSON {
		var out []spanJSON
		for _, sd := range spans {
			if sd.Name == name {
				out = append(out, sd)
			}
		}
		return out
	}
	sim := named(td.Spans, "session.simulate")
	if len(sim) != 1 {
		t.Fatalf("session.simulate spans = %d, want 1 (have %v)", len(sim), spanNames(td.Spans))
	}
	agg := named(children[sim[0].SpanID], "session.aggregate")
	if len(agg) != 1 {
		t.Fatalf("session.aggregate under session.simulate = %d, want 1 (have %v)", len(agg), spanNames(td.Spans))
	}
	shards := named(children[agg[0].SpanID], "simulate.pool")
	if len(shards) != 4 {
		t.Fatalf("simulate.pool under session.aggregate = %d, want one per shard (have %v)", len(shards), spanNames(td.Spans))
	}
	for _, sd := range shards {
		if n := len(named(children[sd.SpanID], "dist.shard")); n != 1 {
			t.Errorf("simulate.pool shard %v has %d dist.shard children, want 1", sd.Attrs["shard"], n)
		}
	}
	if n := len(named(td.Spans, "dist.shard")); n != 4 {
		t.Errorf("dist.shard spans = %d, want 4", n)
	}

	for _, st := range stages {
		if after := stageCount(st); after <= before[st] {
			t.Errorf("stage %s histogram count %g -> %g: the distributed job recorded no %s stage", st, before[st], after, st)
		}
	}
}

// TestDistUnavailableFleetRetriesJob: when every worker answers 503, a
// non-partial distributed job fails with the failing shard's own transient
// error, and the job queue retries it like any local transient failure.
func TestDistUnavailableFleetRetriesJob(t *testing.T) {
	leakcheck.Check(t)
	unavailable := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	})
	workers := make([]distWorker, 2)
	for i := range workers {
		ts := httptest.NewServer(unavailable)
		t.Cleanup(ts.Close)
		workers[i] = distWorker{ts: ts}
	}
	_, coordTS := newCoordinator(t, workers, nil)

	_, got := submitWait(t, coordTS.URL, "/v1/simulate", `{"pools":["A","B"],"days":1}`)
	if got.State != jobs.Failed {
		t.Fatalf("simulate against an unavailable fleet = state %s, want failed", got.State)
	}
	if strings.Contains(got.Error, "shards failed") {
		t.Errorf("job error = %q, want the failing shard's own error, not a partial-results summary", got.Error)
	}
	_, body := getJSON(t, coordTS.URL+"/metrics")
	if n := metricValue(t, string(body), `capserved_job_retries_total{kind="simulate"}`); n == 0 {
		t.Error("capserved_job_retries_total = 0: the transient distributed failure was not retried")
	}
}

// TestDistWorkerLossReroutes kills one worker and verifies the job still
// completes with the full, byte-identical result: every shard the dead
// worker owned reroutes to its fallback.
func TestDistWorkerLossReroutes(t *testing.T) {
	leakcheck.Check(t)
	const reqBody = `{"pools":["A","B","C","D"],"days":1,"seed":5}`

	single := New(Config{Workers: 2, QueueDepth: 8, CacheSize: 16, JobTimeout: time.Minute, Shards: 4})
	singleTS := httptest.NewServer(single.Handler())
	t.Cleanup(func() {
		singleTS.Close()
		single.Shutdown(context.Background())
	})
	_, want := submitWait(t, singleTS.URL, "/v1/simulate", reqBody)
	if want.State != jobs.Done {
		t.Fatalf("single-node simulate failed: %s", want.Error)
	}

	workers := newDistWorkers(t, 3, nil)
	coord, coordTS := newCoordinator(t, workers, nil)

	// Kill one worker before the job: its shards' dispatches fail at
	// connect and must reroute to the next-ranked worker.
	workers[1].ts.Close()

	code, got := submitWait(t, coordTS.URL, "/v1/simulate", reqBody)
	if code != http.StatusOK || got.State != jobs.Done {
		t.Fatalf("simulate with dead worker = %d state %s: %s", code, got.State, got.Error)
	}
	if !bytes.Equal(got.Result, want.Result) {
		t.Errorf("rerouted result differs from single-node:\n dist:   %s\n single: %s", got.Result, want.Result)
	}
	for _, p := range got.Placement {
		if p.AssignedWorker == workers[1].ts.URL {
			t.Errorf("shard %d reported as served by the dead worker", p.Shard)
		}
	}
	if open, total := coord.DistStats(); total != 3 {
		t.Errorf("DistStats total = %d, want 3 (open %d)", total, open)
	}
}

// TestDistPartialDegraded injects a permanent fault for pool B on every
// worker: with partial results enabled the distributed job must degrade,
// naming exactly the lost pool, and the degraded result must never be
// cached.
func TestDistPartialDegraded(t *testing.T) {
	leakcheck.Check(t)
	workers := newDistWorkers(t, 3, func(i int, cfg *Config) {
		cfg.Faults = faults.New(1,
			faults.Rule{Kind: faults.Permanent, Pools: []string{"B"}, At: []int{0}, Msg: "injected outage"})
	})
	coord, coordTS := newCoordinator(t, workers, func(cfg *Config) {
		cfg.PartialResults = true
	})

	code, got := submitWait(t, coordTS.URL, "/v1/simulate", `{"pools":["A","B","C","D"],"days":1}`)
	if code != http.StatusOK || got.State != jobs.Done {
		t.Fatalf("degraded simulate = %d state %s: %s", code, got.State, got.Error)
	}
	var res SimulateResult
	if err := json.Unmarshal(got.Result, &res); err != nil {
		t.Fatalf("unmarshal result: %v", err)
	}
	if !res.Degraded {
		t.Fatal("result not marked degraded")
	}
	if len(res.FailedPools) != 1 || res.FailedPools[0] != "B" {
		t.Errorf("failed_pools = %v, want exactly [B]", res.FailedPools)
	}
	for _, p := range res.Pools {
		if p.Pool == "B" {
			t.Errorf("degraded result still contains failed pool B")
		}
	}
	pools := map[string]bool{}
	for _, p := range res.Pools {
		pools[p.Pool] = true
	}
	for _, p := range []string{"A", "C", "D"} {
		if !pools[p] {
			t.Errorf("degraded result missing surviving pool %s", p)
		}
	}
	if st := coord.CacheStats(); st.Uncacheable == 0 {
		t.Error("degraded distributed result was not marked uncacheable")
	}
}

// TestDistAllShardsFailedNoPartial: with partial results off, a permanent
// shard failure fails the whole job (422 on wait), mirroring single-node
// semantics.
func TestDistPermanentFailureFailsJob(t *testing.T) {
	leakcheck.Check(t)
	workers := newDistWorkers(t, 2, func(i int, cfg *Config) {
		cfg.Faults = faults.New(1,
			faults.Rule{Kind: faults.Permanent, Pools: []string{"B"}, At: []int{0}})
	})
	_, coordTS := newCoordinator(t, workers, nil)
	code, got := submitWait(t, coordTS.URL, "/v1/simulate", `{"pools":["A","B"],"days":1}`)
	if code != http.StatusUnprocessableEntity || got.State != jobs.Failed {
		t.Fatalf("simulate = %d state %s, want 422/failed", code, got.State)
	}
	if !strings.Contains(got.Error, "injected") && !strings.Contains(got.Error, "shard") {
		t.Errorf("job error does not surface the shard failure: %s", got.Error)
	}
}

// TestDistReadyzDegraded drives every peer's breaker open (all dispatches
// fail against dead addresses) and asserts /readyz flips to degraded once
// more than half the fleet is unavailable.
func TestDistReadyzDegraded(t *testing.T) {
	leakcheck.Check(t)
	// Two peers that refuse connections: every dispatch fails fast, and
	// the per-worker breakers (threshold 3) open within one 4-shard job.
	srv := New(Config{
		Workers: 2, QueueDepth: 8, CacheSize: 16, JobTimeout: 30 * time.Second,
		Shards: 4, HedgeAfter: -1, ShardTimeout: 5 * time.Second,
		Peers:     []string{"http://127.0.0.1:1", "http://127.0.0.1:2"},
		DistToken: e2eToken,
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Shutdown(context.Background())
	})

	if code, body := getJSON(t, ts.URL+"/readyz"); code != http.StatusOK {
		t.Fatalf("readyz before any dispatch = %d: %s", code, body)
	}

	code, got := submitWait(t, ts.URL, "/v1/simulate", `{"pools":["A","B","C","D"],"days":1}`)
	if got.State != jobs.Failed {
		t.Fatalf("simulate against dead fleet = %d state %s, want failure", code, got.State)
	}
	open, total := srv.DistStats()
	if total != 2 || open != 2 {
		t.Fatalf("DistStats = %d/%d open, want 2/2 after repeated connect failures", open, total)
	}

	code, body := getJSON(t, ts.URL+"/readyz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("readyz with open fleet = %d: %s", code, body)
	}
	var rz struct {
		Status    string `json:"status"`
		PeersOpen int    `json:"peers_open"`
		Peers     int    `json:"peers"`
	}
	if err := json.Unmarshal(body, &rz); err != nil {
		t.Fatalf("unmarshal readyz: %v", err)
	}
	if rz.Status != "degraded" || rz.PeersOpen != 2 || rz.Peers != 2 {
		t.Errorf("readyz = %+v, want degraded 2/2", rz)
	}
}

// TestDistInternalShardAuth: the internal endpoint rejects missing or wrong
// tokens and is absent entirely on nodes without a DistToken.
func TestDistInternalShardAuth(t *testing.T) {
	leakcheck.Check(t)
	workers := newDistWorkers(t, 1, nil)
	url := workers[0].ts.URL + dist.DefaultPath
	body := `{"days":1,"seed":1,"pools":["B"],"shard":0,"of":1}`

	for name, token := range map[string]string{"missing": "", "wrong": "not-the-token"} {
		req, _ := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
		if token != "" {
			req.Header.Set(dist.TokenHeader, token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s token: %v", name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusForbidden {
			t.Errorf("%s token = %d, want 403", name, resp.StatusCode)
		}
	}

	// Correct token: the worker computes the shard and returns a decodable
	// aggregate.
	req, _ := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	req.Header.Set(dist.TokenHeader, e2eToken)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid shard request = %d", resp.StatusCode)
	}
	var sr shardResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatalf("decode shard response: %v", err)
	}
	if sr.Records == 0 || len(sr.Agg) == 0 || sr.Node == "" {
		t.Errorf("shard response = %+v, want records, agg bytes and node", sr)
	}

	// A node without DistToken must not serve the endpoint at all.
	bare := New(Config{Workers: 1, QueueDepth: 4, CacheSize: 4, JobTimeout: time.Minute})
	bareTS := httptest.NewServer(bare.Handler())
	t.Cleanup(func() {
		bareTS.Close()
		bare.Shutdown(context.Background())
	})
	code, _ := postJSON(t, bareTS.URL+dist.DefaultPath, body)
	if code != http.StatusNotFound {
		t.Errorf("shard endpoint on tokenless node = %d, want 404", code)
	}
}

// TestDistMetricsExposed asserts the capserved_dist_* inventory appears on
// the coordinator's /metrics after a distributed job.
func TestDistMetricsExposed(t *testing.T) {
	leakcheck.Check(t)
	workers := newDistWorkers(t, 2, nil)
	_, coordTS := newCoordinator(t, workers, nil)
	if _, got := submitWait(t, coordTS.URL, "/v1/simulate", `{"pools":["A","B"],"days":1}`); got.State != jobs.Done {
		t.Fatalf("simulate failed: %s", got.Error)
	}
	_, body := getJSON(t, coordTS.URL+"/metrics")
	text := string(body)
	for _, family := range []string{
		"capserved_dist_shards_dispatched_total",
		"capserved_dist_shard_failures_total",
		"capserved_dist_shard_latency_seconds",
		"capserved_dist_reroutes_total",
		"capserved_dist_hedges_total",
		"capserved_dist_hedge_wins_total",
		"capserved_dist_breaker_skips_total",
		"capserved_dist_shards_exhausted_total",
		"capserved_dist_breaker_transitions_total",
		"capserved_dist_peers",
		"capserved_dist_peers_open",
		"capserved_dist_worker_breaker_state",
	} {
		if !strings.Contains(text, family) {
			t.Errorf("/metrics missing %s", family)
		}
	}
	// At least one dispatch happened.
	if !strings.Contains(text, `capserved_dist_shards_dispatched_total{peer="`) {
		t.Error("no per-peer dispatch counter rendered")
	}
	var dispatched float64
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "capserved_dist_shards_dispatched_total{") {
			var v float64
			if _, err := fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%g", &v); err == nil {
				dispatched += v
			}
		}
	}
	if dispatched < 1 {
		t.Errorf("total dispatched = %g, want >= 1", dispatched)
	}
}
