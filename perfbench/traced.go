package main

// The traced run. After one set-up it runs three phases over the
// workload's request list:
//
//	A  the untraced closed loop, as the measured run does;
//	B  the same loop over the next requests of the list, with every counter
//	   the program exports read before and after (/metrics, CacheStats,
//	   DistStats, runtime/metrics);
//	C  a replay of phase B's requests through each layer's public
//	   functions, each call timed from outside.
//
// Phase B's counter deltas give the jobs, jobcache, dist, obs and process
// metrics; phase C gives the pipeline layers' times. B's p50 minus A's is
// the tracing overhead; the blocking layers' summed times over A's p50 is
// the coverage.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"time"

	"headroom"
	"headroom/internal/core"
	"headroom/internal/jobcache"
	"headroom/internal/metrics"
	"headroom/internal/obs/prom"
	"headroom/internal/server"
	"headroom/internal/trace"
)

// Phase shares of the run's seconds.
const (
	phaseAShare = 0.3
	phaseBShare = 0.3
	phaseCShare = 0.4
	// minReplays layer replays run even past phase C's time share.
	minReplays = 2
)

// counters is one reading of everything the program exports.
type counters struct {
	prom      scrape
	cache     jobcache.Stats
	distOpen  int
	distPeers int
	rt        runtimeSnap
}

func readCounters(r rig) (counters, error) {
	var c counters
	var text []byte
	switch r := r.(type) {
	case *httpRig:
		resp, err := r.client.Get(r.entry().base + "/metrics")
		if err != nil {
			return c, fmt.Errorf("scrape /metrics: %w", err)
		}
		text, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return c, fmt.Errorf("scrape /metrics: %w", err)
		}
		c.cache = r.entry().srv.CacheStats()
		c.distOpen, c.distPeers = r.entry().srv.DistStats()
	default:
		// In-process workloads have no server: read the process-wide stage
		// registry /metrics would render.
		var buf bytes.Buffer
		if _, err := prom.Default.WriteText(&buf); err != nil {
			return c, err
		}
		text = buf.Bytes()
	}
	c.prom = parseScrape(text)
	c.rt = readRuntime()
	return c, nil
}

// layerSample is one phase C replay: the time spent in each layer call.
type layerSample struct {
	decode, key, render, handler time.Duration // server, jobcache
	sim, add, merge, summarise   time.Duration // sim, metrics
	encode, decodeAgg            time.Duration // metrics wire codec
	aggregate, plan              time.Duration // session, core
	traceDecode, replaySplit     time.Duration // trace, replay sharding
	critical                     time.Duration // blocking path, see coverage
	records, wireBytes, shards   int
	traceBytes                   int64
	aggHeap                      uint64
	skew, eff                    float64
}

func tracedRun(ctx context.Context, w *workload, p params) (*report, error) {
	rep := &report{workload: w.name, seed: p.seed}
	one := p
	one.setups = 1
	r, _, err := setUp(ctx, w, one, rep)
	if err != nil {
		return nil, err
	}
	defer func() {
		if r != nil {
			r.close()
		}
	}()

	secs := p.seconds.Seconds()
	a := closedLoop(w.clients, time.Duration(phaseAShare*secs*float64(time.Second)), 0, p.limit, r.op)
	before, err := readCounters(r)
	if err != nil {
		return nil, err
	}
	var (
		mu     sync.Mutex
		hashes = map[int][32]byte{}
	)
	first := a.last + 1
	b := closedLoop(w.clients, time.Duration(phaseBShare*secs*float64(time.Second)), first, p.limit,
		func(c, i int) (time.Duration, [32]byte, error) {
			lat, h, err := r.op(c, i)
			if err == nil {
				mu.Lock()
				hashes[i] = h
				mu.Unlock()
			}
			return lat, h, err
		})
	after, err := readCounters(r)
	if err != nil {
		return nil, err
	}
	rep.attempted = a.attempted + b.attempted
	rep.failed = a.failed + b.failed
	rep.digest = a.digest()
	for _, e := range append(a.errs, b.errs...) {
		rep.note("failure: %s", e)
	}
	if len(a.lats) == 0 || len(b.lats) == 0 {
		return nil, errNoWork
	}

	// Phase C: replay phase B's successful requests, in list order.
	var samples []layerSample
	deadline := time.Now().Add(time.Duration(phaseCShare * secs * float64(time.Second)))
	for i := first; i <= b.last; i++ {
		want, ok := hashes[i]
		if !ok {
			continue
		}
		if len(samples) >= minReplays && (time.Now().After(deadline) || (p.limit > 0 && len(samples) >= p.limit)) {
			break
		}
		s, err := replay(ctx, r, i, want)
		if err != nil {
			rep.problem("layer replay of request %d: %v", i, err)
			break
		}
		samples = append(samples, s)
	}
	var respBytes float64
	if hr, ok := r.(*httpRig); ok {
		respBytes = ratio(float64(hr.respBytes.Load()), float64(hr.responses.Load()))
	}
	err = r.close()
	r = nil
	if err != nil {
		rep.problem("shutdown: %v", err)
	}

	p50A, p50B := median(sorted(a.lats)), median(sorted(b.lats))
	rep.note("phase A (untraced): %d requests, p50 %.3f ms; phase B (counters read around it): %d requests, p50 %.3f ms; phase C: %d layer replays",
		len(a.lats), ms(p50A), len(b.lats), ms(p50B), len(samples))
	rep.note("result digest of requests 0..%d: %s", digestN-1, rep.digest)
	emitLayers(rep, w.name, samples, before, after, b.attempted, p50A, p50B, respBytes)
	return rep, nil
}

// replay runs request i of the rig's list through the layers.
func replay(ctx context.Context, r rig, i int, want [32]byte) (layerSample, error) {
	switch r := r.(type) {
	case *httpRig:
		if r.hot != nil {
			return replayHit(r, i)
		}
		return replayPlan(ctx, r.body(i), r.dist, want)
	case *traceRig:
		return replayTrace(ctx, r)
	}
	return layerSample{}, fmt.Errorf("no layer replay for %T", r)
}

// replayPlan takes a plan request apart: strict decode and canonical key
// (server, jobcache), record generation per shard into a slice (sim), the
// aggregator's bulk add (metrics), when distributed each shard as a worker
// runs it plus its wire round trip, the merge and the summaries; then the
// session's sharded aggregation as the server runs it, the planner and
// server.BuildPlanResult. The rendered result must hash to the served one.
func replayPlan(ctx context.Context, body []byte, distributed bool, want [32]byte) (layerSample, error) {
	var l layerSample
	t := time.Now()
	req, err := decodePlanRequest(body)
	l.decode = time.Since(t)
	if err != nil {
		return l, err
	}
	t = time.Now()
	if _, err := jobcache.Key("plan", req); err != nil {
		return l, err
	}
	l.key = time.Since(t)
	cfg, err := req.Fleet()
	if err != nil {
		return l, err
	}

	subs := headroom.NewSimSource(cfg, req.Days).Shards(serverShards)
	l.shards = len(subs)
	aggs := make([]*headroom.Aggregator, len(subs))
	var recs []headroom.Record
	for k, sub := range subs {
		recs = recs[:0]
		t = time.Now()
		err := sub.Stream(ctx, func(rec headroom.Record) error { recs = append(recs, rec); return nil })
		l.sim += time.Since(t)
		if err != nil {
			return l, err
		}
		l.records += len(recs)
		aggs[k] = metrics.NewAggregator()
		t = time.Now()
		aggs[k].AddAll(recs)
		l.add += time.Since(t)
	}
	recs = nil
	var slowest time.Duration
	if distributed {
		aggs, slowest, err = workerShards(ctx, cfg, req.Days, len(subs), &l)
		if err != nil {
			return l, err
		}
	}
	merged, err := mergeAndSummarise(aggs, &l)
	if err != nil {
		return l, err
	}
	aggs = nil
	l.aggHeap = heapHeldBy(merged)

	src := headroom.NewSimSource(cfg, req.Days)
	agg, err := sessionAggregate(ctx, src, &l)
	if err != nil {
		return l, err
	}
	t = time.Now()
	plans, err := core.Plan(ctx, agg, req.PlanConfig())
	l.plan = time.Since(t)
	if err != nil {
		return l, err
	}
	t = time.Now()
	raw, err := json.Marshal(server.BuildPlanResult(req, plans, nil))
	l.render = time.Since(t)
	if err != nil {
		return l, err
	}
	if sha256.Sum256(raw) != want {
		return l, errors.New("library result differs from the served result")
	}
	// The blocking path: the slowest shard (with its wire round trip when
	// distributed) or the local sharded aggregation, then merge, plan and
	// render, behind decode and key.
	aggPath := l.aggregate
	if distributed {
		aggPath = slowest + l.merge
	}
	l.critical = l.decode + l.key + aggPath + l.plan + l.render
	return l, nil
}

// workerShards runs each shard as a dist worker does (Session.AggregateShard)
// and takes its aggregate through the wire codec and back, as the
// coordinator receives it. It returns the decoded aggregates and the
// slowest shard's time including its round trip through the codec.
func workerShards(ctx context.Context, cfg headroom.FleetConfig, days, of int, l *layerSample) ([]*headroom.Aggregator, time.Duration, error) {
	sess, err := headroom.New(ctx, headroom.WithSource(headroom.NewSimSource(cfg, days)))
	if err != nil {
		return nil, 0, err
	}
	aggs := make([]*headroom.Aggregator, of)
	var slowest time.Duration
	for k := range aggs {
		t := time.Now()
		agg, _, err := sess.AggregateShard(ctx, k, of)
		if err != nil {
			return nil, 0, err
		}
		run := time.Since(t)
		t = time.Now()
		wire, err := headroom.EncodeAggregator(agg)
		enc := time.Since(t)
		if err != nil {
			return nil, 0, err
		}
		t = time.Now()
		aggs[k], err = headroom.DecodeAggregator(wire)
		dec := time.Since(t)
		if err != nil {
			return nil, 0, err
		}
		l.encode += enc
		l.decodeAgg += dec
		l.wireBytes += len(wire)
		slowest = max(slowest, run+enc+dec)
	}
	return aggs, slowest, nil
}

// mergeAndSummarise merges per-shard aggregates in shard order and builds
// every key's pool series and server summaries, timing both.
func mergeAndSummarise(aggs []*headroom.Aggregator, l *layerSample) (*headroom.Aggregator, error) {
	t := time.Now()
	merged := aggs[0]
	for _, a := range aggs[1:] {
		merged.Merge(a)
	}
	l.merge = time.Since(t)
	t = time.Now()
	for _, key := range merged.Pools() {
		if _, err := merged.PoolSeries(key.DC, key.Pool); err != nil {
			return nil, err
		}
		if _, err := merged.ServerSummaries(key.DC, key.Pool); err != nil {
			return nil, err
		}
	}
	l.summarise = time.Since(t)
	return merged, nil
}

// heapHeldBy returns the live heap an aggregate holds: the live heap after
// a collection with it reachable, minus the same without it.
func heapHeldBy(agg *headroom.Aggregator) uint64 {
	with := heapAfterGC()
	runtime.KeepAlive(agg)
	agg = nil
	without := heapAfterGC()
	if with < without {
		return 0
	}
	return with - without
}

// sessionAggregate runs the session's sharded aggregation as the server
// does and derives shard skew and parallel efficiency from its per-shard
// stage events.
func sessionAggregate(ctx context.Context, src headroom.Source, l *layerSample) (*headroom.Aggregator, error) {
	var (
		mu     sync.Mutex
		shards []time.Duration
	)
	sess, err := headroom.New(ctx,
		headroom.WithSource(src),
		headroom.WithShards(serverShards),
		headroom.WithObserver(func(ev headroom.StageEvent) {
			if ev.Stage == "aggregate.shard" {
				mu.Lock()
				shards = append(shards, ev.Duration)
				mu.Unlock()
			}
		}))
	if err != nil {
		return nil, err
	}
	t := time.Now()
	agg, err := sess.Aggregate(ctx, nil)
	l.aggregate = time.Since(t)
	if err != nil {
		return nil, err
	}
	var busy, slowest time.Duration
	for _, d := range shards {
		busy += d
		slowest = max(slowest, d)
	}
	if n := len(shards); n > 0 {
		l.skew = float64(slowest) / (float64(busy) / float64(n))
		l.eff = float64(busy) / (float64(n) * float64(l.aggregate))
	}
	return agg, nil
}

// replayHit serves one hot request through the layers a cache hit
// crosses: strict decode and key, then the server's handler in process
// (no socket). The handler's response must carry the set-up bytes.
func replayHit(r *httpRig, i int) (layerSample, error) {
	var l layerSample
	h := &r.hot[r.hotIndex(i)]
	t := time.Now()
	req, err := decodePlanRequest(h.body)
	l.decode = time.Since(t)
	if err != nil {
		return l, err
	}
	t = time.Now()
	if _, err := jobcache.Key("plan", req); err != nil {
		return l, err
	}
	l.key = time.Since(t)
	hreq := httptest.NewRequest(http.MethodPost, "/v1/plan?wait=true", bytes.NewReader(h.body))
	rec := httptest.NewRecorder()
	t = time.Now()
	r.entry().srv.Handler().ServeHTTP(rec, hreq)
	l.handler = time.Since(t)
	body := rec.Body.Bytes()
	at := bytes.Index(body, resultTag)
	if rec.Code != http.StatusOK || at < 0 || !bytes.HasPrefix(body[at+len(resultTag):], h.indented) {
		return l, fmt.Errorf("in-process hit: HTTP %d, result differs from set-up bytes", rec.Code)
	}
	l.critical = l.handler
	return l, nil
}

// replayTrace takes the capplan sequence apart: CSV decode (trace), the
// aggregator's bulk add, the replay source's split into shards, per-shard
// replay into aggregates and their merge and summaries (metrics), the
// session's sharded replay (session) and the planner (core).
func replayTrace(ctx context.Context, r *traceRig) (layerSample, error) {
	var l layerSample
	f, err := os.Open(r.path)
	if err != nil {
		return l, err
	}
	t := time.Now()
	recs, err := trace.ReadCSV(f)
	l.traceDecode = time.Since(t)
	f.Close()
	if err != nil {
		return l, err
	}
	l.records = len(recs)
	l.traceBytes = r.size

	agg := metrics.NewAggregator()
	t = time.Now()
	agg.AddAll(recs)
	l.add = time.Since(t)
	agg = nil

	t = time.Now()
	subs := headroom.NewReplaySource(recs).Shards(serverShards)
	l.replaySplit = time.Since(t)
	aggs := make([]*headroom.Aggregator, len(subs))
	for k, sub := range subs {
		a := metrics.NewAggregator()
		if err := sub.Stream(ctx, func(rec headroom.Record) error { a.Add(rec); return nil }); err != nil {
			return l, err
		}
		aggs[k] = a
	}
	merged, err := mergeAndSummarise(aggs, &l)
	if err != nil {
		return l, err
	}
	aggs = nil
	l.aggHeap = heapHeldBy(merged)

	sessAgg, err := sessionAggregate(ctx, headroom.NewReplaySource(recs), &l)
	if err != nil {
		return l, err
	}
	t = time.Now()
	plans, err := core.Plan(ctx, sessAgg, r.plan)
	l.plan = time.Since(t)
	if err != nil {
		return l, err
	}
	if h, err := r.check(plans); err != nil || h != r.want {
		return l, errors.New("layer-by-layer trace plan differs from the measured result")
	}
	l.critical = l.traceDecode + l.aggregate + l.plan
	return l, nil
}

// uncovered names, per workload, what the layer replay does not time.
var uncovered = map[string]string{
	"plan-cold":  "HTTP/socket, job queue hand-off and job-view encoding",
	"plan-dist":  "HTTP/socket, coordinator dispatch, base64-in-JSON shard bodies and worker request handling",
	"serve-hot":  "the socket: client and server HTTP over loopback",
	"trace-plan": "opening the trace file and building the replay source",
}

// emitLayers turns the phase B counter deltas and the phase C samples into
// the per-layer metrics. A layer the workload does not cross reads 0.
func emitLayers(rep *report, name string, samples []layerSample, before, after counters, requests int, p50A, p50B time.Duration, respBytes float64) {
	units := map[string]string{}
	for _, m := range perLayer {
		units[m.name] = m.unit
		rep.set(m.name, 0, m.unit)
	}
	put := func(metric string, v float64) { rep.set(metric, v, units[metric]) }
	med := func(f func(l layerSample) float64) float64 {
		xs := make([]float64, len(samples))
		for i, l := range samples {
			xs[i] = f(l)
		}
		return medianOf(xs)
	}
	perRecord := func(d time.Duration, n int) float64 { return ratio(float64(d), float64(n)) }
	perShard := func(v float64, l layerSample) float64 { return ratio(v, float64(l.shards)) }

	pipeline := name != "serve-hot"
	httpLoad := name != "trace-plan"
	if pipeline {
		put("metrics.add_ns_per_record", med(func(l layerSample) float64 { return perRecord(l.add, l.records) }))
		put("metrics.merge_ms", med(func(l layerSample) float64 { return ms(l.merge) }))
		put("metrics.summarise_ms", med(func(l layerSample) float64 { return ms(l.summarise) }))
		put("metrics.agg_heap_mb", med(func(l layerSample) float64 { return float64(l.aggHeap) / (1 << 20) }))
		put("session.aggregate_ms", med(func(l layerSample) float64 { return ms(l.aggregate) }))
		put("session.shard_skew", med(func(l layerSample) float64 { return l.skew }))
		put("session.parallel_eff", med(func(l layerSample) float64 { return l.eff }))
		put("core.plan_ms", med(func(l layerSample) float64 { return ms(l.plan) }))
	}
	if pipeline && httpLoad {
		put("sim.records", med(func(l layerSample) float64 { return float64(l.records) }))
		put("sim.ns_per_record", med(func(l layerSample) float64 { return perRecord(l.sim, l.records) }))
		put("server.render_us", med(func(l layerSample) float64 { return us(l.render) }))
	}
	if httpLoad {
		put("server.decode_us", med(func(l layerSample) float64 { return us(l.decode) }))
		put("jobcache.key_us", med(func(l layerSample) float64 { return us(l.key) }))
		put("server.response_bytes", respBytes)
		hits := float64(after.cache.Hits - before.cache.Hits)
		misses := float64(after.cache.Misses - before.cache.Misses)
		shared := float64(after.cache.Shared - before.cache.Shared)
		hitFrac := ratio(hits, hits+misses+shared)
		put("jobcache.hit_frac", hitFrac)
		put("jobcache.shared", ratio(shared, float64(requests)))
		if want := map[bool]float64{true: 1, false: 0}[name == "serve-hot"]; hitFrac != want {
			rep.problem("jobcache.hit_frac is %g, want %g: the workload is not the one it claims", hitFrac, want)
		}
		put("jobs.queue_wait_ms", meanMs(before.prom, after.prom, "headroom_jobs_queue_wait_seconds"))
		put("jobs.run_ms", meanMs(before.prom, after.prom, "headroom_jobs_run_seconds"))
		put("jobs.rejected", ratio(delta(before.prom, after.prom, "capserved_queue_rejections_total"), float64(requests)))
		put("jobs.retries", ratio(delta(before.prom, after.prom, "capserved_job_retries_total"), float64(requests)))
	}
	switch name {
	case "plan-dist":
		put("metrics.encode_ms", med(func(l layerSample) float64 { return perShard(ms(l.encode), l) }))
		put("metrics.decode_ms", med(func(l layerSample) float64 { return perShard(ms(l.decodeAgg), l) }))
		put("metrics.wire_bytes_per_shard", med(func(l layerSample) float64 { return perShard(float64(l.wireBytes), l) }))
		b, a := before.prom, after.prom
		put("dist.shard_rtt_ms", meanMs(b, a, "capserved_dist_shard_latency_seconds"))
		put("dist.dispatches", ratio(delta(b, a, "capserved_dist_shards_dispatched_total"), float64(requests)))
		put("dist.reroutes", ratio(delta(b, a, "capserved_dist_reroutes_total"), float64(requests)))
		hedges := delta(b, a, "capserved_dist_hedges_total")
		put("dist.hedges", ratio(hedges, float64(requests)))
		put("dist.hedge_useful_frac", ratio(delta(b, a, "capserved_dist_hedge_wins_total"), hedges))
		if after.distOpen != 0 || after.distPeers != 2 {
			rep.problem("%d of %d worker breakers open after the run", after.distOpen, after.distPeers)
		}
	case "serve-hot":
		handler := med(func(l layerSample) float64 { return us(l.handler) })
		put("server.handler_hit_us", handler)
		put("server.socket_share", 1-handler/us(p50A))
	case "trace-plan":
		put("trace.decode_ms", med(func(l layerSample) float64 { return ms(l.traceDecode) }))
		put("trace.decode_ns_per_record", med(func(l layerSample) float64 { return perRecord(l.traceDecode, l.records) }))
		put("trace.bytes", med(func(l layerSample) float64 { return float64(l.traceBytes) }))
		put("session.replay_shard_ms", med(func(l layerSample) float64 { return ms(l.replaySplit) }))
	}
	for _, st := range []string{"aggregate", "merge", "plan"} {
		put("obs.stage_"+st+"_ms", meanMs(before.prom, after.prom, "headroom_stage_duration_seconds", `stage="`+st+`"`))
	}
	rt0, rt1 := before.rt, after.rt
	put("process.alloc_mb_per_req", ratio(float64(rt1.allocBytes-rt0.allocBytes)/(1<<20), float64(requests)))
	put("process.gc_cpu_frac", ratio(rt1.gcCPU-rt0.gcCPU, (rt1.totalCPU-rt0.totalCPU)-(rt1.idleCPU-rt0.idleCPU)))
	put("tracing.overhead_ms", ms(p50B-p50A))
	coverage := med(func(l layerSample) float64 { return ms(l.critical) }) / ms(p50A)
	put("tracing.coverage", coverage)
	rep.note("coverage %.3f of the untraced p50; the remaining %.3f is %s", coverage, 1-coverage, uncovered[name])
	if name == "plan-cold" || name == "plan-dist" || name == "trace-plan" {
		rep.note("obs.stage_* are means per observation of the process-wide stage histograms; in this single process they pool every server's stages (coordinator and workers alike)")
	}
}
