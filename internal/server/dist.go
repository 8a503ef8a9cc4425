package server

// Distributed scale-out: the worker half (the authenticated internal shard
// endpoint) and the coordinator half (fan a job's shards out to the peer
// fleet and merge the returned aggregates).
//
// The contract that makes this safe is bit-identity: shards own disjoint
// (pool, datacenter) keys, sources are deterministic, and the aggregator
// wire codec preserves every float64 bit — so a job distributed across N
// capserved processes returns byte-for-byte the result a single process
// would have computed. Placement is rendezvous-hashed on each shard's pool
// names, dispatches reroute/hedge around slow or dead workers, and with
// partial results enabled a shard that exhausts every worker degrades the
// job instead of failing it.

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"

	"headroom"
	"headroom/internal/breaker"
	"headroom/internal/dist"
	"headroom/internal/jobs"
	"headroom/internal/obs"
	"headroom/internal/obs/prom"
)

// shardRequest is the wire request of POST /v1/internal/shard: the original
// simulate parameters plus the shard coordinates. The worker rebuilds the
// identical deterministic source from (days, seed, pools) and streams only
// shard `shard` of `of`.
type shardRequest struct {
	Days  int      `json:"days"`
	Seed  int64    `json:"seed"`
	Pools []string `json:"pools,omitempty"`
	Shard int      `json:"shard"`
	Of    int      `json:"of"`
}

// shardResponse is the worker's reply: the shard's aggregate in the exact
// binary wire format (base64 inside JSON), plus provenance.
type shardResponse struct {
	Node    string   `json:"node"`
	Shard   int      `json:"shard"`
	Of      int      `json:"of"`
	Pools   []string `json:"pools,omitempty"`
	Records int64    `json:"records"`
	Agg     []byte   `json:"agg"`
}

// ShardPlacement records where one shard of a distributed job ran, surfaced
// in the job status JSON.
type ShardPlacement struct {
	Shard          int      `json:"shard"`
	Pools          []string `json:"pools,omitempty"`
	AssignedWorker string   `json:"assigned_worker"`
	Hedged         bool     `json:"hedged,omitempty"`
	Attempts       int      `json:"attempts,omitempty"`
}

// placementMetaKey is the jobs.Annotate key the coordinator stores shard
// placements under.
const placementMetaKey = "placement"

// distMetrics holds the coordinator-side capserved_dist_* series.
type distMetrics struct {
	dispatched  map[string]*prom.Counter   // by peer
	failures    map[string]*prom.Counter   // by peer
	latency     map[string]*prom.Histogram // by peer
	transitions map[string]map[breaker.State]*prom.Counter
	reroutes    *prom.Counter
	hedges      *prom.Counter
	hedgeWins   *prom.Counter
	skips       *prom.Counter
	exhausted   *prom.Counter
}

// initDist builds the dist client and its metrics; called from New when
// Config.Peers is non-empty. Invalid distribution config is a deployment
// error, not a request error, so it panics like a bad flag would.
func (s *Server) initDist() {
	client, err := dist.New(dist.Config{
		Peers:        s.cfg.Peers,
		Token:        s.cfg.DistToken,
		Transport:    s.cfg.DistTransport,
		ShardTimeout: s.cfg.ShardTimeout,
		HedgeAfter:   s.cfg.HedgeAfter,
		Clock:        s.cfg.Clock,
		Logger:       s.cfg.Logger,
		OnEvent:      s.onDistEvent,
	})
	if err != nil {
		panic(fmt.Sprintf("server: distributed config: %v", err))
	}
	s.dist = client

	m := &s.distM
	m.dispatched = map[string]*prom.Counter{}
	m.failures = map[string]*prom.Counter{}
	m.latency = map[string]*prom.Histogram{}
	m.transitions = map[string]map[breaker.State]*prom.Counter{}
	for _, peer := range client.Peers() {
		m.dispatched[peer] = s.reg.Counter("capserved_dist_shards_dispatched_total",
			"Shard dispatches sent to a worker (reroutes and hedges included).", prom.Labels{"peer": peer})
		m.failures[peer] = s.reg.Counter("capserved_dist_shard_failures_total",
			"Shard dispatch attempts that failed, by worker.", prom.Labels{"peer": peer})
		m.latency[peer] = s.reg.Histogram("capserved_dist_shard_latency_seconds",
			"Successful shard dispatch latency, by worker.", prom.Labels{"peer": peer}, prom.DefBuckets)
		byState := map[breaker.State]*prom.Counter{}
		for _, st := range []breaker.State{breaker.Closed, breaker.Open, breaker.HalfOpen} {
			byState[st] = s.reg.Counter("capserved_dist_breaker_transitions_total",
				"Worker circuit-breaker transitions, by destination state.",
				prom.Labels{"peer": peer, "to": st.String()})
		}
		m.transitions[peer] = byState
		peer := peer
		s.reg.Gauge("capserved_dist_worker_breaker_state",
			"Worker circuit-breaker position (0 closed, 1 open, 2 half-open).", prom.Labels{"peer": peer},
			func() float64 { return float64(client.BreakerState(peer)) })
	}
	m.reroutes = s.reg.Counter("capserved_dist_reroutes_total",
		"Shards rerouted to a fallback worker after a transient failure.", nil)
	m.hedges = s.reg.Counter("capserved_dist_hedges_total",
		"Hedged (duplicate) shard dispatches launched for slow primaries.", nil)
	m.hedgeWins = s.reg.Counter("capserved_dist_hedge_wins_total",
		"Hedged dispatches that answered before the primary.", nil)
	m.skips = s.reg.Counter("capserved_dist_breaker_skips_total",
		"Candidate workers skipped because their breaker was open.", nil)
	m.exhausted = s.reg.Counter("capserved_dist_shards_exhausted_total",
		"Shards that failed on every available worker.", nil)
	s.reg.Gauge("capserved_dist_peers", "Configured distributed workers.", nil,
		func() float64 { _, total := client.OpenBreakers(); return float64(total) })
	s.reg.Gauge("capserved_dist_peers_open", "Workers whose circuit breaker is open.", nil,
		func() float64 { open, _ := client.OpenBreakers(); return float64(open) })
}

// onDistEvent feeds dispatch lifecycle events into the dist metric series.
func (s *Server) onDistEvent(ev dist.Event) {
	m := &s.distM
	switch ev.Kind {
	case dist.EventDispatch:
		if c, ok := m.dispatched[ev.Peer]; ok {
			c.Inc()
		}
	case dist.EventSuccess:
		if h, ok := m.latency[ev.Peer]; ok {
			h.Observe(ev.Latency.Seconds())
		}
	case dist.EventFailure:
		if c, ok := m.failures[ev.Peer]; ok {
			c.Inc()
		}
	case dist.EventReroute:
		m.reroutes.Inc()
	case dist.EventHedge:
		m.hedges.Inc()
	case dist.EventHedgeWin:
		m.hedgeWins.Inc()
	case dist.EventSkip:
		m.skips.Inc()
	case dist.EventExhausted:
		m.exhausted.Inc()
	case dist.EventBreaker:
		if by, ok := m.transitions[ev.Peer]; ok {
			if c, ok := by[ev.To]; ok {
				c.Inc()
			}
		}
	}
}

// --- worker half ---------------------------------------------------------

// handleInternalShard serves POST /v1/internal/shard: authenticate, rebuild
// the deterministic source, run exactly one shard through the session
// machinery, and return the encoded aggregate. Registered only when a
// DistToken is configured.
func (s *Server) handleInternalShard(w http.ResponseWriter, r *http.Request) {
	if subtle.ConstantTimeCompare([]byte(r.Header.Get(dist.TokenHeader)), []byte(s.cfg.DistToken)) != 1 {
		writeJSON(w, http.StatusForbidden, errBody(r, "invalid or missing "+dist.TokenHeader))
		return
	}
	// Shard work bypasses the job queue (the coordinator already holds a
	// queue slot for the whole job), so a separate semaphore bounds it; at
	// capacity the worker answers 503 and the coordinator reroutes.
	select {
	case s.shardSem <- struct{}{}:
		defer func() { <-s.shardSem }()
	default:
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errBody(r, "shard capacity exhausted"))
		return
	}

	body, err := io.ReadAll(io.LimitReader(r.Body, s.cfg.MaxBodyBytes+1))
	if err != nil || int64(len(body)) > s.cfg.MaxBodyBytes {
		s.m.badRequests.Inc()
		writeJSON(w, http.StatusBadRequest, errBody(r, "unreadable or oversized body"))
		return
	}
	var sreq shardRequest
	if err := decode(body, &sreq); err != nil {
		s.badRequest(w, r, err)
		return
	}
	if sreq.Of < 1 || sreq.Shard < 0 || sreq.Shard >= sreq.Of {
		s.badRequest(w, r, fmt.Errorf("shard %d/%d out of range", sreq.Shard, sreq.Of))
		return
	}
	simReq := SimulateRequest{Days: sreq.Days, Seed: sreq.Seed, Pools: sreq.Pools}
	if err := simReq.Normalize(); err != nil {
		s.badRequest(w, r, err)
		return
	}
	cfg, err := simReq.Fleet()
	if err != nil {
		s.badRequest(w, r, err)
		return
	}

	// The coordinator's trace id rides in as a span attribute so operators
	// can hop from a job's trace to the worker-side shard spans.
	ctx, sp := obs.StartSpan(r.Context(), "dist.shard.serve",
		obs.Int("shard", sreq.Shard), obs.Int("of", sreq.Of),
		obs.Str("coordinator_trace_id", r.Header.Get(dist.TraceHeader)))
	defer sp.End()

	src := s.wrapSource(headroom.NewSimSource(cfg, simReq.Days), simReq.Seed)
	sess, err := headroom.New(context.Background(), headroom.WithSource(src))
	if err != nil {
		sp.RecordError(err)
		writeJSON(w, http.StatusInternalServerError, errBody(r, err.Error()))
		return
	}
	agg, records, err := sess.AggregateShard(ctx, sreq.Shard, sreq.Of)
	if err != nil {
		sp.RecordError(err)
		// Transient shard failures (and this worker shutting down) are the
		// coordinator's cue to reroute; anything else is permanent for this
		// request on every worker.
		if headroom.IsTransient(err) || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			writeJSON(w, http.StatusServiceUnavailable, errBody(r, err.Error()))
			return
		}
		writeJSON(w, http.StatusUnprocessableEntity, errBody(r, err.Error()))
		return
	}
	enc, err := headroom.EncodeAggregator(agg)
	if err != nil {
		sp.RecordError(err)
		writeJSON(w, http.StatusInternalServerError, errBody(r, err.Error()))
		return
	}
	sp.SetAttr(obs.Int64("records", records), obs.Int("bytes", len(enc)))
	writeJSON(w, http.StatusOK, shardResponse{
		Node:    s.hostname,
		Shard:   sreq.Shard,
		Of:      sreq.Of,
		Pools:   shardPoolNames(src, sreq.Shard, sreq.Of),
		Records: records,
		Agg:     enc,
	})
}

// wrapSource applies the fault injector and resilience layer to a raw
// source, exactly as single-node aggregation does, so a worker's shard
// behaves identically to the same shard run locally.
func (s *Server) wrapSource(src headroom.Source, seed int64) headroom.Source {
	if s.cfg.Faults != nil {
		src = s.cfg.Faults.Source(src)
	}
	if s.cfg.RetryAttempts > 0 {
		src = headroom.ResilientSource(src, headroom.RetryPolicy{
			MaxAttempts: s.cfg.RetryAttempts,
			Backoff:     s.cfg.RetryBackoff,
			Seed:        seed,
			OnRetry:     func(int, error) { s.m.sourceRetries.Inc() },
		})
	}
	return src
}

// shardPoolNames resolves the pool names of shard index/of of src, when the
// source can name them.
func shardPoolNames(src headroom.Source, index, of int) []string {
	if of == 1 {
		return poolNames(src)
	}
	sh, ok := src.(headroom.ShardedSource)
	if !ok {
		return nil
	}
	subs := sh.Shards(of)
	if index >= len(subs) {
		return nil
	}
	return poolNames(subs[index])
}

func poolNames(src headroom.Source) []string {
	if pn, ok := src.(headroom.PoolNamer); ok {
		return pn.PoolNames()
	}
	return nil
}

// --- coordinator half ----------------------------------------------------

// remoteSource is the coordinator's record source for a distributed job.
// It splits exactly like the request's simulator source — every worker
// reproduces the identical split from (days, seed, pools) — but its shards
// aggregate on the worker fleet: each carries its coordinates (index, of)
// and pool names, and implements headroom.ShardAggregator by dispatching
// itself. The coordinator therefore runs the same Session fan-out, merge,
// partial-results handling and stage telemetry as a local job; only the
// source differs.
type remoteSource struct {
	client    *dist.Client
	req       SimulateRequest
	split     headroom.ShardedSource // the simulator source the shards mirror
	index, of int
	pools     []string
	placed    *placements
}

func (s *Server) newRemoteSource(req SimulateRequest, split headroom.ShardedSource) *remoteSource {
	return &remoteSource{client: s.dist, req: req, split: split, of: 1, pools: poolNames(split), placed: &placements{}}
}

// Stream is never called: shards aggregate on workers (see Aggregate).
func (r *remoteSource) Stream(context.Context, func(headroom.Record) error) error {
	return errors.New("server: a distributed shard aggregates on a worker and does not stream records")
}

// PoolNames attributes a failed shard to the pools it carried.
func (r *remoteSource) PoolNames() []string { return r.pools }

// Shards splits like the simulator source, so `of` is the actual shard
// count (never more than asked, fewer when the request has fewer pools).
func (r *remoteSource) Shards(n int) []headroom.Source {
	subs := r.split.Shards(n)
	out := make([]headroom.Source, len(subs))
	for i, sub := range subs {
		sh := *r
		sh.index, sh.of, sh.pools = i, len(subs), poolNames(sub)
		out[i] = &sh
	}
	return out
}

// Aggregate dispatches the shard to the worker fleet, decodes the returned
// aggregate and records where it ran. A dispatch that failed for want of a
// healthy worker is marked headroom.Transient, so the job queue retries the
// job; so is an undecodable reply, which the worker may answer cleanly on
// retry.
func (r *remoteSource) Aggregate(ctx context.Context) (*headroom.Aggregator, int64, error) {
	key := strings.Join(r.pools, ",")
	if key == "" {
		key = "shard-" + strconv.Itoa(r.index)
	}
	body, err := json.Marshal(shardRequest{
		Days: r.req.Days, Seed: r.req.Seed, Pools: r.req.Pools, Shard: r.index, Of: r.of,
	})
	if err != nil {
		return nil, 0, err
	}
	dctx, sp := obs.StartSpan(ctx, "dist.shard", obs.Int("shard", r.index), obs.Str("pool", key))
	res, err := r.client.Dispatch(dctx, dist.Shard{Key: key, Index: r.index, Of: r.of, Body: body})
	if err == nil {
		sp.SetAttr(obs.Str("worker", res.Worker),
			obs.Bool("hedged", res.Hedged), obs.Int("attempts", res.Attempts))
	}
	sp.RecordError(err)
	sp.End()
	if err != nil {
		var se *dist.ShardError
		if errors.As(err, &se) && se.Transient {
			err = headroom.Transient(err)
		}
		return nil, 0, err
	}
	var resp shardResponse
	if err := json.Unmarshal(res.Body, &resp); err != nil {
		return nil, 0, headroom.Transient(fmt.Errorf("shard %d: malformed response from %s: %w", r.index, res.Worker, err))
	}
	agg, err := headroom.DecodeAggregator(resp.Agg)
	if err != nil {
		return nil, 0, headroom.Transient(fmt.Errorf("shard %d: undecodable aggregate from %s: %w", r.index, res.Worker, err))
	}
	r.placed.record(ctx, ShardPlacement{
		Shard: r.index, Pools: r.pools, AssignedWorker: res.Worker,
		Hedged: res.Hedged, Attempts: res.Attempts,
	})
	return agg, resp.Records, nil
}

// placements collects a job's shard placements as shards complete and
// keeps the job's annotation current, in shard order.
type placements struct {
	mu   sync.Mutex
	list []ShardPlacement
}

func (p *placements) record(ctx context.Context, sp ShardPlacement) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.list = append(p.list, sp)
	slices.SortFunc(p.list, func(a, b ShardPlacement) int { return a.Shard - b.Shard })
	jobs.Annotate(ctx, placementMetaKey, slices.Clone(p.list))
}

// DistStats exposes the worker-fleet breaker view for tests and /readyz.
func (s *Server) DistStats() (open, total int) {
	if s.dist == nil {
		return 0, 0
	}
	return s.dist.OpenBreakers()
}
