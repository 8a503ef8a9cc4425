package server

// Request decoding, validation, canonicalization and the compute functions
// that drive the headroom.Session pipeline. Every compute function returns
// its result pre-marshalled (json.RawMessage) so cached results are served
// byte-identical to the first computation.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"

	"headroom"
	"headroom/internal/jobcache"
	"headroom/internal/jobs"
)

// maxDays bounds a single simulation job; longer horizons should be split
// into multiple jobs.
const maxDays = 30

// computeFunc produces a job result (a json.RawMessage).
type computeFunc func(ctx context.Context) (any, error)

// buildJob decodes and validates the request body for kind and returns the
// compute function plus the canonicalized request used as the cache key.
func (s *Server) buildJob(kind string, body []byte) (computeFunc, any, error) {
	switch kind {
	case "simulate":
		req, err := decodeSimulate(body)
		if err != nil {
			return nil, nil, err
		}
		return func(ctx context.Context) (any, error) { return s.computeSimulate(ctx, req) }, req, nil
	case "plan":
		req, err := decodePlan(body)
		if err != nil {
			return nil, nil, err
		}
		return func(ctx context.Context) (any, error) { return s.computePlan(ctx, req) }, req, nil
	case "validate":
		req, err := decodeValidate(body)
		if err != nil {
			return nil, nil, err
		}
		return func(ctx context.Context) (any, error) { return s.computeValidate(ctx, req) }, req, nil
	case "forecast":
		req, err := decodeForecast(body)
		if err != nil {
			return nil, nil, err
		}
		return func(ctx context.Context) (any, error) { return s.computeForecast(ctx, req) }, req, nil
	default:
		return nil, nil, fmt.Errorf("unknown job kind %q", kind)
	}
}

// decode unmarshals strictly: unknown fields are rejected so a typoed
// option fails loudly instead of silently planning the wrong scenario.
func decode(body []byte, into any) error {
	dec := json.NewDecoder(strings.NewReader(string(body)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return fmt.Errorf("decode request: %w", err)
	}
	if dec.More() {
		return fmt.Errorf("decode request: trailing data after JSON object")
	}
	return nil
}

// --- simulate ------------------------------------------------------------

// SimulateRequest parameterizes a fleet-simulation job. The fleet is the
// paper-shaped default fleet for the given seed, optionally filtered to
// named pools.
type SimulateRequest struct {
	// Days is the simulation horizon; default 1, max 30.
	Days int `json:"days"`
	// Seed drives the fleet deterministically; default 1.
	Seed int64 `json:"seed"`
	// Pools filters the fleet to the named pools (sorted and deduplicated
	// during canonicalization); empty keeps the whole fleet.
	Pools []string `json:"pools,omitempty"`
}

func decodeSimulate(body []byte) (SimulateRequest, error) {
	var req SimulateRequest
	if err := decode(body, &req); err != nil {
		return req, err
	}
	if err := req.Normalize(); err != nil {
		return req, err
	}
	// Resolve the fleet now so unknown pool names fail the submission (400)
	// instead of the job.
	_, err := req.Fleet()
	return req, err
}

func (r *SimulateRequest) Normalize() error {
	if r.Days == 0 {
		r.Days = 1
	}
	if r.Days < 0 || r.Days > maxDays {
		return fmt.Errorf("days must be in [1, %d], got %d", maxDays, r.Days)
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	if len(r.Pools) > 0 {
		seen := map[string]bool{}
		kept := r.Pools[:0]
		for _, p := range r.Pools {
			p = strings.TrimSpace(p)
			if p == "" {
				return fmt.Errorf("pools contains an empty name")
			}
			if !seen[p] {
				seen[p] = true
				kept = append(kept, p)
			}
		}
		sort.Strings(kept)
		r.Pools = kept
	}
	return nil
}

// fleet resolves the request's fleet configuration, failing on unknown pool
// names.
func (r SimulateRequest) Fleet() (headroom.FleetConfig, error) {
	cfg := headroom.DefaultFleet(r.Seed)
	if len(r.Pools) == 0 {
		return cfg, nil
	}
	keep := map[string]bool{}
	for _, p := range r.Pools {
		keep[p] = true
	}
	var filtered []headroom.PoolConfig
	for _, pc := range cfg.Pools {
		if keep[pc.Name] {
			filtered = append(filtered, pc)
			delete(keep, pc.Name)
		}
	}
	if len(keep) > 0 {
		missing := make([]string, 0, len(keep))
		for p := range keep {
			missing = append(missing, p)
		}
		sort.Strings(missing)
		return cfg, fmt.Errorf("unknown pools: %s", strings.Join(missing, ", "))
	}
	cfg.Pools = filtered
	return cfg, nil
}

// ShardFailure is the wire view of one failed shard of a degraded job.
type ShardFailure struct {
	// Shard is the failed shard's index in the aggregation fan-out.
	Shard int `json:"shard"`
	// Pools are the pool names the shard carried.
	Pools []string `json:"pools,omitempty"`
	// Error is the shard's failure.
	Error string `json:"error"`
}

func shardFailures(pe *headroom.PartialError) []ShardFailure {
	out := make([]ShardFailure, len(pe.Failed))
	for i, f := range pe.Failed {
		out[i] = ShardFailure{Shard: f.Shard, Pools: f.Pools, Error: f.Err.Error()}
	}
	return out
}

// PoolSummary condenses one (pool, datacenter) series for the wire.
type PoolSummary struct {
	Pool             string  `json:"pool"`
	DC               string  `json:"dc"`
	Windows          int     `json:"windows"`
	Servers          int     `json:"servers"`
	MeanRPSPerServer float64 `json:"mean_rps_per_server"`
	MeanCPUPct       float64 `json:"mean_cpu_pct"`
	MeanLatencyMs    float64 `json:"mean_latency_ms"`
	PeakLatencyMs    float64 `json:"peak_latency_ms"`
}

// SimulateResult is the wire result of a simulation job.
type SimulateResult struct {
	Days         int           `json:"days"`
	Seed         int64         `json:"seed"`
	PoolDCs      int           `json:"pool_dcs"`
	TotalWindows int           `json:"total_windows"`
	Pools        []PoolSummary `json:"pools"`
	// Degraded marks a partial result: some pools failed and are absent
	// from Pools. Degraded results are never cached.
	Degraded bool `json:"degraded,omitempty"`
	// FailedPools is the sorted union of pool names that failed.
	FailedPools []string `json:"failed_pools,omitempty"`
	// Failures details each failed shard.
	Failures []ShardFailure `json:"failures,omitempty"`
}

// simulateAggregate streams the request's fleet through the session layer
// and returns the aggregate. Locally the source is wrapped, innermost
// first, with the chaos fault injector (Config.Faults) and the resilience
// layer (Config.RetryAttempts); with Config.Peers the source is a
// remoteSource whose shards aggregate on the worker fleet (which applies
// its own fault injection and resilience), byte-identical to the local
// computation. With Config.PartialResults the aggregation tolerates failed
// pools and the returned *PartialError lists them (degraded result).
// Transient errors that escape the resilience layer are re-marked for the
// job queue so the job itself is retried.
func (s *Server) simulateAggregate(ctx context.Context, req SimulateRequest, plan *headroom.PlanConfig) (*headroom.Aggregator, *headroom.PartialError, error) {
	cfg, err := req.Fleet()
	if err != nil {
		return nil, nil, err
	}
	var src headroom.Source
	if s.dist != nil {
		src = s.newRemoteSource(req, headroom.NewSimSource(cfg, req.Days))
	} else {
		src = s.wrapSource(headroom.NewSimSource(cfg, req.Days), req.Seed)
	}
	opts := []headroom.Option{
		headroom.WithSource(src),
		headroom.WithShards(s.cfg.Shards),
		headroom.WithPartialResults(s.cfg.PartialResults),
	}
	if plan != nil {
		opts = append(opts, headroom.WithPlanConfig(*plan))
	}
	sess, err := headroom.New(context.Background(), opts...)
	if err != nil {
		return nil, nil, err
	}
	agg, err := sess.Simulate(ctx, 0)
	var pe *headroom.PartialError
	if errors.As(err, &pe) && agg != nil {
		return agg, pe, nil
	}
	if err != nil {
		if headroom.IsTransient(err) {
			// Retries inside the source (or across the worker fleet)
			// exhausted; let the job queue retry the whole computation.
			err = jobs.Transient(err)
		}
		return nil, nil, err
	}
	return agg, nil, nil
}

// planSession builds the session used by Plan over an already-computed
// aggregate.
func (s *Server) planSession(plan headroom.PlanConfig) (*headroom.Session, error) {
	return headroom.New(context.Background(), headroom.WithPlanConfig(plan))
}

// BuildSimulateResult condenses an aggregate into the wire result for req.
// It is the single summary builder for every execution path — sequential,
// sharded, distributed and cache-served — so equal aggregates always render
// to equal results (the differential harness in internal/diffcheck depends
// on this being the only implementation).
func BuildSimulateResult(req SimulateRequest, agg *headroom.Aggregator, pe *headroom.PartialError) (SimulateResult, error) {
	res := SimulateResult{Days: req.Days, Seed: req.Seed}
	for _, key := range agg.Pools() {
		series, err := agg.PoolSeries(key.DC, key.Pool)
		if err != nil {
			return res, err
		}
		sum := PoolSummary{Pool: key.Pool, DC: key.DC, Windows: len(series)}
		for _, ts := range series {
			if ts.Servers > sum.Servers {
				sum.Servers = ts.Servers
			}
			sum.MeanRPSPerServer += ts.RPSPerServer
			sum.MeanCPUPct += ts.CPUMean
			sum.MeanLatencyMs += ts.LatencyMean
			if ts.LatencyMean > sum.PeakLatencyMs {
				sum.PeakLatencyMs = ts.LatencyMean
			}
		}
		if n := float64(len(series)); n > 0 {
			sum.MeanRPSPerServer /= n
			sum.MeanCPUPct /= n
			sum.MeanLatencyMs /= n
		}
		res.TotalWindows += sum.Windows
		res.Pools = append(res.Pools, sum)
	}
	res.PoolDCs = len(res.Pools)
	if pe != nil {
		res.Degraded = true
		res.FailedPools = pe.FailedPools()
		res.Failures = shardFailures(pe)
	}
	return res, nil
}

func (s *Server) computeSimulate(ctx context.Context, req SimulateRequest) (any, error) {
	agg, pe, err := s.simulateAggregate(ctx, req, nil)
	if err != nil {
		return nil, err
	}
	res, err := BuildSimulateResult(req, agg, pe)
	if err != nil {
		return nil, err
	}
	return s.finishResult(ctx, "simulate", res, pe)
}

// finishResult pre-renders a job result, marking degraded (partial) results
// uncacheable so a later identical request recomputes instead of being
// served a partial answer as if it were complete.
func (s *Server) finishResult(ctx context.Context, kind string, v any, pe *headroom.PartialError) (any, error) {
	raw, err := marshalResult(v)
	if err != nil {
		return nil, err
	}
	if pe == nil {
		return raw, nil
	}
	if c, ok := s.m.degraded[kind]; ok {
		c.Inc()
	}
	s.cfg.Logger.WarnContext(ctx, "degraded result",
		"kind", kind, "failed_pools", pe.FailedPools(), "error", pe.Error())
	return jobcache.Uncacheable{Value: raw}, nil
}

// --- plan ----------------------------------------------------------------

// PlanRequest parameterizes a simulate+plan job.
type PlanRequest struct {
	SimulateRequest
	// LatencyBudgetMs is the acceptable latency increase; default 5.
	LatencyBudgetMs float64 `json:"latency_budget_ms,omitempty"`
	// PlanSeed drives clustering and robust fits; default 2.
	PlanSeed int64 `json:"plan_seed,omitempty"`
	// MaxGroups bounds server-group detection per pool (default 4).
	MaxGroups int `json:"max_groups,omitempty"`
	// MaxReductionFrac caps per-pool savings (default 1/3).
	MaxReductionFrac float64 `json:"max_reduction_frac,omitempty"`
}

func decodePlan(body []byte) (PlanRequest, error) {
	var req PlanRequest
	if err := decode(body, &req); err != nil {
		return req, err
	}
	if err := req.SimulateRequest.Normalize(); err != nil {
		return req, err
	}
	if _, err := req.Fleet(); err != nil {
		return req, err
	}
	if req.LatencyBudgetMs < 0 {
		return req, fmt.Errorf("latency_budget_ms must be >= 0, got %v", req.LatencyBudgetMs)
	}
	if req.LatencyBudgetMs == 0 {
		req.LatencyBudgetMs = 5
	}
	if req.PlanSeed == 0 {
		req.PlanSeed = 2
	}
	if req.MaxGroups < 0 {
		return req, fmt.Errorf("max_groups must be >= 0, got %d", req.MaxGroups)
	}
	if req.MaxReductionFrac < 0 || req.MaxReductionFrac > 1 {
		return req, fmt.Errorf("max_reduction_frac must be in [0, 1], got %v", req.MaxReductionFrac)
	}
	return req, nil
}

// PlanResult is the wire result of a planning job.
type PlanResult struct {
	Days               int                 `json:"days"`
	Seed               int64               `json:"seed"`
	LatencyBudgetMs    float64             `json:"latency_budget_ms"`
	Plans              []headroom.PoolPlan `json:"plans"`
	CurrentServers     int                 `json:"current_servers"`
	RecommendedServers int                 `json:"recommended_servers"`
	SavingsFrac        float64             `json:"savings_frac"`
	// Degraded marks a partial result: some pools failed to simulate and
	// were planned around. Degraded results are never cached.
	Degraded bool `json:"degraded,omitempty"`
	// FailedPools is the sorted union of pool names that failed.
	FailedPools []string `json:"failed_pools,omitempty"`
	// Failures details each failed shard.
	Failures []ShardFailure `json:"failures,omitempty"`
}

// PlanConfig resolves the request's planner configuration; the one mapping
// every execution path shares.
func (r PlanRequest) PlanConfig() headroom.PlanConfig {
	return headroom.PlanConfig{
		LatencyBudgetMs:  r.LatencyBudgetMs,
		Seed:             r.PlanSeed,
		MaxGroups:        r.MaxGroups,
		MaxReductionFrac: r.MaxReductionFrac,
	}
}

// BuildPlanResult assembles the wire result for a plan request from the
// planner's output. Like BuildSimulateResult, it is shared by every
// execution path so equal plans render to equal results.
func BuildPlanResult(req PlanRequest, plans []headroom.PoolPlan, pe *headroom.PartialError) PlanResult {
	res := PlanResult{
		Days:            req.Days,
		Seed:            req.Seed,
		LatencyBudgetMs: req.LatencyBudgetMs,
		Plans:           plans,
	}
	for _, p := range plans {
		if !p.Plannable {
			continue
		}
		res.CurrentServers += p.CurrentServers
		res.RecommendedServers += p.RecommendedServers
	}
	if res.CurrentServers > 0 {
		res.SavingsFrac = 1 - float64(res.RecommendedServers)/float64(res.CurrentServers)
	}
	if pe != nil {
		res.Degraded = true
		res.FailedPools = pe.FailedPools()
		res.Failures = shardFailures(pe)
	}
	return res
}

func (s *Server) computePlan(ctx context.Context, req PlanRequest) (any, error) {
	planCfg := req.PlanConfig()
	agg, pe, err := s.simulateAggregate(ctx, req.SimulateRequest, &planCfg)
	if err != nil {
		return nil, err
	}
	sess, err := s.planSession(planCfg)
	if err != nil {
		return nil, err
	}
	plans, err := sess.Plan(ctx, agg)
	if err != nil {
		return nil, err
	}
	res := BuildPlanResult(req, plans, pe)
	return s.finishResult(ctx, "plan", res, pe)
}

// --- validate ------------------------------------------------------------

// ChangeSpec is a JSON-expressible candidate change: deltas applied to the
// pool's ground-truth response model, mirroring the offline build the paper
// validates before deployment.
type ChangeSpec struct {
	// Name labels the change in reports; default "change".
	Name string `json:"name,omitempty"`
	// LatencyDeltaMs shifts the latency curve's constant term.
	LatencyDeltaMs float64 `json:"latency_delta_ms,omitempty"`
	// CPUSlopeFrac scales the CPU-per-load slope by (1 + frac).
	CPUSlopeFrac float64 `json:"cpu_slope_frac,omitempty"`
	// MemPagesDelta shifts the baseline paging rate.
	MemPagesDelta float64 `json:"mem_pages_delta,omitempty"`
	// ErrorRateDelta shifts the error rate.
	ErrorRateDelta float64 `json:"error_rate_delta,omitempty"`
}

func (c ChangeSpec) change() headroom.Change {
	name := c.Name
	if name == "" {
		name = "change"
	}
	return headroom.Change{
		Name: name,
		Apply: func(rp headroom.ResponseParams) headroom.ResponseParams {
			rp.LatQuad[0] += c.LatencyDeltaMs
			rp.CPUSlope *= 1 + c.CPUSlopeFrac
			rp.MemPagesBase += c.MemPagesDelta
			rp.ErrorRate += c.ErrorRateDelta
			return rp
		},
	}
}

// ValidateRequest parameterizes an offline A/B validation job against a
// named pool of the default fleet.
type ValidateRequest struct {
	// Pool names the micro-service under test ("A" … "I"); required.
	Pool string `json:"pool"`
	// Servers sizes each of the two offline pools; default 10.
	Servers int `json:"servers,omitempty"`
	// Loads is the per-server RPS sweep, ascending; required.
	Loads []float64 `json:"loads"`
	// TicksPerLevel is how many windows each level runs; default 20.
	TicksPerLevel int `json:"ticks_per_level,omitempty"`
	// Seed drives both pools deterministically; default 1.
	Seed int64 `json:"seed,omitempty"`
	// LatencyTolMs and CPUTolPct bound the acceptable regression.
	LatencyTolMs float64 `json:"latency_tol_ms,omitempty"`
	CPUTolPct    float64 `json:"cpu_tol_pct,omitempty"`
	// Change is the candidate modification under test.
	Change ChangeSpec `json:"change"`
}

func decodeValidate(body []byte) (ValidateRequest, error) {
	var req ValidateRequest
	if err := decode(body, &req); err != nil {
		return req, err
	}
	if req.Pool == "" {
		return req, fmt.Errorf("pool is required")
	}
	if req.Servers == 0 {
		req.Servers = 10
	}
	if req.Servers < 1 {
		return req, fmt.Errorf("servers must be >= 1, got %d", req.Servers)
	}
	if len(req.Loads) == 0 {
		return req, fmt.Errorf("loads is required (ascending RPS/server sweep)")
	}
	for i, l := range req.Loads {
		if l <= 0 {
			return req, fmt.Errorf("loads[%d] must be positive, got %v", i, l)
		}
		if i > 0 && l <= req.Loads[i-1] {
			return req, fmt.Errorf("loads must be strictly ascending (loads[%d]=%v <= loads[%d]=%v)",
				i, l, i-1, req.Loads[i-1])
		}
	}
	if req.TicksPerLevel < 0 {
		return req, fmt.Errorf("ticks_per_level must be >= 0, got %d", req.TicksPerLevel)
	}
	if req.Seed == 0 {
		req.Seed = 1
	}
	// Resolve the pool now so unknown names fail the submission (400)
	// instead of the job.
	if _, err := headroom.NamedPool(headroom.DefaultFleet(req.Seed), req.Pool); err != nil {
		return req, err
	}
	return req, nil
}

// ValidateResult is the wire result of a validation job.
type ValidateResult struct {
	Pool   string                  `json:"pool"`
	Report headroom.ValidateReport `json:"report"`
}

func (s *Server) computeValidate(ctx context.Context, req ValidateRequest) (any, error) {
	pool, err := headroom.NamedPool(headroom.DefaultFleet(req.Seed), req.Pool)
	if err != nil {
		return nil, err
	}
	sess, err := headroom.New(context.Background())
	if err != nil {
		return nil, err
	}
	rep, err := sess.Validate(ctx, headroom.ValidateConfig{
		Pool:          pool,
		Servers:       req.Servers,
		Loads:         req.Loads,
		TicksPerLevel: req.TicksPerLevel,
		LatencyTolMs:  req.LatencyTolMs,
		CPUTolPct:     req.CPUTolPct,
		Seed:          req.Seed,
	}, req.Change.change())
	if err != nil {
		return nil, err
	}
	return marshalResult(ValidateResult{Pool: req.Pool, Report: rep})
}

// --- forecast ------------------------------------------------------------

// ForecastRequest parameterizes a workload-forecast job.
type ForecastRequest struct {
	// Series is the offered-load series, one sample per tick; required,
	// at least two days long.
	Series []float64 `json:"series"`
	// TicksPerDay is the series' sampling density; required.
	TicksPerDay int `json:"ticks_per_day"`
	// HorizonDays, when positive, adds a peak-load projection that many
	// days ahead.
	HorizonDays int `json:"horizon_days,omitempty"`
}

func decodeForecast(body []byte) (ForecastRequest, error) {
	var req ForecastRequest
	if err := decode(body, &req); err != nil {
		return req, err
	}
	if req.TicksPerDay <= 0 {
		return req, fmt.Errorf("ticks_per_day must be positive, got %d", req.TicksPerDay)
	}
	if len(req.Series) < 2*req.TicksPerDay {
		return req, fmt.Errorf("series needs >= 2 days (%d ticks), got %d",
			2*req.TicksPerDay, len(req.Series))
	}
	if req.HorizonDays < 0 {
		return req, fmt.Errorf("horizon_days must be >= 0, got %d", req.HorizonDays)
	}
	return req, nil
}

// ForecastResult is the wire result of a forecast job.
type ForecastResult struct {
	Model        headroom.ForecastModel `json:"model"`
	GrowthPerDay float64                `json:"growth_per_day"`
	// PeakForecast is the projected peak load HorizonDays ahead (with a
	// 2-sigma headroom margin); present only when horizon_days was set.
	PeakForecast *float64 `json:"peak_forecast,omitempty"`
}

func (s *Server) computeForecast(ctx context.Context, req ForecastRequest) (any, error) {
	sess, err := headroom.New(context.Background())
	if err != nil {
		return nil, err
	}
	model, err := sess.Forecast(ctx, req.Series, req.TicksPerDay)
	if err != nil {
		return nil, err
	}
	res := ForecastResult{Model: model, GrowthPerDay: model.GrowthPerDay()}
	if req.HorizonDays > 0 {
		peak, err := model.PeakOverHorizon(len(req.Series), req.HorizonDays*req.TicksPerDay, 2)
		if err != nil {
			return nil, err
		}
		res.PeakForecast = &peak
	}
	return marshalResult(res)
}

// marshalResult pre-renders a job result so cached repeats are served
// byte-identical.
func marshalResult(v any) (json.RawMessage, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("marshal result: %w", err)
	}
	return json.RawMessage(b), nil
}
