package headroom

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"headroom/internal/core"
	"headroom/internal/experiments"
	"headroom/internal/forecast"
	"headroom/internal/metrics"
	"headroom/internal/obs"
	"headroom/internal/optimize"
	"headroom/internal/validate"
)

// Session is the configured entry point to the capacity-planning pipeline.
// A session carries the pieces every step shares — the record source, the
// shard count for parallel aggregation, the planning configuration and a
// base context bounding the session's lifetime — so the individual steps
// (Simulate, Plan, RunRSM, Validate, Forecast) stay single-purpose.
//
// Construct with New and functional options:
//
//	s, err := headroom.New(ctx,
//		headroom.WithFleet(cfg),
//		headroom.WithShards(8),
//	)
//	agg, err := s.Simulate(ctx, 1)
//	plans, err := s.Plan(ctx, agg)
//
// Every method takes a context.Context and returns promptly with ctx.Err()
// when it is cancelled; cancelling the context passed to New cancels every
// operation of the session.
//
// A Session is safe for concurrent use: its configuration is immutable after
// New.
type Session struct {
	base     context.Context
	fleet    FleetConfig
	hasFleet bool
	source   Source
	shards   int
	plan     PlanConfig
	seed     int64
	partial  bool
	observer StageObserver
}

// Option configures a Session under construction.
type Option func(*Session) error

// WithFleet sets the fleet the session simulates. The configuration is
// validated by New.
func WithFleet(cfg FleetConfig) Option {
	return func(s *Session) error {
		s.fleet = cfg
		s.hasFleet = true
		return nil
	}
}

// WithShards fixes the number of parallel shards used when aggregating a
// shardable source. n = 1 forces sequential aggregation; the default (no
// option, or n = 0) uses one shard per available CPU. Shard count never
// changes results: per-pool seeding makes sharded aggregation bit-identical
// to sequential.
func WithShards(n int) Option {
	return func(s *Session) error {
		if n < 0 {
			return fmt.Errorf("headroom: negative shard count %d", n)
		}
		s.shards = n
		return nil
	}
}

// WithSource sets the session's record source, replacing the fleet
// simulator: a synthetic replay, an in-memory trace, or any custom
// implementation. Pipeline steps that consume records read from it.
func WithSource(src Source) Option {
	return func(s *Session) error {
		if src == nil {
			return errors.New("headroom: WithSource(nil)")
		}
		s.source = src
		return nil
	}
}

// WithPlanConfig sets the planning configuration used by Plan. Zero fields
// keep their documented defaults.
func WithPlanConfig(cfg PlanConfig) Option {
	return func(s *Session) error {
		s.plan = cfg
		return nil
	}
}

// WithPartialResults lets sharded aggregation tolerate failed shards: with
// it enabled, Simulate and Aggregate no longer abort the whole run when one
// shard (pool group) fails. Surviving shards aggregate normally and the
// failed ones are reported through a *PartialError (detect with errors.As),
// so callers can serve a degraded result instead of none. Failed shards do
// not cancel their siblings. Without the option (the default), the first
// shard failure cancels the remaining shards promptly and the run fails
// whole. In both modes a panicking shard is isolated: the panic is recovered
// and reported as that shard's error.
func WithPartialResults(enabled bool) Option {
	return func(s *Session) error {
		s.partial = enabled
		return nil
	}
}

// StageEvent describes one completed pipeline stage, or one completed shard
// of a sharded stage.
type StageEvent struct {
	// Stage names the stage: "simulate", "aggregate", "merge", "plan",
	// "validate", "forecast", or "aggregate.shard" for per-shard events.
	Stage string
	// Pool carries the shard's pool names (comma-joined) on per-shard
	// events; empty otherwise.
	Pool string
	// Shard is the shard index on per-shard events, -1 otherwise.
	Shard int
	// Records is the number of records the stage consumed, when it streams
	// a source.
	Records int
	// Duration is the stage's wall time.
	Duration time.Duration
	// Degraded marks a partial-results aggregation that lost shards. A
	// failed shard's own event carries its failure in Err.
	Degraded bool
	// Err is the stage's failure, nil on success.
	Err error
}

// StageObserver receives one event per completed pipeline stage and shard.
// Observers must be fast and safe for concurrent use: shard events fire
// from the aggregation goroutines.
type StageObserver func(StageEvent)

// WithObserver registers a stage observer on the session. Independent of
// the observer, every session records stage durations into the process-wide
// metrics registry (headroom_stage_duration_seconds) and emits spans when
// the calling context carries a tracer (internal/obs); the observer is the
// hook for callers that want per-stage attribution beyond that — custom
// metrics, logging, admission control.
func WithObserver(fn StageObserver) Option {
	return func(s *Session) error {
		s.observer = fn
		return nil
	}
}

// WithSeed sets the seed driving experiment regeneration (RunExperiment).
// The fleet's own seed lives in FleetConfig.Seed. Defaults to 1.
func WithSeed(seed int64) Option {
	return func(s *Session) error {
		s.seed = seed
		return nil
	}
}

// New builds a Session. ctx bounds the session's lifetime: cancelling it
// cancels every in-flight and future operation on the session, in addition
// to the per-call contexts the methods take.
func New(ctx context.Context, opts ...Option) (*Session, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	s := &Session{base: ctx, seed: 1}
	for _, opt := range opts {
		if opt == nil {
			continue
		}
		if err := opt(s); err != nil {
			return nil, err
		}
	}
	if s.hasFleet {
		if err := s.fleet.Validate(); err != nil {
			return nil, fmt.Errorf("headroom: %w", err)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s, nil
}

// opCtx merges a per-call context with the session's base context so that
// cancelling either one cancels the operation. The returned stop function
// must be called when the operation completes.
func (s *Session) opCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if ctx == nil {
		ctx = context.Background()
	}
	if s.base.Done() == nil {
		// The base context can never be cancelled; nothing to merge.
		return ctx, func() {}
	}
	merged, cancel := context.WithCancel(ctx)
	stop := context.AfterFunc(s.base, cancel)
	return merged, func() {
		stop()
		cancel()
	}
}

// shardCount resolves the configured shard count.
func (s *Session) shardCount() int {
	if s.shards > 0 {
		return s.shards
	}
	return runtime.GOMAXPROCS(0)
}

// Simulate runs the session's record source to completion and returns the
// aggregated observations — Step 0 of the methodology, the measurement the
// planner consumes.
//
// Without WithSource, the session's fleet is simulated for the given number
// of days with the scheduled actions (reduction experiments, deployments).
// With WithSource, the configured source is streamed instead, and days and
// actions must be zero: they parameterise the simulator only.
//
// Aggregation is sharded across goroutines when the source supports it (the
// fleet simulator shards per pool); the result is bit-identical to a
// sequential pass for the same seed.
func (s *Session) Simulate(ctx context.Context, days int, actions ...Action) (*Aggregator, error) {
	if s.source != nil {
		if days != 0 || len(actions) != 0 {
			return nil, errors.New("headroom: days and actions configure the fleet simulator; this session streams a custom source")
		}
		return s.simulate(ctx, s.source, 0)
	}
	if !s.hasFleet {
		return nil, ErrNoSource
	}
	return s.simulate(ctx, NewSimSource(s.fleet, days, actions...), days)
}

// simulate wraps the aggregation in the "simulate" stage span and metrics.
func (s *Session) simulate(ctx context.Context, src Source, days int) (*Aggregator, error) {
	ctx, sp := obs.StartSpan(ctx, "session.simulate", obs.Int("days", days))
	start := time.Now()
	agg, err := s.Aggregate(ctx, src)
	d := time.Since(start)
	sp.RecordError(err)
	sp.End()
	s.stageDone(StageEvent{Stage: "simulate", Shard: -1, Duration: d, Degraded: isPartialErr(err), Err: err})
	return agg, err
}

// stageDone feeds one completed stage (or shard) into the process-wide
// stage metrics and the session's observer.
func (s *Session) stageDone(ev StageEvent) {
	if ev.Stage == "aggregate.shard" {
		obs.ObserveShard(ev.Shard, ev.Duration)
	} else {
		obs.ObserveStage(ev.Stage, ev.Duration)
	}
	if s.observer != nil {
		s.observer(ev)
	}
}

// isPartialErr reports whether err is a degraded (partial-results) outcome.
func isPartialErr(err error) bool {
	var pe *PartialError
	return errors.As(err, &pe)
}

// Aggregate consumes a record source into an Aggregator, sharding across
// goroutines when the source implements ShardedSource and the session's
// shard count allows. A nil src uses the session's configured source.
//
// Every run is a fan-out over runShard: an unsharded source is one shard,
// so each path — sequential, sharded, and shards that aggregate themselves
// (ShardAggregator, as a distributed coordinator's remote shards do) — has
// the same "simulate.pool" span, panic isolation and "aggregate.shard"
// stage event. A one-shard run returns the shard's own error, never a
// *PartialError: there are no surviving shards to serve.
func (s *Session) Aggregate(ctx context.Context, src Source) (*Aggregator, error) {
	if src == nil {
		src = s.source
	}
	if src == nil {
		return nil, ErrNoSource
	}
	ctx, done := s.opCtx(ctx)
	defer done()

	subs := []Source{src}
	if sh, ok := src.(ShardedSource); ok {
		if n := s.shardCount(); n > 1 {
			if split := sh.Shards(n); len(split) > 1 {
				subs = split
			}
		}
	}
	ctx, sp := obs.StartSpan(ctx, "session.aggregate", obs.Int("shards", len(subs)))
	start := time.Now()
	agg, records, err := s.aggregate(ctx, subs)
	d := time.Since(start)
	degraded := isPartialErr(err)
	sp.SetAttr(obs.Int64("records", records), obs.Bool("degraded", degraded))
	sp.RecordError(err)
	sp.End()
	s.stageDone(StageEvent{
		Stage: "aggregate", Shard: -1, Records: int(records),
		Duration: d, Degraded: degraded, Err: err,
	})
	return agg, err
}

// aggregate runs one runShard goroutine per sub-source and merges the
// per-shard aggregators in shard order. Shards own disjoint (pool,
// datacenter) keys, so the merged aggregator is bit-identical to a single
// sequential pass. Without partial results the first failing shard cancels
// its siblings.
func (s *Session) aggregate(ctx context.Context, subs []Source) (*Aggregator, int64, error) {
	aggs := make([]*Aggregator, len(subs))
	errs := make([]error, len(subs))
	counts := make([]int64, len(subs))
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	for i, sub := range subs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			aggs[i], counts[i], errs[i] = s.runShard(wctx, i, sub)
			if errs[i] != nil && !s.partial {
				cancel() // fail fast: stop sibling shards
			}
		}()
	}
	wg.Wait()
	var records int64
	for _, n := range counts {
		records += n
	}
	if len(subs) == 1 {
		return aggs[0], records, errs[0]
	}
	if !s.partial {
		var failure error
		for _, err := range errs {
			// Prefer a concrete cause over the cascade cancellations it
			// triggered in sibling shards.
			if err != nil && (failure == nil || (errors.Is(failure, context.Canceled) && !errors.Is(err, context.Canceled))) {
				failure = err
			}
		}
		if failure != nil {
			if err := ctx.Err(); err != nil {
				return nil, records, err
			}
			return nil, records, failure
		}
	}
	agg, err := s.mergePartial(ctx, subs, aggs, errs)
	return agg, records, err
}

// runShard consumes shard i into a fresh aggregator and returns it with the
// number of records consumed. It is the one shard executor: the fan-out
// goroutines and AggregateShard all run here, inside a "simulate.pool" span
// (annotated with pool names, record count and retries), with a panic
// recovered into the shard's error instead of tearing the process down, and
// reported as one "aggregate.shard" stage event. A sub-source implementing
// ShardAggregator computes its own aggregate; any other is streamed.
func (s *Session) runShard(ctx context.Context, i int, sub Source) (agg *Aggregator, n int64, err error) {
	pools := strings.Join(poolNamesOf(sub), ",")
	ctx, sp := obs.StartSpan(ctx, "simulate.pool", obs.Str("pool", pools), obs.Int("shard", i))
	start := time.Now()
	defer func() {
		if v := recover(); v != nil {
			agg, err = nil, fmt.Errorf("headroom: shard %d panicked: %v", i, v)
		}
		d := time.Since(start)
		sp.SetAttr(obs.Int64("records", n))
		sp.RecordError(err)
		sp.End()
		s.stageDone(StageEvent{
			Stage: "aggregate.shard", Pool: pools, Shard: i,
			Records: int(n), Duration: d, Err: err,
		})
	}()
	if sa, ok := sub.(ShardAggregator); ok {
		return sa.Aggregate(ctx)
	}
	agg = metrics.NewAggregator()
	if err := sub.Stream(ctx, func(r Record) error { agg.Add(r); n++; return nil }); err != nil {
		return nil, n, err
	}
	return agg, n, nil
}

// mergePartial wraps the shard merge in the "merge" stage span and metrics.
func (s *Session) mergePartial(ctx context.Context, subs []Source, aggs []*Aggregator, errs []error) (*Aggregator, error) {
	_, sp := obs.StartSpan(ctx, "session.merge", obs.Int("shards", len(aggs)))
	start := time.Now()
	out, err := mergePartial(ctx, subs, aggs, errs)
	d := time.Since(start)
	sp.RecordError(err)
	sp.End()
	s.stageDone(StageEvent{Stage: "merge", Shard: -1, Duration: d, Degraded: isPartialErr(err), Err: err})
	return out, err
}

// mergePartial merges the surviving shards' aggregators in shard order and
// reports the failed ones as a *PartialError; with no failures it is the
// plain shard-order merge. Cancellation of the caller context still fails
// the whole run.
func mergePartial(ctx context.Context, subs []Source, aggs []*Aggregator, errs []error) (*Aggregator, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var out *Aggregator
	pe := &PartialError{Shards: len(subs)}
	for i := range subs {
		if errs[i] != nil {
			pe.Failed = append(pe.Failed, PoolError{Shard: i, Pools: poolNamesOf(subs[i]), Err: errs[i]})
			continue
		}
		if out == nil {
			out = aggs[i]
		} else {
			out.Merge(aggs[i])
		}
	}
	if len(pe.Failed) == 0 {
		return out, nil
	}
	// out is nil when every shard failed: no partial result to serve.
	return out, pe
}

// AggregateShard consumes exactly one shard of the session's configured
// source: the source is split into `of` sub-sources (as Aggregate would) and
// only shard `index` runs, through the same shard executor as every local
// shard, into a fresh aggregator. It returns the shard's aggregate and the
// number of records consumed.
//
// This is the worker half of distributed aggregation (internal/dist): a
// coordinator splits a job into shards, ships (index, of) plus the request to
// a fleet of workers, and each worker reproduces the identical shard split —
// sources are deterministic, so equal configuration yields equal shards —
// runs its one shard, and returns the aggregate via EncodeAggregator.
// Merging the per-shard aggregates in shard order is then bit-identical to a
// single-process sharded run.
func (s *Session) AggregateShard(ctx context.Context, index, of int) (*Aggregator, int64, error) {
	if s.source == nil {
		return nil, 0, ErrNoSource
	}
	if of < 1 {
		return nil, 0, fmt.Errorf("headroom: AggregateShard shard count %d, want >= 1", of)
	}
	if index < 0 || index >= of {
		return nil, 0, fmt.Errorf("headroom: shard index %d out of range [0, %d)", index, of)
	}
	ctx, done := s.opCtx(ctx)
	defer done()
	subs := []Source{s.source}
	if of > 1 {
		sh, ok := s.source.(ShardedSource)
		if !ok {
			return nil, 0, fmt.Errorf("headroom: source %T cannot split into %d shards", s.source, of)
		}
		subs = sh.Shards(of)
	}
	if len(subs) != of {
		return nil, 0, fmt.Errorf("headroom: source split into %d shards, coordinator expected %d", len(subs), of)
	}
	return s.runShard(ctx, index, subs[index])
}

// Stream streams a record source sequentially through emit, for workloads
// too large to aggregate in one pass or for writing traces to disk. A nil
// src uses the session's configured source.
func (s *Session) Stream(ctx context.Context, src Source, emit func(Record) error) error {
	if src == nil {
		src = s.source
	}
	if src == nil {
		return ErrNoSource
	}
	ctx, done := s.opCtx(ctx)
	defer done()
	return src.Stream(ctx, emit)
}

// Plan runs Steps 1-2 of the methodology over aggregated observations:
// metric validation (with refinement), server grouping, model fitting, and
// right-sizing each pool within the latency budget configured via
// WithPlanConfig.
func (s *Session) Plan(ctx context.Context, agg *Aggregator) ([]PoolPlan, error) {
	ctx, done := s.opCtx(ctx)
	defer done()
	ctx, sp := obs.StartSpan(ctx, "session.plan")
	start := time.Now()
	plans, err := core.Plan(ctx, agg, s.plan)
	d := time.Since(start)
	sp.SetAttr(obs.Int("pools", len(plans)))
	sp.RecordError(err)
	sp.End()
	s.stageDone(StageEvent{Stage: "plan", Shard: -1, Duration: d, Err: err})
	return plans, err
}

// RunRSM executes the iterative server-reduction experiment of §II-B2
// against a plant, stopping at the QoS limit. Cancellation propagates into
// the plant's observations.
func (s *Session) RunRSM(ctx context.Context, plant Plant, cfg RSMConfig) (RSMResult, error) {
	ctx, done := s.opCtx(ctx)
	defer done()
	return optimize.RunRSM(ctx, plant, cfg)
}

// Validate runs the offline A/B regression harness of §II-D: two identical
// pools, identical synthetic workload sweeps, one with the change.
func (s *Session) Validate(ctx context.Context, cfg ValidateConfig, change Change) (ValidateReport, error) {
	ctx, done := s.opCtx(ctx)
	defer done()
	ctx, sp := obs.StartSpan(ctx, "session.validate")
	start := time.Now()
	report, err := validate.Run(ctx, cfg, change)
	d := time.Since(start)
	sp.RecordError(err)
	sp.End()
	s.stageDone(StageEvent{Stage: "validate", Shard: -1, Duration: d, Err: err})
	return report, err
}

// Forecast fits a trend + daily-seasonality model to an offered-load
// series, the workload-trend input capacity planners combine with QoS
// requirements (§II).
func (s *Session) Forecast(ctx context.Context, series []float64, ticksPerDay int) (ForecastModel, error) {
	ctx, done := s.opCtx(ctx)
	defer done()
	if err := ctx.Err(); err != nil {
		return ForecastModel{}, err
	}
	_, sp := obs.StartSpan(ctx, "session.forecast", obs.Int("points", len(series)))
	start := time.Now()
	model, err := forecast.Fit(series, ticksPerDay)
	d := time.Since(start)
	sp.RecordError(err)
	sp.End()
	s.stageDone(StageEvent{Stage: "forecast", Shard: -1, Duration: d, Err: err})
	return model, err
}

// ExperimentResult is a regenerated paper table or figure.
type ExperimentResult = experiments.Result

// ExperimentInfo identifies a registered paper artifact.
type ExperimentInfo struct {
	ID    string
	Title string
}

// Experiments lists the registered paper artifacts (tables, figures,
// ablations) in paper order.
func Experiments() []ExperimentInfo {
	out := make([]ExperimentInfo, 0, len(experiments.Registry))
	for _, e := range experiments.Registry {
		out = append(out, ExperimentInfo{ID: e.ID, Title: e.Title})
	}
	return out
}

// RunExperiment regenerates one paper artifact by ID ("fig9", "table4",
// ...), driven by the session's seed (WithSeed). fast shortens observation
// horizons for tests and smoke runs.
func (s *Session) RunExperiment(ctx context.Context, id string, fast bool) (*ExperimentResult, error) {
	ctx, done := s.opCtx(ctx)
	defer done()
	exp, err := experiments.ByID(id)
	if err != nil {
		return nil, err
	}
	return exp.Run(ctx, experiments.Config{Seed: s.seed, Fast: fast})
}
