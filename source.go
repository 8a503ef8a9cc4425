package headroom

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"

	"headroom/internal/metrics"
	"headroom/internal/sim"
	"headroom/internal/synth"
	"headroom/internal/trace"
)

// Source is a stream of trace records — the uniform input of every pipeline
// step. The methodology is deliberately black-box: it consumes only records,
// so any system able to produce them can be measured, planned and validated.
// Three implementations ship with the facade: the fleet simulator
// (NewSimSource), synthetic-workload replay (NewSynthSource, Step 3 of the
// paper) and in-memory trace replay (NewReplaySource, for traces read from
// disk or built by hand).
type Source interface {
	// Stream emits every record through emit in deterministic order. It
	// honours ctx: when the context is cancelled mid-stream, Stream stops
	// and returns ctx.Err(). A non-nil error from emit aborts the stream
	// and is returned as-is.
	Stream(ctx context.Context, emit func(Record) error) error
}

// ShardedSource is a Source that can split itself into disjoint sub-sources
// for parallel consumption, one (pool, datacenter) group per shard at most.
// The shards' record sets union to the full stream and every shard preserves
// the unsharded per-(pool, datacenter) emission order, which is what makes
// sharded aggregation bit-identical to sequential aggregation (see
// metrics.Aggregator.Merge).
type ShardedSource interface {
	Source
	// Shards partitions the source into at most n sub-sources. It may
	// return fewer (down to one) when the source has less parallelism
	// available than requested.
	Shards(n int) []Source
}

// ShardAggregator is optionally implemented by a Source — typically one
// shard of a ShardedSource — that computes its own aggregate instead of
// streaming records here, such as a shard that runs on a remote worker.
// Session aggregation calls Aggregate in place of Stream, inside the same
// per-shard span, panic isolation and stage telemetry as a streamed shard.
// Aggregate returns the shard's aggregate and the number of records it
// consumed; a failure worth retrying later should be marked with Transient.
type ShardAggregator interface {
	Aggregate(ctx context.Context) (*Aggregator, int64, error)
}

// simSource streams the fleet simulator: the paper's 100K-server production
// substitute.
type simSource struct {
	cfg     FleetConfig
	days    int
	actions []Action
}

// NewSimSource returns a Source that simulates the configured fleet for the
// given number of days, applying the scheduled actions. The source shards by
// pool: every stochastic stream in the simulator is seeded per pool name, so
// a pool's records are identical whether the fleet around it is simulated
// whole or split.
func NewSimSource(cfg FleetConfig, days int, actions ...Action) ShardedSource {
	return &simSource{cfg: cfg, days: days, actions: append([]Action(nil), actions...)}
}

func (s *simSource) Stream(ctx context.Context, emit func(Record) error) error {
	sm, err := sim.New(s.cfg, s.actions...)
	if err != nil {
		return err
	}
	if s.days <= 0 {
		return fmt.Errorf("headroom: non-positive simulation horizon %d days", s.days)
	}
	return sm.RunContext(ctx, s.days*sm.TicksPerDay(), emit)
}

// PoolNames lists the configured pools, attributing shard failures to pool
// names (see PoolNamer).
func (s *simSource) PoolNames() []string {
	out := make([]string, len(s.cfg.Pools))
	for i, pc := range s.cfg.Pools {
		out[i] = pc.Name
	}
	return out
}

func (s *simSource) Shards(n int) []Source {
	if n > len(s.cfg.Pools) {
		n = len(s.cfg.Pools)
	}
	if n <= 1 {
		return []Source{s}
	}
	// An invalid fleet must fail identically sharded or not: splitting a
	// config whose error spans pools (e.g. a duplicated pool name) could
	// otherwise yield shards that are individually valid. Let the unsharded
	// stream report the error.
	if err := s.cfg.Validate(); err != nil {
		return []Source{s}
	}
	// Pools are dealt round-robin in configuration order so large and small
	// pools spread across shards.
	groups := make([][]sim.PoolConfig, n)
	owner := make(map[string]int, len(s.cfg.Pools))
	for i, pc := range s.cfg.Pools {
		groups[i%n] = append(groups[i%n], pc)
		owner[pc.Name] = i % n
	}
	actions := make([][]Action, n)
	for _, a := range s.actions {
		if shard, ok := owner[a.Pool]; ok {
			actions[shard] = append(actions[shard], a)
		} else {
			// Unknown pool: keep the action on shard 0 so sim.New reports
			// the same configuration error the unsharded stream would.
			actions[0] = append(actions[0], a)
		}
	}
	out := make([]Source, n)
	for i := range groups {
		sub := s.cfg
		sub.Pools = groups[i]
		out[i] = &simSource{cfg: sub, days: s.days, actions: actions[i]}
	}
	return out
}

// synthSource streams a synthetic-workload replay (Step 3): an offline pool
// driven through a reproducible offered-load sweep.
type synthSource struct {
	pool          PoolConfig
	profile       Profile
	ticksPerLevel int
	seed          int64
}

// NewSynthSource returns a Source that replays a synthetic workload profile
// (see BuildProfile in internal/synth) against an offline pool. Each of the
// profile's load levels runs for ticksPerLevel windows.
func NewSynthSource(pool PoolConfig, profile Profile, ticksPerLevel int, seed int64) Source {
	return &synthSource{pool: pool, profile: profile, ticksPerLevel: ticksPerLevel, seed: seed}
}

// PoolNames identifies the single pool the replay drives.
func (s *synthSource) PoolNames() []string { return []string{s.pool.Name} }

func (s *synthSource) Stream(ctx context.Context, emit func(Record) error) error {
	recs, err := synth.ReplayContext(ctx, s.pool, s.profile, s.ticksPerLevel, s.seed)
	if err != nil {
		return err
	}
	return emitAll(ctx, recs, emit)
}

// replaySource streams an in-memory record slice: traces decoded from CSV /
// JSONL files or assembled by tests. A shard shares its parent's slice and
// lists its own records by index, so sharding copies no records.
type replaySource struct {
	recs []Record
	// idx and pools are set on shards only: the positions in recs of the
	// shard's records, in stream order, and the shard's pool names.
	idx   []int
	pools []string
}

// NewReplaySource returns a Source that replays the given records in order.
// The slice is not copied; the caller must not mutate it while the source is
// in use. The source shards by (pool, datacenter) key, preserving per-key
// record order.
func NewReplaySource(recs []Record) ShardedSource {
	return &replaySource{recs: recs}
}

func (s *replaySource) Stream(ctx context.Context, emit func(Record) error) error {
	if s.idx == nil {
		return emitAll(ctx, s.recs, emit)
	}
	for j, i := range s.idx {
		if j%1024 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if err := emit(s.recs[i]); err != nil {
			return err
		}
	}
	return ctx.Err()
}

// PoolNames lists the distinct pool names in the trace, in first-seen order.
func (s *replaySource) PoolNames() []string {
	if s.idx != nil {
		return s.pools
	}
	seen := map[string]bool{}
	var out []string
	for _, r := range s.recs {
		if !seen[r.Pool] {
			seen[r.Pool] = true
			out = append(out, r.Pool)
		}
	}
	return out
}

// Shards splits the trace by (pool, datacenter) key. A shard does not split
// further: its Shards returns the shard itself.
func (s *replaySource) Shards(n int) []Source {
	if s.idx != nil {
		return []Source{s}
	}
	// Pass 1: collect the key set in first-seen order. The map is consulted
	// only when the key changes from the previous record's.
	seen := make(map[metrics.PoolKey]int)
	var first []metrics.PoolKey
	var last metrics.PoolKey
	for i := range s.recs {
		r := &s.recs[i]
		if i > 0 && r.DC == last.DC && r.Pool == last.Pool {
			continue
		}
		last = metrics.PoolKey{DC: r.DC, Pool: r.Pool}
		if _, ok := seen[last]; !ok {
			seen[last] = 0 // shard assigned after sorting
			first = append(first, last)
		}
	}
	if n > len(first) {
		n = len(first)
	}
	if n <= 1 {
		return []Source{s}
	}
	// Deterministic assignment independent of input order.
	order := slices.Clone(first)
	sort.Slice(order, func(i, j int) bool {
		if order[i].Pool != order[j].Pool {
			return order[i].Pool < order[j].Pool
		}
		return order[i].DC < order[j].DC
	})
	for i, k := range order {
		seen[k] = i % n
	}
	shards := make([]*replaySource, n)
	for i := range shards {
		shards[i] = &replaySource{recs: s.recs}
	}
	// A shard's pools in first-seen order: the first occurrence of each of
	// its keys in its own records is that key's first in the whole trace.
	for _, k := range first {
		sh := shards[seen[k]]
		if !slices.Contains(sh.pools, k.Pool) {
			sh.pools = append(sh.pools, k.Pool)
		}
	}
	// Pass 2: list each record's index on its shard. Per-key record order
	// is preserved, which is all Merge's bit-identity needs.
	var sh *replaySource
	for i := range s.recs {
		r := &s.recs[i]
		if sh == nil || r.DC != last.DC || r.Pool != last.Pool {
			last = metrics.PoolKey{DC: r.DC, Pool: r.Pool}
			sh = shards[seen[last]]
		}
		sh.idx = append(sh.idx, i)
	}
	out := make([]Source, n)
	for i, sh := range shards {
		out[i] = sh
	}
	return out
}

// emitAll streams a record slice through emit with periodic cancellation
// checks.
func emitAll(ctx context.Context, recs []trace.Record, emit func(Record) error) error {
	for i, r := range recs {
		if i%1024 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if err := emit(r); err != nil {
			return err
		}
	}
	return ctx.Err()
}

var (
	_ ShardedSource = (*simSource)(nil)
	_ Source        = (*synthSource)(nil)
	_ ShardedSource = (*replaySource)(nil)
	_ PoolNamer     = (*simSource)(nil)
	_ PoolNamer     = (*synthSource)(nil)
	_ PoolNamer     = (*replaySource)(nil)
)

// ErrNoSource reports an operation on a session configured with neither
// WithSource nor WithFleet. Callers building services on the library (such
// as cmd/capserved) can errors.Is against it to classify the failure as a
// configuration error rather than an execution error.
var ErrNoSource = errors.New("headroom: session has no record source (configure WithSource or WithFleet)")
