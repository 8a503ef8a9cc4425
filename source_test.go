package headroom_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"headroom"
)

// poolRecords builds n in-order windows for one (pool, dc) key.
func poolRecords(pool, dc string, n int) []headroom.Record {
	recs := make([]headroom.Record, 0, n)
	for i := 0; i < n; i++ {
		recs = append(recs, headroom.Record{
			Tick: i, DC: dc, Pool: pool, Server: "s1", Online: true,
			RPS: 100 + float64(i), CPUPct: 10, LatencyMs: 20,
		})
	}
	return recs
}

func TestReplaySourceEmpty(t *testing.T) {
	ctx := context.Background()
	src := headroom.NewReplaySource(nil)

	// Streaming an empty slice emits nothing and succeeds.
	var n int
	if err := src.Stream(ctx, func(headroom.Record) error { n++; return nil }); err != nil {
		t.Fatalf("Stream: %v", err)
	}
	if n != 0 {
		t.Errorf("emitted %d records from an empty source", n)
	}

	// Sharding an empty source degenerates to the source itself.
	if shards := src.Shards(8); len(shards) != 1 {
		t.Errorf("Shards(8) on empty source = %d shards, want 1", len(shards))
	}

	// Aggregating it yields an empty (but valid) aggregator.
	s, err := headroom.New(ctx, headroom.WithSource(src))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	agg, err := s.Simulate(ctx, 0)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if pools := agg.Pools(); len(pools) != 0 {
		t.Errorf("pools = %v, want none", pools)
	}
}

func TestReplaySourceSinglePool(t *testing.T) {
	ctx := context.Background()
	recs := poolRecords("B", "DC 1", 100)
	src := headroom.NewReplaySource(recs)

	// One (pool, dc) key cannot be split further: sharding returns a
	// single shard no matter how many are requested.
	if shards := src.Shards(8); len(shards) != 1 {
		t.Fatalf("Shards(8) with one pool = %d shards, want 1", len(shards))
	}

	// Sharded session aggregation over the single-pool source must match
	// the sequential pass exactly.
	sharded, err := headroom.New(ctx, headroom.WithSource(src), headroom.WithShards(8))
	if err != nil {
		t.Fatal(err)
	}
	sequential, err := headroom.New(ctx, headroom.WithSource(headroom.NewReplaySource(recs)), headroom.WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	got, err := sharded.Simulate(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sequential.Simulate(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	gs, err := got.PoolSeries("DC 1", "B")
	if err != nil {
		t.Fatal(err)
	}
	ws, err := want.PoolSeries("DC 1", "B")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gs, ws) {
		t.Error("sharded single-pool aggregate differs from sequential")
	}
	if len(gs) != 100 {
		t.Errorf("windows = %d, want 100", len(gs))
	}
}

func TestReplaySourceCancellationMidStream(t *testing.T) {
	// Enough records to cross emitAll's periodic cancellation checks.
	var recs []headroom.Record
	for _, pool := range []string{"A", "B", "C"} {
		recs = append(recs, poolRecords(pool, "DC 1", 2000)...)
	}
	src := headroom.NewReplaySource(recs)

	ctx, cancel := context.WithCancel(context.Background())
	var n int
	err := src.Stream(ctx, func(headroom.Record) error {
		n++
		if n == 1500 {
			cancel() // cancel mid-stream, away from a batch boundary
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Stream after mid-stream cancel = %v, want context.Canceled", err)
	}
	if n >= len(recs) {
		t.Errorf("stream ran to completion (%d records) despite cancellation", n)
	}

	// A session over the cancelled context refuses to aggregate at all.
	s, err := headroom.New(context.Background(), headroom.WithSource(src))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Simulate(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Errorf("Simulate over cancelled ctx = %v, want context.Canceled", err)
	}
}

func TestReplaySourceEmitErrorAborts(t *testing.T) {
	recs := poolRecords("B", "DC 1", 50)
	src := headroom.NewReplaySource(recs)
	boom := errors.New("boom")
	var n int
	err := src.Stream(context.Background(), func(headroom.Record) error {
		n++
		if n == 10 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want emit error returned as-is", err)
	}
	if n != 10 {
		t.Errorf("emitted %d records after abort, want 10", n)
	}
}

func TestReplaySourceShardsPreserveAllRecords(t *testing.T) {
	// Several pools with unequal sizes: shards must union back to the
	// full stream with per-key order intact.
	var recs []headroom.Record
	for i, pool := range []string{"A", "B", "C", "D", "E"} {
		recs = append(recs, poolRecords(pool, "DC 1", 10*(i+1))...)
	}
	src := headroom.NewReplaySource(recs)
	shards := src.Shards(3)
	if len(shards) != 3 {
		t.Fatalf("Shards(3) = %d shards", len(shards))
	}
	perKey := map[string][]int{}
	var total int
	for i, sh := range shards {
		var pools []string
		if err := sh.Stream(context.Background(), func(r headroom.Record) error {
			total++
			key := fmt.Sprintf("%s@%s", r.Pool, r.DC)
			perKey[key] = append(perKey[key], r.Tick)
			if !slices.Contains(pools, r.Pool) {
				pools = append(pools, r.Pool)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		// A shard names exactly the pools it streams, in first-seen order,
		// so shard failures are attributed to the right pools.
		pn, ok := sh.(headroom.PoolNamer)
		if !ok {
			t.Fatalf("shard %d does not implement PoolNamer", i)
		}
		if got := pn.PoolNames(); !reflect.DeepEqual(got, pools) {
			t.Errorf("shard %d PoolNames = %v, streams pools %v", i, got, pools)
		}
	}
	if total != len(recs) {
		t.Errorf("shards emitted %d records, want %d", total, len(recs))
	}
	for key, ticks := range perKey {
		for i := 1; i < len(ticks); i++ {
			if ticks[i] <= ticks[i-1] {
				t.Errorf("%s: per-key order broken at %d (%d after %d)", key, i, ticks[i], ticks[i-1])
				break
			}
		}
	}
}

func TestReplaySourceShardCancellationMidStream(t *testing.T) {
	var recs []headroom.Record
	for _, pool := range []string{"A", "B"} {
		recs = append(recs, poolRecords(pool, "DC 1", 5000)...)
	}
	shards := headroom.NewReplaySource(recs).Shards(2)
	if len(shards) != 2 {
		t.Fatalf("Shards(2) = %d shards", len(shards))
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var n int
	err := shards[1].Stream(ctx, func(headroom.Record) error {
		n++
		if n == 1500 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("shard Stream after mid-stream cancel = %v, want context.Canceled", err)
	}
	if n >= 5000 {
		t.Errorf("shard stream ran to completion (%d records) despite cancellation", n)
	}
}

// twoDCReplay interleaves several pools over two datacenters, tick by tick,
// the way a fleet trace is laid out.
func twoDCReplay() []headroom.Record {
	var recs []headroom.Record
	for tick := 0; tick < 300; tick++ {
		for _, pool := range []string{"A", "B", "C"} {
			for _, dc := range []string{"DC 1", "DC 2"} {
				for s := 0; s < 4; s++ {
					recs = append(recs, headroom.Record{
						Tick: tick, DC: dc, Pool: pool, Server: fmt.Sprintf("%s-%d", pool, s), Online: true,
						RPS: float64(100 + (tick*7+s*13)%90), CPUPct: float64(5 + (tick+s)%60), LatencyMs: float64(10 + (tick*3+s)%25),
					})
				}
			}
		}
	}
	return recs
}

func TestReplaySourceShardedAggregateBytesIdentical(t *testing.T) {
	ctx := context.Background()
	recs := twoDCReplay()
	encode := func(shards int) []byte {
		s, err := headroom.New(ctx, headroom.WithSource(headroom.NewReplaySource(recs)), headroom.WithShards(shards))
		if err != nil {
			t.Fatal(err)
		}
		agg, err := s.Aggregate(ctx, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := headroom.EncodeAggregator(agg)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	want := encode(1)
	for _, shards := range []int{2, 4, 6} {
		if got := encode(shards); !bytes.Equal(got, want) {
			t.Errorf("WithShards(%d) aggregate encodes to %d bytes that differ from WithShards(1)'s %d", shards, len(got), len(want))
		}
	}
}
