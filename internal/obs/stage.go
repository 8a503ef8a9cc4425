package obs

// Stage metrics: process-wide histograms on prom.Default that every layer
// records into — the session pipeline (per-stage durations, per-shard
// simulate timings) and the job queue (wait-vs-run split). Registered here
// so non-HTTP packages don't need a registry handle; the server's /metrics
// renders prom.Default alongside its own registry.

import (
	"strconv"
	"time"

	"headroom/internal/obs/prom"
)

// Stages are the pipeline stages with pre-registered duration series.
var Stages = []string{"simulate", "aggregate", "merge", "plan", "validate", "forecast"}

var (
	stageSeconds = func() map[string]*prom.Histogram {
		m := make(map[string]*prom.Histogram, len(Stages))
		for _, st := range Stages {
			m[st] = prom.Default.Histogram("headroom_stage_duration_seconds",
				"Pipeline stage duration, by stage.", prom.Labels{"stage": st}, prom.StageBuckets)
		}
		return m
	}()
	queueWaitSeconds = prom.Default.Histogram("headroom_jobs_queue_wait_seconds",
		"Time a job spent queued before a worker picked it up.", nil, prom.StageBuckets)
	jobRunSeconds = prom.Default.Histogram("headroom_jobs_run_seconds",
		"Time a job spent executing (first pickup to terminal state, spanning retries).", nil, prom.StageBuckets)
)

// ObserveStage records one completed pipeline stage. Stages outside the
// pre-registered set get a lazily-registered series rather than being
// dropped.
func ObserveStage(stage string, d time.Duration) {
	h, ok := stageSeconds[stage]
	if !ok {
		h = prom.Default.LazyHistogram("headroom_stage_duration_seconds",
			"Pipeline stage duration, by stage.", prom.Labels{"stage": stage}, prom.StageBuckets)
	}
	h.Observe(d.Seconds())
}

// ObserveShard records one simulate/aggregate shard's duration, labelled by
// shard index so the series count is bounded by the shard count rather than
// by the pool sets requests ask for; the series registers on first use.
func ObserveShard(shard int, d time.Duration) {
	prom.Default.LazyHistogram("headroom_simulate_shard_duration_seconds",
		"Per-shard simulate/aggregate duration, by shard index.", prom.Labels{"shard": strconv.Itoa(shard)},
		prom.StageBuckets).Observe(d.Seconds())
}

// ObserveQueueWait records how long a job waited in the queue.
func ObserveQueueWait(d time.Duration) { queueWaitSeconds.Observe(d.Seconds()) }

// ObserveJobRun records how long a job ran once picked up.
func ObserveJobRun(d time.Duration) { jobRunSeconds.Observe(d.Seconds()) }
