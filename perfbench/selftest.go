package main

// The harness self-test (-selftest): every workload on a tiny request list.
// It checks that BENCHMARK.json, the catalog and the workloads agree, that
// every run passes its output checks and emits every metric with its unit,
// that equal seeds give equal result digests and different seeds do not,
// and that plan-cold and plan-dist agree byte for byte.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// benchmarkFile is the benchmark definition at the repository root.
const benchmarkFile = "BENCHMARK.json"

type benchmarkDef struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func selfTest(ctx context.Context, out io.Writer, scratch string) error {
	if err := checkDefinition(); err != nil {
		return err
	}
	digests := map[string]string{}
	for _, name := range workloadNames() {
		w := workloads[name]
		p := params{seed: 7, seconds: time.Minute, scratch: scratch, limit: digestN, setups: 2, hotSet: 4}
		if w.clients > 1 {
			p.limit = 2 * digestN
		}
		start := time.Now()
		a, err := checkedRun(ctx, w, p, false)
		if err != nil {
			return err
		}
		b, err := checkedRun(ctx, w, p, false)
		if err != nil {
			return err
		}
		if a.digest != b.digest || a.digest == "incomplete" {
			return fmt.Errorf("%s: seed %d gave result digests %s and %s", name, p.seed, a.digest, b.digest)
		}
		q := p
		q.seed++
		c, err := checkedRun(ctx, w, q, false)
		if err != nil {
			return err
		}
		if c.digest == a.digest {
			return fmt.Errorf("%s: seeds %d and %d gave the same result digest %s", name, p.seed, q.seed, a.digest)
		}
		t, err := checkedRun(ctx, w, p, true)
		if err != nil {
			return err
		}
		if t.digest != a.digest {
			return fmt.Errorf("%s: traced run's result digest %s differs from the untraced %s", name, t.digest, a.digest)
		}
		digests[name] = a.digest
		fmt.Fprintf(out, "selftest: %-10s ok in %.1f s (digest %s, %d metrics traced)\n",
			name, time.Since(start).Seconds(), a.digest, len(t.metrics))
	}
	// Local and distributed execution of one request list must give
	// byte-identical results.
	if digests["plan-cold"] != digests["plan-dist"] {
		return fmt.Errorf("plan-cold and plan-dist gave result digests %s and %s for one request list",
			digests["plan-cold"], digests["plan-dist"])
	}
	return nil
}

// checkedRun runs one workload and checks the report is correct and holds
// exactly the catalog's metrics for its kind, each with its unit.
func checkedRun(ctx context.Context, w *workload, p params, traced bool) (*report, error) {
	run, want := measuredRun, endToEnd
	if traced {
		run, want = tracedRun, perLayer
	}
	rep, err := run(ctx, w, p)
	if err != nil {
		return nil, fmt.Errorf("%s (traced %v): %w", w.name, traced, err)
	}
	if !rep.correct() {
		return nil, fmt.Errorf("%s (traced %v): %d of %d requests failed; checks: %s",
			w.name, traced, rep.failed, rep.attempted, strings.Join(rep.problems, "; "))
	}
	if len(rep.metrics) != len(want) {
		return nil, fmt.Errorf("%s (traced %v): %d metrics emitted, want %d", w.name, traced, len(rep.metrics), len(want))
	}
	for _, m := range want {
		got, ok := rep.metrics[m.name]
		if !ok || got.Unit != m.unit {
			return nil, fmt.Errorf("%s (traced %v): metric %s emitted as %+v, want unit %s", w.name, traced, m.name, got, m.unit)
		}
	}
	return rep, nil
}

// checkDefinition checks BENCHMARK.json lists exactly the catalog's
// metrics, in order and with their units, and exactly the workloads.
func checkDefinition() error {
	raw, err := os.ReadFile(benchmarkFile)
	if err != nil {
		return err
	}
	var def benchmarkDef
	if err := json.Unmarshal(raw, &def); err != nil {
		return fmt.Errorf("%s: %w", benchmarkFile, err)
	}
	var names []string
	for _, w := range def.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		return fmt.Errorf("%s lists workloads %v, the harness has %v", benchmarkFile, names, workloadNames())
	}
	same := func(kind string, got []metricSpec, want []metricSpec) error {
		if len(got) != len(want) {
			return fmt.Errorf("%s lists %d %s metrics, the harness has %d", benchmarkFile, len(got), kind, len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				return fmt.Errorf("%s %s metric %d is %v, the harness has %v", benchmarkFile, kind, i, got[i], want[i])
			}
		}
		return nil
	}
	var e2e, layers []metricSpec
	for _, m := range def.EndToEnd {
		e2e = append(e2e, metricSpec{m.Name, m.Unit})
	}
	for _, m := range def.PerLayer {
		layers = append(layers, metricSpec{m.Name, m.Unit})
	}
	if err := same("end_to_end", e2e, endToEnd); err != nil {
		return err
	}
	return same("per_layer", layers, perLayer)
}
