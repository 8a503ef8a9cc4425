// Command perfbench is the repository benchmark. It drives the capacity-
// planning pipeline through one of four workloads and prints either the
// end-to-end metrics (an untraced run) or the per-layer metrics (a traced
// run). The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Build and run it from the repository root with perfbench/run.sh; see
// perfbench/README.md for the workloads, the metrics and the baseline.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed     = fs.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds  = fs.Float64("seconds", 20, "measured seconds")
		traced   = fs.Int("trace", 0, "0 = end-to-end run, 1 = traced per-layer run")
		scratch  = fs.String("scratch", "", "directory for files a workload writes (the trace-plan CSV)")
		selftest = fs.Bool("selftest", false, "run every workload on a tiny request list and check the harness itself")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *scratch == "" {
		fmt.Fprintln(stderr, "perfbench: -scratch is required")
		return 2
	}
	if *selftest {
		if err := selfTest(ctx, stdout, *scratch); err != nil {
			fmt.Fprintln(stderr, "perfbench: selftest:", err)
			return 1
		}
		fmt.Fprintln(stdout, "selftest: ok")
		return 0
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	p := params{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), scratch: *scratch}
	var (
		res *report
		err error
	)
	if *traced == 1 {
		res, err = tracedRun(ctx, w, p)
	} else {
		res, err = measuredRun(ctx, w, p)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if err := res.print(stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one run's outcome: the counts the result line carries, the
// metrics, and the human-readable notes printed above it.
type report struct {
	workload  string
	seed      int64
	attempted int
	failed    int
	// problems lists every failed output check; a run with any is not
	// correct.
	problems []string
	metrics  map[string]metric
	notes    []string
	// digest summarises the result hashes of the first requests of the
	// request list; equal seeds must give equal digests.
	digest string
}

func (r *report) set(name string, v float64, unit string) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) note(format string, v ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, v...))
}

func (r *report) problem(format string, v ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, v...))
}

func (r *report) correct() bool { return len(r.problems) == 0 && r.failed == 0 }

// print writes the notes, one line per metric, and the result line last.
func (r *report) print(w io.Writer) error {
	fmt.Fprintf(w, "workload %s seed %d\n", r.workload, r.seed)
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	for _, p := range r.problems {
		fmt.Fprintln(w, "check failed:", p)
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Fprintf(w, "  %-30s %14.6g %s\n", n, m.Value, m.Unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, r.metrics})
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// errNoWork reports a run in which not one request was attempted.
var errNoWork = errors.New("no request completed within the measured time")
