package main

// Measurement primitives: the closed-loop load generator, order
// statistics, peak resident memory, runtime/metrics deltas and a Prometheus
// text scrape parser.

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// opFunc runs request i on client c once and returns the time from send to
// full response, the hash of the checked result, and an error when the
// request failed or its output failed a check.
type opFunc func(c, i int) (time.Duration, [32]byte, error)

// loopResult is what a closed loop observed.
type loopResult struct {
	lats      []time.Duration // successful requests only
	attempted int
	failed    int
	wall      time.Duration
	errs      []string // distinct failure messages, capped
	// hashes maps request index to its result hash, for the indices below
	// digestN.
	hashes map[int][32]byte
	last   int // highest request index attempted
}

// digestN is how many leading requests of the list the result digest
// covers. Every run of every workload completes at least this many.
const digestN = 4

// closedLoop runs `clients` callers that each send their next request only
// after the previous one completed: client c sends requests first+c,
// first+c+clients, ... until d has elapsed (or, with limit > 0, until limit
// requests were sent in total).
func closedLoop(clients int, d time.Duration, first, limit int, op opFunc) loopResult {
	var (
		mu  sync.Mutex
		res = loopResult{hashes: map[int][32]byte{}, last: first - 1}
		wg  sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lats := make([]time.Duration, 0, 1024)
			for k := 0; ; k++ {
				i := first + c + k*clients
				if time.Now().After(deadline) || (limit > 0 && i-first >= limit) {
					break
				}
				lat, h, err := op(c, i)
				mu.Lock()
				res.attempted++
				if i > res.last {
					res.last = i
				}
				if err != nil {
					res.failed++
					if len(res.errs) < 5 {
						res.errs = append(res.errs, fmt.Sprintf("request %d: %v", i, err))
					}
				} else if i-first < digestN {
					res.hashes[i-first] = h
				}
				mu.Unlock()
				if err == nil {
					lats = append(lats, lat)
				}
			}
			mu.Lock()
			res.lats = append(res.lats, lats...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	res.wall = time.Since(start)
	return res
}

// digest summarises the result hashes of the first digestN requests.
func (l loopResult) digest() string {
	h := sha256.New()
	for i := 0; i < digestN; i++ {
		sum, ok := l.hashes[i]
		if !ok {
			return "incomplete"
		}
		h.Write(sum[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// sorted returns a sorted copy.
func sorted(xs []time.Duration) []time.Duration {
	out := append([]time.Duration(nil), xs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// median of a sorted slice (the mean of the middle pair for even lengths).
func median(s []time.Duration) time.Duration {
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailSamples is how many samples must lie beyond the reported tail.
const tailSamples = 10

// tail returns the nearest-rank pct-th percentile of a sorted slice, or,
// when fewer than tailSamples samples lie beyond it, the highest order
// statistic that has tailSamples beyond it; with the percentile it reports
// and how many samples lie beyond.
func tail(s []time.Duration, pct float64) (time.Duration, float64, int) {
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	k := int(math.Ceil(pct/100*float64(n))) - 1
	if n-1-k < tailSamples {
		k = max(n-1-tailSamples, n/2)
		pct = 100 * float64(k+1) / float64(n)
	}
	return s[k], pct, n - 1 - k
}

// medianOf returns the median of float samples.
func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSSMB reads the process's peak resident set size (VmHWM) in MB. A
// run's process serves one workload, so this is that workload's peak,
// set-up included.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err != nil {
					return 0, fmt.Errorf("read peak RSS: %w", err)
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, errors.New("read peak RSS: no VmHWM line in /proc/self/status")
}

// runtimeSnap is a reading of the runtime/metrics the benchmark uses.
type runtimeSnap struct {
	allocBytes               uint64
	gcCPU, totalCPU, idleCPU float64
	heapLive                 uint64
}

// runtimeMetrics names the runtime/metrics readRuntime reads, in
// runtimeSnap order.
var runtimeMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/memory/classes/heap/objects:bytes",
}

func readRuntime() runtimeSnap {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	return runtimeSnap{
		allocBytes: s[0].Value.Uint64(),
		gcCPU:      s[1].Value.Float64(),
		totalCPU:   s[2].Value.Float64(),
		idleCPU:    s[3].Value.Float64(),
		heapLive:   s[4].Value.Uint64(),
	}
}

// heapAfterGC forces a collection and returns the live heap bytes.
func heapAfterGC() uint64 {
	runtime.GC()
	return readRuntime().heapLive
}

// scrape is a parsed Prometheus text exposition: series (name plus label
// set, exactly as exposed) to value.
type scrape map[string]float64

func parseScrape(b []byte) scrape {
	out := scrape{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[line[:sp]] = v
	}
	return out
}

// sum adds every series of the named metric whose labels contain all of
// the given `key="value"` pairs.
func (s scrape) sum(name string, labels ...string) float64 {
	var t float64
	for series, v := range s {
		base, rest, _ := strings.Cut(series, "{")
		if base != name {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(rest, l) {
				ok = false
				break
			}
		}
		if ok {
			t += v
		}
	}
	return t
}

// delta returns after−before for one metric selection.
func delta(before, after scrape, name string, labels ...string) float64 {
	return after.sum(name, labels...) - before.sum(name, labels...)
}

// meanMs is Δsum/Δcount of a seconds histogram, in milliseconds, or 0 when
// nothing was observed.
func meanMs(before, after scrape, name string, labels ...string) float64 {
	n := delta(before, after, name+"_count", labels...)
	if n <= 0 {
		return 0
	}
	return 1000 * delta(before, after, name+"_sum", labels...) / n
}

// ratio divides, returning 0 for an empty denominator.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
