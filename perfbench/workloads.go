package main

// The four workloads. Each set-up builds a fresh server, cluster or trace
// file and does the workload's warm-up work; the measured loop then replays
// the workload's seeded request list against it.

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"headroom"
	"headroom/internal/server"
	"headroom/internal/trace"
)

// params carry the command line into a workload.
type params struct {
	seed    int64
	seconds time.Duration
	scratch string
	// limit caps the requests of each measured loop (0 = bounded by time
	// only); the self-test uses it for a tiny request list.
	limit int
	// setups is how many times a run sets up (the median is reported);
	// 0 means defaultSetups.
	setups int
	// hotSet overrides the serve-hot hot-set size (0 = hotSetSize).
	hotSet int
}

const (
	// defaultSetups set-ups per run; setup_s reports their median.
	defaultSetups = 3
	// warmups is how many requests outside the measured list a plan
	// workload's set-up sends.
	warmups = 2
	// hotSetSize distinct requests make up serve-hot's hot set, well under
	// the server's 128-entry result cache.
	hotSetSize = 32
	// serverWorkers and serverShards size every server the benchmark
	// starts, so the workload does not change with the machine.
	serverWorkers = 2
	serverShards  = 2
	distToken     = "perfbench-dist-token"
	// tracePool is the pool the trace-plan workload's trace file holds, at
	// half its servers in each of its two datacenters, so the replay
	// shards in two.
	tracePool = "G"
)

// planPools is the fixed two-pool plan every plan request asks for.
var planPools = []string{"A", "C"}

func (p params) setupRuns() int {
	if p.setups > 0 {
		return p.setups
	}
	return defaultSetups
}

func (p params) hotSize() int {
	if p.hotSet > 0 {
		return p.hotSet
	}
	return hotSetSize
}

// workload is one named input set with its client count and set-up.
type workload struct {
	name    string
	clients int
	// tailPct is the percentile latency_tail_ms reports, chosen so a run
	// holds at least tailSamples samples beyond it.
	tailPct float64
	setup   func(ctx context.Context, p params) (rig, error)
}

// rig is a set-up workload, ready to measure.
type rig interface {
	// op runs request i on client c (see opFunc).
	op(c, i int) (time.Duration, [32]byte, error)
	// warmDigest summarises the results the set-up computed; every set-up
	// of one run must produce the same digest.
	warmDigest() string
	// verify runs the untimed cross-path checks after the last set-up.
	verify(ctx context.Context) error
	close() error
}

var workloads = map[string]*workload{
	"plan-cold": {
		name:    "plan-cold",
		clients: 1,
		tailPct: 90,
		setup:   func(ctx context.Context, p params) (rig, error) { return setupPlan(ctx, p, false) },
	},
	"plan-dist": {
		name:    "plan-dist",
		clients: 1,
		tailPct: 85,
		setup:   func(ctx context.Context, p params) (rig, error) { return setupPlan(ctx, p, true) },
	},
	"serve-hot": {
		name:    "serve-hot",
		clients: 2,
		tailPct: 99,
		setup:   setupServeHot,
	},
	"trace-plan": {
		name:    "trace-plan",
		clients: 1,
		tailPct: 85,
		setup:   setupTracePlan,
	},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// seedBase maps the benchmark seed to the first fleet seed of its request
// list (splitmix64), so nearby benchmark seeds give unrelated inputs.
func seedBase(seed int64) int64 {
	return int64(mix(uint64(seed))%(1<<40)) + 1_000_000
}

// mix is the splitmix64 finaliser.
func mix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// planBody is the request body of a one-day plan of planPools with the
// given fleet seed. Planner settings are explicit so a request decodes to
// its canonical form without the server's defaults.
func planBody(fleetSeed int64) []byte {
	b, err := json.Marshal(server.PlanRequest{
		SimulateRequest: server.SimulateRequest{Days: 1, Seed: fleetSeed, Pools: planPools},
		LatencyBudgetMs: 5,
		PlanSeed:        2,
	})
	if err != nil {
		panic(err) // a fixed struct always marshals
	}
	return b
}

// expectedKeys counts the (pool, datacenter) pairs of a fleet: the number
// of plans a complete result holds.
func expectedKeys(cfg headroom.FleetConfig) int {
	n := 0
	for _, pc := range cfg.Pools {
		for _, servers := range pc.Servers {
			if servers > 0 {
				n++
			}
		}
	}
	return n
}

// --- servers -------------------------------------------------------------

// node is one in-process capserved instance serving on a loopback port.
type node struct {
	srv  *server.Server
	base string
	stop context.CancelFunc
	done chan error
}

func startNode(cfg server.Config) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := server.New(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	n := &node{srv: s, base: "http://" + ln.Addr().String(), stop: cancel, done: make(chan error, 1)}
	go func() { n.done <- s.Serve(ctx, ln) }()
	return n, nil
}

// close drains the node and waits for Serve to return.
func (n *node) close() error {
	n.stop()
	return <-n.done
}

// httpRig is a set-up HTTP workload: its servers (entry point last) and
// the client that drives them.
type httpRig struct {
	nodes     []*node
	transport *http.Transport
	client    *http.Client
	bufs      []bytes.Buffer // one response buffer per client
	expect    int            // plans per complete result
	warm      [][32]byte     // result hashes of the set-up requests
	warmBody  [][]byte       // request bodies of the set-up requests
	warmRes   [][]byte       // compact result bytes of the set-up requests
	body      func(i int) []byte
	hot       []hotEntry // serve-hot only
	drawSeed  uint64     // seeds serve-hot's draws from the hot set
	dist      bool
	respBytes atomic.Int64
	responses atomic.Int64
}

// hotEntry is one hot-set request with the result bytes set-up computed,
// exactly as the job envelope embeds them.
type hotEntry struct {
	body     []byte
	indented []byte
	hash     [32]byte
}

func newHTTPRig(clients, expect int) *httpRig {
	tr := &http.Transport{
		Proxy:               nil,
		MaxIdleConnsPerHost: clients,
		MaxConnsPerHost:     clients,
		DisableCompression:  true,
	}
	return &httpRig{
		transport: tr,
		client:    &http.Client{Transport: tr, Timeout: 2 * time.Minute},
		bufs:      make([]bytes.Buffer, clients),
		expect:    expect,
	}
}

func (r *httpRig) entry() *node { return r.nodes[len(r.nodes)-1] }

func (r *httpRig) close() error {
	r.transport.CloseIdleConnections()
	var errs []error
	// Entry point first, so no dispatch is in flight when workers drain.
	for i := len(r.nodes) - 1; i >= 0; i-- {
		if err := r.nodes[i].close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// post sends one plan request on client c and returns the time from send
// to full response body and the body (valid until c's next post).
func (r *httpRig) post(c int, body []byte) (time.Duration, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, r.entry().base+"/v1/plan?wait=true", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	buf := &r.bufs[c]
	buf.Reset()
	start := time.Now()
	resp, err := r.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err != nil {
		return lat, nil, fmt.Errorf("read response: %w", err)
	}
	r.respBytes.Add(int64(buf.Len()))
	r.responses.Add(1)
	if resp.StatusCode != http.StatusOK {
		return lat, nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, clip(buf.Bytes()))
	}
	return lat, buf.Bytes(), nil
}

// envelope is the part of the job view the checks read.
type envelope struct {
	State  string          `json:"state"`
	Error  string          `json:"error"`
	Result json.RawMessage `json:"result"`
}

// checkPlan checks a plan response body and returns the embedded result
// as sent (indented) and compacted.
func (r *httpRig) checkPlan(body []byte) (indented, compact []byte, err error) {
	var v envelope
	if err := json.Unmarshal(body, &v); err != nil {
		return nil, nil, fmt.Errorf("decode job view: %w", err)
	}
	if v.State != "done" {
		return nil, nil, fmt.Errorf("job state %q: %s", v.State, v.Error)
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, v.Result); err != nil {
		return nil, nil, fmt.Errorf("compact result: %w", err)
	}
	var res server.PlanResult
	if err := json.Unmarshal(buf.Bytes(), &res); err != nil {
		return nil, nil, fmt.Errorf("decode plan result: %w", err)
	}
	if res.Degraded || len(res.Plans) != r.expect {
		return nil, nil, fmt.Errorf("plan result has %d pool/DC plans (degraded %v), want %d", len(res.Plans), res.Degraded, r.expect)
	}
	return v.Result, buf.Bytes(), nil
}

// planOp is the op of plan-cold and plan-dist: request i is a plan with
// fleet seed base+i, never seen before by the server.
func (r *httpRig) planOp(c, i int) (time.Duration, [32]byte, error) {
	lat, body, err := r.post(c, r.body(i))
	if err != nil {
		return lat, [32]byte{}, err
	}
	_, compact, err := r.checkPlan(body)
	if err != nil {
		return lat, [32]byte{}, err
	}
	return lat, sha256.Sum256(compact), nil
}

var resultTag = []byte(`"result": `)

// hotOp is serve-hot's op: request i is hot-set entry hotIndex(i), and its
// result must be byte-identical to the one set-up computed.
func (r *httpRig) hotOp(c, i int) (time.Duration, [32]byte, error) {
	h := &r.hot[r.hotIndex(i)]
	lat, body, err := r.post(c, h.body)
	if err != nil {
		return lat, [32]byte{}, err
	}
	at := bytes.Index(body, resultTag)
	if at < 0 || !bytes.Contains(body[:at], []byte(`"state": "done"`)) {
		return lat, [32]byte{}, fmt.Errorf("job view without a done result: %s", clip(body))
	}
	if !bytes.HasPrefix(body[at+len(resultTag):], h.indented) {
		return lat, [32]byte{}, errors.New("cached result differs from the bytes computed in set-up")
	}
	return lat, h.hash, nil
}

// hotIndex draws request i's hot-set entry from the seeded stream.
func (r *httpRig) hotIndex(i int) int {
	return int(mix(r.drawSeed^uint64(i)*0xD1B54A32D192ED03) % uint64(len(r.hot)))
}

func (r *httpRig) op(c, i int) (time.Duration, [32]byte, error) {
	if r.hot != nil {
		return r.hotOp(c, i)
	}
	return r.planOp(c, i)
}

func (r *httpRig) warmDigest() string {
	h := sha256.New()
	for _, w := range r.warm {
		h.Write(w[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// verify checks the four-path invariant on the first set-up request: the
// served result (sharded, distributed or cached) must be byte-identical to
// a sequential library computation of the same request.
func (r *httpRig) verify(ctx context.Context) error {
	want, err := referencePlan(ctx, r.warmBody[0])
	if err != nil {
		return err
	}
	if !bytes.Equal(want, r.warmRes[0]) {
		return fmt.Errorf("served result differs from the sequential library result (%d vs %d bytes)", len(r.warmRes[0]), len(want))
	}
	return nil
}

// referencePlan computes a plan request through the library alone,
// sequentially, and renders it with server.BuildPlanResult.
func referencePlan(ctx context.Context, body []byte) ([]byte, error) {
	req, err := decodePlanRequest(body)
	if err != nil {
		return nil, err
	}
	cfg, err := req.Fleet()
	if err != nil {
		return nil, err
	}
	sess, err := headroom.New(ctx,
		headroom.WithSource(headroom.NewSimSource(cfg, req.Days)),
		headroom.WithShards(1),
		headroom.WithPlanConfig(req.PlanConfig()))
	if err != nil {
		return nil, err
	}
	agg, err := sess.Aggregate(ctx, nil)
	if err != nil {
		return nil, err
	}
	plans, err := sess.Plan(ctx, agg)
	if err != nil {
		return nil, err
	}
	return json.Marshal(server.BuildPlanResult(req, plans, nil))
}

// decodePlanRequest decodes a plan body as strictly as the server does
// (unknown fields rejected) and canonicalises it.
func decodePlanRequest(body []byte) (server.PlanRequest, error) {
	var req server.PlanRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, fmt.Errorf("decode request: %w", err)
	}
	if err := req.Normalize(); err != nil {
		return req, err
	}
	if _, err := req.Fleet(); err != nil {
		return req, err
	}
	return req, nil
}

// sendAll posts bodies with the rig's clients in parallel, checks each
// response, and records the results as the rig's set-up results.
func (r *httpRig) sendAll(bodies [][]byte) error {
	n := len(bodies)
	r.warm = make([][32]byte, n)
	r.warmBody = bodies
	r.warmRes = make([][]byte, n)
	indented := make([][]byte, n)
	errs := make([]error, len(r.bufs))
	var wg sync.WaitGroup
	for c := range r.bufs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < n; i += len(r.bufs) {
				_, body, err := r.post(c, bodies[i])
				if err == nil {
					var ind, compact []byte
					ind, compact, err = r.checkPlan(body)
					indented[i] = append([]byte(nil), ind...)
					r.warmRes[i] = append([]byte(nil), compact...)
					r.warm[i] = sha256.Sum256(compact)
				}
				if err != nil {
					errs[c] = fmt.Errorf("set-up request %d: %w", i, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	if r.hot != nil {
		for i := range r.hot {
			r.hot[i].indented = indented[i]
			r.hot[i].hash = r.warm[i]
		}
	}
	return nil
}

func planFleetKeys() (int, error) {
	cfg, err := server.SimulateRequest{Days: 1, Seed: 1, Pools: planPools}.Fleet()
	if err != nil {
		return 0, err
	}
	return expectedKeys(cfg), nil
}

// setupPlan starts the plan-cold server, or the plan-dist coordinator with
// its two workers, and sends the warm-up requests (fleet seeds just below
// the request list's, so they never repeat a measured request).
func setupPlan(ctx context.Context, p params, distributed bool) (rig, error) {
	expect, err := planFleetKeys()
	if err != nil {
		return nil, err
	}
	r := newHTTPRig(1, expect)
	r.dist = distributed
	base := seedBase(p.seed)
	r.body = func(i int) []byte { return planBody(base + int64(i)) }
	cfg := server.Config{Workers: serverWorkers, Shards: serverShards}
	if distributed {
		var peers []string
		for w := 0; w < 2; w++ {
			wcfg := cfg
			wcfg.DistToken = distToken
			n, err := startNode(wcfg)
			if err != nil {
				r.close()
				return nil, err
			}
			r.nodes = append(r.nodes, n)
			peers = append(peers, n.base)
		}
		cfg.Peers = peers
		cfg.DistToken = distToken
	}
	n, err := startNode(cfg)
	if err != nil {
		r.close()
		return nil, err
	}
	r.nodes = append(r.nodes, n)
	bodies := make([][]byte, warmups)
	for k := range bodies {
		bodies[k] = planBody(base - 1 - int64(k))
	}
	if err := r.sendAll(bodies); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// setupServeHot starts a server and computes the hot set through it: each
// hot request is sent once (a miss), so the measured loop only hits.
func setupServeHot(ctx context.Context, p params) (rig, error) {
	expect, err := planFleetKeys()
	if err != nil {
		return nil, err
	}
	r := newHTTPRig(2, expect)
	n, err := startNode(server.Config{Workers: serverWorkers, Shards: serverShards})
	if err != nil {
		return nil, err
	}
	r.nodes = []*node{n}
	r.drawSeed = mix(uint64(p.seed) ^ 0x5EED)
	base := seedBase(p.seed)
	bodies := make([][]byte, p.hotSize())
	r.hot = make([]hotEntry, len(bodies))
	for k := range bodies {
		bodies[k] = planBody(base + int64(k))
		r.hot[k].body = bodies[k]
	}
	if err := r.sendAll(bodies); err != nil {
		r.close()
		return nil, err
	}
	if st := n.srv.CacheStats(); st.Misses != int64(len(bodies)) || st.Size != len(bodies) {
		r.close()
		return nil, fmt.Errorf("hot-set fill: cache holds %d results after %d misses, want %d", st.Size, st.Misses, len(bodies))
	}
	return r, nil
}

// --- trace-plan ----------------------------------------------------------

// traceRig is a CSV trace on disk and the capplan call sequence over it.
type traceRig struct {
	path    string
	size    int64
	records int
	expect  int
	plan    headroom.PlanConfig
	want    [32]byte // result hash of the warm-up op
}

// setupTracePlan simulates one day of tracePool, writes it as a CSV trace
// file, and runs the capplan sequence over it once.
func setupTracePlan(ctx context.Context, p params) (rig, error) {
	cfg, err := server.SimulateRequest{Days: 1, Seed: seedBase(p.seed), Pools: []string{tracePool}}.Fleet()
	if err != nil {
		return nil, err
	}
	half := map[string]int{}
	for dc, n := range cfg.Pools[0].Servers {
		half[dc] = n / 2
	}
	cfg.Pools[0].Servers = half
	if err := os.MkdirAll(p.scratch, 0o755); err != nil {
		return nil, err
	}
	f, err := os.CreateTemp(p.scratch, "trace-*.csv")
	if err != nil {
		return nil, err
	}
	r := &traceRig{path: f.Name(), expect: expectedKeys(cfg), plan: headroom.PlanConfig{LatencyBudgetMs: 5, Seed: 1}}
	bw := bufio.NewWriterSize(f, 1<<20)
	cw := trace.NewCSVWriter(bw)
	err = headroom.NewSimSource(cfg, 1).Stream(ctx, func(rec headroom.Record) error {
		r.records++
		return cw.Write(rec)
	})
	if err == nil {
		err = cw.Flush()
	}
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		r.close()
		return nil, fmt.Errorf("write trace: %w", err)
	}
	st, err := os.Stat(r.path)
	if err != nil {
		r.close()
		return nil, err
	}
	r.size = st.Size()
	plans, err := r.run(ctx)
	if err == nil {
		r.want, err = r.check(plans)
	}
	if err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// run is the call sequence cmd/capplan makes: read the CSV trace, replay
// it through a sharded session, plan.
func (r *traceRig) run(ctx context.Context) ([]headroom.PoolPlan, error) {
	f, err := os.Open(r.path)
	if err != nil {
		return nil, err
	}
	recs, err := trace.ReadCSV(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	sess, err := headroom.New(ctx,
		headroom.WithSource(headroom.NewReplaySource(recs)),
		headroom.WithShards(serverShards),
		headroom.WithPlanConfig(r.plan))
	if err != nil {
		return nil, err
	}
	agg, err := sess.Aggregate(ctx, nil)
	if err != nil {
		return nil, err
	}
	return sess.Plan(ctx, agg)
}

// check hashes a plan result and checks its pool/DC count.
func (r *traceRig) check(plans []headroom.PoolPlan) ([32]byte, error) {
	if len(plans) != r.expect {
		return [32]byte{}, fmt.Errorf("trace plan has %d pool/DC plans, want %d", len(plans), r.expect)
	}
	b, err := json.Marshal(plans)
	if err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(b), nil
}

// op replays the same trace every time, so every result must equal the
// warm-up op's.
func (r *traceRig) op(_, _ int) (time.Duration, [32]byte, error) {
	start := time.Now()
	plans, err := r.run(context.Background())
	lat := time.Since(start)
	if err != nil {
		return lat, [32]byte{}, err
	}
	h, err := r.check(plans)
	if err == nil && h != r.want {
		err = errors.New("trace plan differs from the set-up result")
	}
	return lat, h, err
}

func (r *traceRig) warmDigest() string { return hex.EncodeToString(r.want[:])[:16] }

func (r *traceRig) verify(context.Context) error { return nil }

func (r *traceRig) close() error { return os.Remove(r.path) }

// --- runs ----------------------------------------------------------------

// setUp sets the workload up p.setupRuns() times on fresh servers and
// returns the last rig with the median set-up time. Each set-up starts
// after a collection, so earlier set-ups' garbage is not charged to it.
func setUp(ctx context.Context, w *workload, p params, rep *report) (rig, time.Duration, error) {
	var (
		r     rig
		times []time.Duration
		first string
	)
	for k := 0; k < p.setupRuns(); k++ {
		if r != nil {
			if err := r.close(); err != nil {
				rep.problem("set-up %d did not shut down cleanly: %v", k, err)
			}
		}
		runtime.GC()
		start := time.Now()
		var err error
		r, err = w.setup(ctx, p)
		times = append(times, time.Since(start))
		if err != nil {
			return nil, 0, fmt.Errorf("set-up %d: %w", k, err)
		}
		if d := r.warmDigest(); k == 0 {
			first = d
		} else if d != first {
			rep.problem("set-up %d computed results %s, set-up 0 computed %s", k, d, first)
		}
	}
	if err := r.verify(ctx); err != nil {
		rep.problem("%v", err)
	}
	rep.note("setup: %d fresh set-ups, %s each; warm-up results %s", len(times), fmtDurations(times), first)
	debug.FreeOSMemory()
	return r, median(sorted(times)), nil
}

// measuredRun is the untraced run: set up, then the closed loop, reporting
// every end-to-end metric.
func measuredRun(ctx context.Context, w *workload, p params) (*report, error) {
	rep := &report{workload: w.name, seed: p.seed}
	r, setup, err := setUp(ctx, w, p, rep)
	if err != nil {
		return nil, err
	}
	before, err := readCounters(r)
	if err != nil {
		r.close()
		return nil, err
	}
	lr := closedLoop(w.clients, p.seconds, 0, p.limit, r.op)
	after, err := readCounters(r)
	if cerr := r.close(); cerr != nil {
		rep.problem("shutdown: %v", cerr)
	}
	if err != nil {
		return nil, err
	}
	noteCounters(rep, before, after)
	peak, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	if lr.attempted == 0 || len(lr.lats) == 0 {
		return nil, errNoWork
	}
	rep.attempted, rep.failed = lr.attempted, lr.failed
	rep.digest = lr.digest()
	s := sorted(lr.lats)
	tl, pct, beyond := tail(s, w.tailPct)
	rep.note("requests: %d sent, %d succeeded, %d failed (failed_frac %g) by %d closed-loop client(s) in %.2f s",
		lr.attempted, len(s), lr.failed, float64(lr.failed)/float64(lr.attempted), w.clients, lr.wall.Seconds())
	rep.note("latency_tail_ms is p%g over n=%d samples (%d beyond it)", pct, len(s), beyond)
	rep.note("result digest of requests 0..%d: %s", digestN-1, rep.digest)
	for _, e := range lr.errs {
		rep.note("failure: %s", e)
	}
	rep.set("setup_s", setup.Seconds(), "s")
	rep.set("latency_p50_ms", ms(median(s)), "ms")
	rep.set("latency_tail_ms", ms(tl), "ms")
	rep.set("throughput_per_s", float64(len(s))/lr.wall.Seconds(), "1/s")
	rep.set("peak_rss_mb", peak, "MB")
	return rep, nil
}

// noteCounters prints what the program's own counters saw during the
// measured loop, so a slow or odd run can be told apart without a trace.
func noteCounters(rep *report, before, after counters) {
	b, a := before.prom, after.prom
	rep.note("server counters: cache hits %d misses %d shared %d; queue rejections %g; job retries %g; dist dispatches %g hedges %g (won %g) reroutes %g",
		after.cache.Hits-before.cache.Hits, after.cache.Misses-before.cache.Misses, after.cache.Shared-before.cache.Shared,
		delta(b, a, "capserved_queue_rejections_total"), delta(b, a, "capserved_job_retries_total"),
		delta(b, a, "capserved_dist_shards_dispatched_total"), delta(b, a, "capserved_dist_hedges_total"),
		delta(b, a, "capserved_dist_hedge_wins_total"), delta(b, a, "capserved_dist_reroutes_total"))
	rt0, rt1 := before.rt, after.rt
	rep.note("process: %.1f MB allocated, GC %.3f of busy CPU",
		float64(rt1.allocBytes-rt0.allocBytes)/(1<<20),
		ratio(rt1.gcCPU-rt0.gcCPU, (rt1.totalCPU-rt0.totalCPU)-(rt1.idleCPU-rt0.idleCPU)))
}

func fmtDurations(ds []time.Duration) string {
	var b bytes.Buffer
	for i, d := range ds {
		if i > 0 {
			b.WriteString("/")
		}
		fmt.Fprintf(&b, "%.3fs", d.Seconds())
	}
	return b.String()
}

// clip shortens a body for an error message.
func clip(b []byte) string {
	const max = 200
	if len(b) > max {
		return string(b[:max]) + "..."
	}
	return string(b)
}
