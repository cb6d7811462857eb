package main

// A benchmark reads the host clock by design.
//
//wfsimlint:wallclock

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"wfsim/internal/apps/kmeans"
	"wfsim/internal/apps/matmul"
	"wfsim/internal/cluster"
	"wfsim/internal/costmodel"
	"wfsim/internal/dag"
	"wfsim/internal/dataset"
	"wfsim/internal/experiments"
	"wfsim/internal/metrics"
	"wfsim/internal/resultcache"
	"wfsim/internal/runner"
	"wfsim/internal/runtime"
	"wfsim/internal/sched"
	"wfsim/internal/server"
	"wfsim/internal/storage"
)

const (
	// whatifRate is the open-loop arrival rate. At 15% cold it keeps one
	// core about an eighth busy simulating, and a 20 s run yields about
	// 1,600 samples, so 16 lie beyond the p99.
	whatifRate     = 80.0
	whatifColdFrac = 0.15
	smokeRequests  = 30
	// clientConns bounds the generator's HTTP connections (one per
	// sending goroutine) to the machine's two cores.
	clientConns = 2
	// spinWindow is how long before a due time the generator stops
	// sleeping and spins. Lateness counts as server latency, and a
	// nanosleep overshoots by up to about 200 µs (time.Sleep by up to a
	// millisecond, as the runtime's timers round to milliseconds).
	spinWindow = 300 * time.Microsecond
)

// whatif is the serving workload: one server.New(runner.New(2), store)
// per phase behind a loopback listener, driven by open-loop arrivals.
// Its operation is one POST /whatif, timed from its due time. Hot
// requests (85%) repeat a request whose cold answer has completed, so the
// in-process memo serves them; cold requests (15%) perturb one of four
// base cells into a cell whose key no earlier request used.
type whatif struct {
	cfg   config
	phase uint64 // phases run so far; each draws from its own stream
	arena runtime.Arena
	agg   *metrics.Aggregates
}

func newWhatIf(cfg config) *whatif { return &whatif{cfg: cfg, agg: metrics.NewAggregates()} }

func (w *whatif) setup() error     { return nil }
func (w *whatif) probeDir() string { return "" }
func (w *whatif) close()           {}

func (w *whatif) probe(dir string) error {
	_, err := startServer(dir, nil)
	return err
}

// baseCells are the cells cold requests perturb.
func baseCells() []experiments.CellConfig {
	return []experiments.CellConfig{
		{Algorithm: experiments.KMeans, Dataset: dataset.KMeansSmall, Grid: 256, Clusters: 10, Device: costmodel.GPU},
		{Algorithm: experiments.KMeans, Dataset: dataset.KMeansSmall, Grid: 64, Clusters: 10, Device: costmodel.CPU},
		{Algorithm: experiments.Matmul, Dataset: dataset.MatmulSmall, Grid: 8, Device: costmodel.GPU},
		{Algorithm: experiments.Matmul, Dataset: dataset.MatmulSmall, Grid: 4, Device: costmodel.CPU},
	}
}

type liveServer struct {
	store *resultcache.Store
	http  *http.Server
	url   string
	done  chan error
}

// startServer opens an empty store in dir, builds the server over a fresh
// two-worker engine and starts serving it on a loopback port. With a
// tracer, the cache and the handler are wrapped.
func startServer(dir string, tr *tracer) (*liveServer, error) {
	id := tr.begin("resultcache.open", -1, -1)
	store, err := resultcache.Open(dir, 0)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	eng := runner.New(2)
	srv := server.New(eng, store)
	var h http.Handler = srv
	if tr != nil {
		eng.SetCache(newTracedCache(store, tr))
		h = tracedHandler(srv, tr)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &liveServer{store: store, http: &http.Server{Handler: h}, url: "http://" + ln.Addr().String() + "/whatif", done: make(chan error, 1)}
	go func() { s.done <- s.http.Serve(ln) }()
	return s, nil
}

// stop shuts the server down and waits for it to stop serving.
func (s *liveServer) stop() error {
	err := s.http.Shutdown(context.Background())
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// answer is a completed request hot requests may repeat.
type answer struct {
	body     []byte
	key      string
	makespan float64
}

// coldReq is a request for a cell no earlier request used.
type coldReq struct {
	body []byte
	key  string
	cfg  experiments.CellConfig // the perturbed cell
}

type job struct {
	i    int
	due  time.Time
	late time.Duration
	body []byte
	cold *coldReq
	hot  *answer
}

type outcome struct {
	cold     bool
	ok       bool
	latMS    float64 // from due time to the last response byte
	clientUS float64 // from send to the last response byte
	lateMS   float64 // how late the generator released the request
	source   string
	cell     experiments.Cell
}

func (w *whatif) run(seconds float64, tr *tracer, chk *checks) (phaseResult, error) {
	rng := rand.New(rand.NewPCG(w.cfg.seed, w.phase))
	w.phase++
	n := requestCount(seconds)
	if w.cfg.smoke {
		n = smokeRequests
	}
	nCold := coldCount(n)
	bases := baseCells()
	colds, err := drawCold(rng, bases, nCold)
	if err != nil {
		return phaseResult{}, err
	}
	arrivals, coldAt := schedule(rng, n, nCold, seconds)

	dir, err := os.MkdirTemp(w.cfg.work, "whatif-")
	if err != nil {
		return phaseResult{}, err
	}
	defer os.RemoveAll(dir)
	srv, err := startServer(dir, tr)
	if err != nil {
		return phaseResult{}, err
	}
	// Once the load has drained, a failed shutdown of the loopback server
	// changes no result.
	defer srv.stop()

	// The base cells are the first completed answers; answering them is
	// set-up, not load.
	var mu sync.Mutex
	var completed []*answer
	warm := newClient()
	for _, b := range bases {
		body, err := json.Marshal(server.WhatIfRequest{Cell: b})
		if err != nil {
			return phaseResult{}, err
		}
		resp, err := post(warm, srv.url, body, -1)
		if err != nil {
			return phaseResult{}, fmt.Errorf("warming base cell: %w", err)
		}
		completed = append(completed, &answer{body: body, key: resp.Key, makespan: resp.Cell.Makespan})
	}
	warm.CloseIdleConnections()

	results := make([]outcome, n)
	jobs := make(chan job, n) // one slot per request: the generator never blocks
	var wg sync.WaitGroup
	for c := 0; c < clientConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := newClient()
			defer client.CloseIdleConnections()
			for j := range jobs {
				results[j.i] = w.send(client, srv.url, j, chk, &mu, &completed)
			}
		}()
	}
	before := memNow()
	start := time.Now()
	next := 0
	for i, at := range arrivals {
		due := start.Add(at)
		waitUntil(due)
		j := job{i: i, due: due, late: time.Since(due)}
		if next < len(coldAt) && coldAt[next] == i {
			j.cold = &colds[next]
			j.body = j.cold.body
			next++
		} else {
			mu.Lock()
			j.hot = completed[rng.IntN(len(completed))]
			mu.Unlock()
			j.body = j.hot.body
		}
		jobs <- j
	}
	close(jobs)
	wg.Wait()
	ph := phaseResult{mem: memSince(before), tailPct: 99}

	var hot, cold, late []float64
	for _, o := range results {
		ph.opsMS = append(ph.opsMS, o.latMS)
		late = append(late, o.lateMS)
		if o.cold {
			cold = append(cold, o.latMS)
		} else {
			hot = append(hot, o.latMS)
		}
	}
	ph.classes = map[string]float64{
		"whatif.hot_p50_ms":  median(hot),
		"whatif.hot_p99_ms":  percentile(hot, 99),
		"whatif.cold_p50_ms": median(cold),
		"whatif.cold_p95_ms": percentile(cold, 95),
		"gen.late_ms_p50":    median(late),
		"gen.late_ms_p99":    percentile(late, 99),
	}
	if len(hot) > 0 && median(late) > 0.1*median(hot) {
		chk.fail(fmt.Errorf("generator ran late: median %.3f ms against hot p50 %.3f ms", median(late), median(hot)))
	}
	if tr != nil {
		tr.add("resultcache.entries", float64(srv.store.Stats().Entries))
		ph.layers = serverLayers(tr, results)
		for i, o := range results {
			if o.cold && o.ok {
				c := colds[sort.SearchInts(coldAt, i)]
				if err := w.redrive(tr, c.cfg, o.cell, int64(i)); err != nil {
					chk.fail(err)
				}
			}
		}
	}
	return ph, nil
}

// The nodes_delta range cold requests draw from, and the storages.
const minDelta, maxDelta = -6, 24

var coldStorages = []string{"shared", "local"}

// coldCombos is how many (base, policy, storage) combinations cold
// requests spread over in equal shares.
func coldCombos() int { return len(baseCells()) * len(sched.Policies()) * len(coldStorages) }

// checkWhatIfSeconds rejects a run length that needs more cold cells than
// there are distinct perturbations. Each combination has one delta per
// value in the range, less at most one whose cell is the base cell itself.
func checkWhatIfSeconds(seconds float64) error {
	limit := coldCombos() * (maxDelta - minDelta)
	if n := coldCount(requestCount(seconds)); n > limit {
		most := float64(limit) / (whatifRate * whatifColdFrac)
		return fmt.Errorf("-seconds %g needs %d distinct cold what-if cells, more than the %d perturbations allow; use at most %.0f", seconds, n, limit, math.Floor(most))
	}
	return nil
}

func requestCount(seconds float64) int { return max(1, int(math.Round(whatifRate*seconds))) }

func coldCount(n int) int { return int(math.Round(whatifColdFrac * float64(n))) }

// drawCold draws k cold requests: a base cell perturbed by nodes_delta in
// -6..+24, one of the eight policies and shared or local storage, keeping
// only cells whose key no base cell or earlier draw has. Bases, policies
// and storages are used in equal shares, so that the cost of the cold mix
// varies little from seed to seed; the seed draws the deltas, without
// replacement, and the order.
func drawCold(rng *rand.Rand, bases []experiments.CellConfig, k int) ([]coldReq, error) {
	issued := map[string]bool{}
	for _, b := range bases {
		issued[experiments.CellKey(b)] = true
	}
	policies := sched.Policies()
	combos := coldCombos()
	// Per combination, the deltas not drawn yet, in random order.
	deltas := make([][]int, combos)
	out := make([]coldReq, 0, k)
	for i := 0; i < k; i++ {
		c := i % combos
		b := bases[c%len(bases)]
		p := server.Perturbation{
			Policy:  policies[c/len(bases)%len(policies)].String(),
			Storage: coldStorages[c/(len(bases)*len(policies))],
		}
		if deltas[c] == nil {
			deltas[c] = rng.Perm(maxDelta - minDelta + 1)
		}
		var cfg experiments.CellConfig
		var key string
		for key == "" || issued[key] {
			if len(deltas[c]) == 0 {
				return nil, fmt.Errorf("cannot draw %d distinct cold cells", k)
			}
			p.NodesDelta = deltas[c][0] + minDelta
			deltas[c] = deltas[c][1:]
			var err error
			if cfg, err = p.Apply(b); err != nil {
				return nil, err
			}
			key = experiments.CellKey(cfg)
		}
		issued[key] = true
		body, err := json.Marshal(server.WhatIfRequest{Cell: b, Perturb: p})
		if err != nil {
			return nil, err
		}
		out = append(out, coldReq{body: body, key: key, cfg: cfg})
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, nil
}

// schedule draws n arrival offsets uniformly over the window, sorted (a
// Poisson process conditioned on its count), and picks which nCold of
// them are cold, in increasing order.
func schedule(rng *rand.Rand, n, nCold int, seconds float64) (at []time.Duration, coldAt []int) {
	at = make([]time.Duration, n)
	for i := range at {
		at[i] = time.Duration(rng.Float64() * seconds * float64(time.Second))
	}
	sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })
	coldAt = rng.Perm(n)[:nCold]
	sort.Ints(coldAt)
	return at, coldAt
}

// waitUntil sleeps until shortly before t, then spins to it.
func waitUntil(t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
		}
	}
	for time.Now().Before(t) {
	}
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

func post(client *http.Client, url string, body []byte, req int) (server.WhatIfResponse, error) {
	var out server.WhatIfResponse
	hreq, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return out, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(reqHeader, strconv.Itoa(req))
	resp, err := client.Do(hreq)
	if err != nil {
		return out, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return out, err
	}
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	if err := json.Unmarshal(data, &out); err != nil {
		return out, err
	}
	return out, nil
}

// send issues one request and checks its answer: a cold request must be
// simulated and then becomes repeatable; a hot one must come from the
// memo with the makespan its cold answer had.
func (w *whatif) send(client *http.Client, url string, j job, chk *checks, mu *sync.Mutex, completed *[]*answer) outcome {
	o := outcome{cold: j.cold != nil, lateMS: float64(j.late) / 1e6}
	t0 := time.Now()
	resp, err := post(client, url, j.body, j.i)
	o.latMS = float64(time.Since(j.due)) / 1e6
	o.clientUS = float64(time.Since(t0)) / 1e3
	o.source, o.cell = resp.Source, resp.Cell
	switch {
	case err != nil:
	case o.cold && resp.Source != "simulation":
		err = fmt.Errorf("cold request %d served from %q", j.i, resp.Source)
	case o.cold && resp.Key != j.cold.key:
		err = fmt.Errorf("cold request %d answered key %s, want %s", j.i, resp.Key, j.cold.key)
	case !o.cold && resp.Source != "memo":
		err = fmt.Errorf("hot request %d served from %q", j.i, resp.Source)
	case !o.cold && (resp.Key != j.hot.key || resp.Cell.Makespan != j.hot.makespan):
		err = fmt.Errorf("hot request %d: makespan %v, cold answer %v", j.i, resp.Cell.Makespan, j.hot.makespan)
	}
	chk.op(err)
	o.ok = err == nil
	if o.ok && o.cold {
		mu.Lock()
		*completed = append(*completed, &answer{body: j.body, key: resp.Key, makespan: resp.Cell.Makespan})
		mu.Unlock()
	}
	return o
}

// serverLayers joins the traced handler spans with the client's record of
// each request: handler time by answer source, and transport time (client
// time minus handler time).
func serverLayers(tr *tracer, results []outcome) map[string]float64 {
	by := map[string][]float64{}
	var transport []float64
	for _, s := range tr.named("server.handler") {
		if s.Req < 0 || int(s.Req) >= len(results) {
			continue
		}
		o := results[s.Req]
		us := float64(s.End-s.Start) / 1e3
		by[o.source] = append(by[o.source], us)
		transport = append(transport, o.clientUS-us)
	}
	return map[string]float64{
		"server.handler_us_p50.memo":       median(by["memo"]),
		"server.handler_us_p50.simulation": median(by["simulation"]),
		"server.handler_us_p99.memo":       percentile(by["memo"], 99),
		"server.handler_us_p99.simulation": percentile(by["simulation"], 99),
		"server.transport_us_p50":          median(transport),
	}
}

// redrive repeats a cold cell's work one layer at a time, since RunCell
// hides the split: DAG build, rank tables, simulation, aggregate queries,
// key, then codec round trip. The simulated makespan must equal the one
// the server answered.
func (w *whatif) redrive(tr *tracer, cfg experiments.CellConfig, served experiments.Cell, req int64) error {
	cell := tr.begin("whatif.redrive", -1, req)
	defer tr.end(cell)
	m0 := memNow()
	id := tr.begin("dag.build", cell, req)
	wf, err := buildCell(cfg)
	tr.end(id)
	if err != nil {
		return err
	}
	d := memSince(m0)
	tr.add("dag.build_alloc_bytes", float64(d.alloc))
	tr.add("dag.build_mallocs", float64(d.mallocs))
	tr.add("dag.tasks", float64(wf.Graph.Len()))
	switch cfg.Policy {
	case sched.HEFT, sched.BLevel, sched.MinMin:
		id = tr.begin("sched.rank", cell, req)
		rankTable(wf, cfg)
		tr.end(id)
	}
	w.agg.Reset()
	ts := &timedSink{agg: w.agg}
	m0 = memNow()
	id = tr.begin("runtime.runsim", cell, req)
	res, err := runtime.RunSim(wf, runtime.SimConfig{
		Cluster: cfg.Cluster, Params: cfg.Params, Storage: cfg.Storage, Policy: cfg.Policy,
		Device: cfg.Device, Seed: cfg.Seed, Faults: cfg.Faults, Sink: ts, Arena: &w.arena,
	})
	tr.end(id)
	if runtime.ErrOOM(err) && served.OOM {
		return nil
	}
	if err != nil {
		return fmt.Errorf("re-driving cell %d: %w", req, err)
	}
	d = memSince(m0)
	tr.add("runtime.runsim_alloc_bytes", float64(d.alloc))
	tr.add("runtime.runsim_mallocs", float64(d.mallocs))
	tr.add("runtime.sched_decisions", float64(res.SchedDecisions))
	tr.add("metrics.records", float64(ts.n))
	tr.add("metrics.observe_s", ts.d.Seconds())
	id = tr.begin("metrics.query", cell, req)
	queryAggregates(w.agg, cfg.Algorithm.HeadlineTask())
	tr.end(id)
	id = tr.begin("resultcache.keyof", cell, req)
	experiments.CellKey(cfg)
	tr.end(id)
	codec := runner.JSONCodec[experiments.Cell]()
	id = tr.begin("codec.encode", cell, req)
	payload, err := codec.Encode(served)
	tr.end(id)
	if err != nil {
		return err
	}
	tr.add("codec.payload_bytes", float64(len(payload)))
	id = tr.begin("codec.decode", cell, req)
	back, err := codec.Decode(payload)
	tr.end(id)
	switch {
	case err != nil:
		return err
	case back.(experiments.Cell) != served:
		return fmt.Errorf("cell %d changed in a codec round trip", req)
	case res.Makespan != served.Makespan:
		return fmt.Errorf("cell %d: re-driven makespan %v, served %v", req, res.Makespan, served.Makespan)
	}
	return nil
}

// buildCell builds a cell's workflow as experiments.RunCell does.
func buildCell(cfg experiments.CellConfig) (*runtime.Workflow, error) {
	switch cfg.Algorithm {
	case experiments.Matmul:
		return matmul.Build(matmul.Config{Dataset: cfg.Dataset, Grid: cfg.Grid})
	case experiments.KMeans:
		return kmeans.Build(kmeans.Config{Dataset: cfg.Dataset, Grid: cfg.Grid, Clusters: cfg.Clusters, Iterations: cfg.Iterations})
	}
	return nil, fmt.Errorf("no builder for %v", cfg.Algorithm)
}

// rankTable computes the lookahead table a rank policy dispatches by, from
// the cost model's public estimates: b-levels, HEFT upward ranks with a
// NIC transfer estimate on local disks, or min-min's plain costs.
func rankTable(wf *runtime.Workflow, cfg experiments.CellConfig) []float64 {
	p := costmodel.DefaultParams()
	if cfg.Params != nil {
		p = *cfg.Params
	}
	g := wf.Graph
	costs := make([]float64, g.Len())
	for _, t := range g.Tasks() {
		prof := wf.Spec(t).Profile
		dev := costmodel.CPU
		if cfg.Device == costmodel.GPU && prof.ParallelOps > 0 {
			dev = costmodel.GPU
		}
		costs[t.ID] = p.DeserTime(prof) + p.UserCodeTimeUncontended(prof, dev) + p.SerTime(prof)
	}
	weight := func(t *dag.Task) float64 { return costs[t.ID] }
	switch cfg.Policy {
	case sched.BLevel:
		return sched.BLevels(g, weight)
	case sched.HEFT:
		var comm func(from, to *dag.Task) float64
		if cfg.Storage == storage.Local && p.NICBandwidth > 0 {
			nodes := cfg.Cluster.Nodes
			if nodes == 0 {
				nodes = cluster.Minotauro().Nodes
			}
			frac := float64(nodes-1) / float64(nodes)
			comm = func(from, _ *dag.Task) float64 {
				var b float64
				ids := from.DataIDs()
				for i, prm := range from.Params {
					if prm.Writes() {
						b += wf.SizeByID(ids[i])
					}
				}
				return b / p.NICBandwidth * frac
			}
		}
		return sched.UpwardRanks(g, weight, comm)
	}
	return costs
}
