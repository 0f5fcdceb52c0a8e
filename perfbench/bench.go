package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"repro/internal/partition"
	"repro/internal/runner"
	"repro/internal/service"
)

// workload is one traffic mix.
type workload struct {
	name string
	// clients is the closed-loop client count; 0 means one per CPU.
	// Only repeat_zipf runs one per CPU, to load the cache tiers from
	// several goroutines at once. The compute-bound workloads run one
	// client: on the shared 2-CPU host, interleaved runs of zoo_cold
	// spread 36% across runs with two clients and 10% with one.
	clients int
	// fill requests (indices [0, fill)) finish before the rest of the
	// warm phase starts; warm is the warm phase's length. Timed requests
	// take indices from warm on.
	fill, warm int
	// sampleEvery: one in sampleEvery timed replies (a seeded choice) is
	// re-derived through the library facade after the run.
	sampleEvery int
	// newGen returns the workload's request generator for a seed.
	newGen func(seed int64) func(n int) request
}

var workloads = []*workload{
	{name: "zoo_cold", clients: 1, warm: 1500, sampleEvery: 64,
		newGen: func(seed int64) func(int) request {
			return func(n int) request { return genZooCold(seed, n) }
		}},
	{name: "repeat_zipf", fill: zipfDistinct, warm: 30000,
		newGen: func(seed int64) func(int) request {
			return func(n int) request { return genZipf(seed, n) }
		}},
	{name: "dag_cold", clients: 1, warm: 600, sampleEvery: 64,
		newGen: func(seed int64) func(int) request {
			return func(n int) request { return genDagCold(seed, n) }
		}},
	{name: "explore_sweep", clients: 1, warm: 200, sampleEvery: 32,
		newGen: func(seed int64) func(int) request {
			return func(n int) request { return genExplore(seed, n) }
		}},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// Run shape.
const (
	setups    = 5   // service.New + warm phase repeats; setup_s is their median
	windows   = 10  // timed-phase slices; rps and CPU/request are window medians
	sampleCap = 128 // re-derived replies kept per client
	poolWidth = 0   // runner pool width: 0 = GOMAXPROCS, as hypard's -workers 0
)

// sample is a reply kept for re-derivation.
type sample struct {
	n    int
	body []byte
}

// bench is one run of one workload.
type bench struct {
	w       *workload
	seed    int64
	gen     func(n int) request
	srv     *service.Server
	clients []*client
	// first holds repeat_zipf's first reply per distinct request; every
	// later reply for it must equal these bytes.
	first   [][]byte
	samples [][]sample // per client
	tr      *tracer    // nil when untraced
}

func newBench(w *workload, seed int64, tr *tracer) *bench {
	b := &bench{w: w, seed: seed, gen: w.newGen(seed), tr: tr}
	n := w.clients
	if n == 0 {
		n = runtime.NumCPU()
	}
	for i := 0; i < n; i++ {
		c := &client{id: i}
		for w := 0; w <= windows; w++ {
			c.lat = append(c.lat, newReservoir(latencyStore, uint64(seed)*997+uint64(i*(windows+1)+w)))
		}
		b.clients = append(b.clients, c)
	}
	b.samples = make([][]sample, n)
	return b
}

// options are hypard's defaults, plus the trace hook when tracing.
func (b *bench) options() service.Options {
	opts := service.Options{Config: baseConfig, Pool: runner.New(poolWidth)}
	if b.tr != nil {
		opts.OnCompute = b.tr.onCompute
	}
	return opts
}

// setup builds a fresh server and runs the warm phase; it returns the
// elapsed time and the warm phase's failed requests.
func (b *bench) setup() (time.Duration, int64, error) {
	runtime.GC()
	t0 := time.Now()
	srv, err := service.New(b.options())
	if err != nil {
		return 0, 0, fmt.Errorf("service.New: %w", err)
	}
	b.srv = srv
	for _, c := range b.clients {
		c.call = newCaller(srv.Handler())
	}
	b.first = make([][]byte, zipfDistinct)
	for i := range b.samples {
		b.samples[i] = b.samples[i][:0]
	}
	issue := func(c *client, n int) bool { return b.issue(c, n, false) }
	failed := runRange(b.clients, 0, b.w.fill, issue)
	failed += runRange(b.clients, b.w.fill, b.w.warm, issue)
	return time.Since(t0), failed, nil
}

// issue renders, serves and checks request n. Timed requests record
// their latency and may be sampled for re-derivation.
func (b *bench) issue(c *client, n int, timed bool) bool {
	req := b.gen(n)
	c.buf = c.buf[:0]
	if req.respell {
		c.buf = req.appendRespelled(c.buf)
	} else {
		c.buf = req.appendBody(c.buf)
	}
	traced := timed && b.tr != nil && b.tr.active.Load()
	var d time.Duration
	if traced {
		d = b.tr.serve(c, &req)
	} else {
		d = c.call.do(http.MethodPost, req.path(), c.buf)
	}
	if timed {
		c.lat[c.window.Load()].add(int64(d))
	}
	ok := b.check(c, &req, timed)
	if traced {
		b.tr.finish(c, &req, ok)
	}
	return ok
}

var (
	evalPrefix  = []byte(`{"model":`)
	headPrefix  = []byte(`{"type":"header"`)
	sumPrefix   = []byte(`{"type":"summary"`)
	hyparSuffix = []byte(`"isHyPar":true}}`)
)

// check validates one reply: status 200, the endpoint's shape, and for
// repeat_zipf byte-identity with the first reply to the same canonical
// request.
func (b *bench) check(c *client, req *request, timed bool) bool {
	rec := c.call.rec
	if rec.code != http.StatusOK {
		return false
	}
	body := rec.body.Bytes()
	switch {
	case req.canon >= 0 && req.n < zipfDistinct:
		b.first[req.canon] = bytes.Clone(body)
		return bytes.HasPrefix(body, evalPrefix)
	case req.canon >= 0:
		return bytes.Equal(body, b.first[req.canon])
	case req.endpoint == "explore":
		if !streamShapeOK(body, len(req.free)) {
			return false
		}
	default:
		if !bytes.HasPrefix(body, evalPrefix) {
			return false
		}
	}
	if timed && b.w.sampleEvery > 0 && len(b.samples[c.id]) < sampleCap {
		d := newDraws(b.seed, req.n, saltSample)
		if d.intn(b.w.sampleEvery) == 0 {
			b.samples[c.id] = append(b.samples[c.id], sample{n: req.n, body: bytes.Clone(body)})
		}
	}
	return true
}

// streamShapeOK checks an explore NDJSON stream: a header, 2^free point
// lines and a summary whose HyPar point is flagged.
func streamShapeOK(body []byte, free int) bool {
	want := 1<<free + 2
	lines := 0
	for len(body) > 0 {
		i := bytes.IndexByte(body, '\n')
		if i < 0 {
			return false
		}
		line := body[:i]
		body = body[i+1:]
		switch {
		case lines == 0:
			if !bytes.HasPrefix(line, headPrefix) {
				return false
			}
		case len(body) == 0:
			if !bytes.HasPrefix(line, sumPrefix) || !bytes.HasSuffix(line, hyparSuffix) {
				return false
			}
		default:
			if !bytes.HasPrefix(line, pointPrefix) {
				return false
			}
		}
		lines++
	}
	return lines == want
}

// verifySamples re-derives every kept reply (and, on repeat_zipf, every
// first reply) through the library facade and returns the mismatches.
func (b *bench) verifySamples() (checked, failed int, errs []string) {
	note := func(n int, err error) {
		checked++
		if err != nil {
			failed++
			if len(errs) < 5 {
				errs = append(errs, fmt.Sprintf("request %d: %v", n, err))
			}
		}
	}
	for _, ss := range b.samples {
		for _, s := range ss {
			req := b.gen(s.n)
			note(s.n, verify(&req, s.body))
		}
	}
	if b.w.fill > 0 {
		for id, body := range b.first {
			req := b.gen(id)
			note(id, verify(&req, body))
		}
	}
	return checked, failed, errs
}

// ---------------------------------------------------------------------------
// Counters read from public surfaces

// endpointCounts is the subset of /statsz's per-endpoint block the
// benchmark reads.
type endpointCounts struct {
	Requests  int64 `json:"requests"`
	Errors    int64 `json:"errors"`
	FastHits  int64 `json:"fastHits"`
	CacheHits int64 `json:"cacheHits"`
	Computes  int64 `json:"computes"`
}

// counters is one snapshot of every counter the per-layer metrics use.
type counters struct {
	at      time.Time
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	dpCells int64
	stats   endpointCounts // summed over the POST endpoints
}

// snapshot reads /statsz through the server's own handler, the runtime's
// allocation counters, partition.DPCells and the process CPU time.
func (b *bench) snapshot() (counters, error) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	k := counters{at: time.Now(), cpu: cpuTime(), mallocs: ms.Mallocs, bytes: ms.TotalAlloc, dpCells: partition.DPCells()}
	call := newCaller(b.srv.Handler())
	call.do(http.MethodGet, "/statsz", nil)
	if call.rec.code != http.StatusOK {
		return k, fmt.Errorf("/statsz answered %d", call.rec.code)
	}
	var sz struct {
		Endpoints map[string]endpointCounts `json:"endpoints"`
	}
	if err := json.Unmarshal(call.rec.body.Bytes(), &sz); err != nil {
		return k, fmt.Errorf("/statsz: %w", err)
	}
	for _, ep := range []string{"plan", "evaluate", "explore"} {
		e := sz.Endpoints[ep]
		k.stats.Requests += e.Requests
		k.stats.Errors += e.Errors
		k.stats.FastHits += e.FastHits
		k.stats.CacheHits += e.CacheHits
		k.stats.Computes += e.Computes
	}
	return k, nil
}
