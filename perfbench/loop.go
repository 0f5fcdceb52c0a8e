package main

import (
	"bytes"
	"math/rand/v2"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// recorder is a reusable in-process http.ResponseWriter. It implements
// http.Flusher and notes when the first NDJSON point line of a stream
// was written, which is how experiments.first_point_ms is measured.
type recorder struct {
	header     http.Header
	code       int
	body       bytes.Buffer
	start      time.Time
	stream     bool          // an explore request: watch for point lines
	firstPoint time.Duration // 0 until a point line is written
}

func newRecorder() *recorder { return &recorder{header: make(http.Header)} }

func (w *recorder) reset(start time.Time, stream bool) {
	clear(w.header)
	w.code = 0
	w.body.Reset()
	w.start = start
	w.stream = stream
	w.firstPoint = 0
}

func (w *recorder) Header() http.Header { return w.header }

func (w *recorder) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

var (
	pointPrefix = []byte(`{"type":"point"`)
	pointLine   = []byte("\n" + `{"type":"point"`)
)

// Write appends to the body. On a stream, the first write that carries
// a point line — a streamed line, or a cached reply's whole body — sets
// firstPoint.
func (w *recorder) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	if w.stream && w.firstPoint == 0 && (bytes.HasPrefix(b, pointPrefix) || bytes.Contains(b, pointLine)) {
		w.firstPoint = time.Since(w.start)
	}
	return w.body.Write(b)
}

// Flush implements http.Flusher; the explore handler flushes every line.
func (w *recorder) Flush() {}

// bodyReader is a reusable request body.
type bodyReader struct{ bytes.Reader }

func (*bodyReader) Close() error { return nil }

// caller issues requests to a handler in-process, reusing one request,
// body reader and recorder across calls: the benchmark's own per-request
// allocations stay near zero, so allocation deltas measure the program.
type caller struct {
	h    http.Handler
	req  http.Request
	body bodyReader
	rec  *recorder
	hdr  http.Header
	urls map[string]*url.URL
	last time.Duration // wall time of the latest call
}

func newCaller(h http.Handler) *caller {
	c := &caller{h: h, rec: newRecorder(), hdr: http.Header{}, urls: make(map[string]*url.URL)}
	for _, p := range []string{"/v1/evaluate", "/v1/plan", "/v1/explore", "/statsz"} {
		c.urls[p] = &url.URL{Path: p}
	}
	return c
}

// do serves one request and returns its wall time. The response stays
// in c.rec until the next call.
func (c *caller) do(method, path string, body []byte) time.Duration {
	c.body.Reset(body)
	c.req = http.Request{
		Method:        method,
		URL:           c.urls[path],
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        c.hdr,
		Body:          &c.body,
		ContentLength: int64(len(body)),
		Host:          "perfbench",
	}
	if method == http.MethodGet {
		c.req.Body = http.NoBody
	}
	t0 := time.Now()
	c.rec.reset(t0, path == "/v1/explore")
	c.h.ServeHTTP(c.rec, &c.req)
	c.last = time.Since(t0)
	return c.last
}

// ---------------------------------------------------------------------------
// Latency store

// latencyStore bounds each client's latency store per window.
const latencyStore = 1 << 13

// reservoir is a fixed-size store of durations: below its size it keeps
// every value; above it, a uniform sample (Vitter's algorithm R), so
// memory is fixed whatever the request rate.
type reservoir struct {
	vals []int64 // nanoseconds
	seen int64
	rng  *rand.Rand
}

func newReservoir(size int, seed uint64) *reservoir {
	r := &reservoir{vals: make([]int64, size), rng: rand.New(rand.NewPCG(seed, 0x5eed))}
	// Touch every page now, so resident memory does not depend on how
	// many requests a run completes.
	for i := range r.vals {
		r.vals[i] = 1
	}
	r.vals = r.vals[:0]
	return r
}

// reset empties the store, keeping its memory.
func (r *reservoir) reset() {
	r.vals = r.vals[:0]
	r.seen = 0
}

func (r *reservoir) add(ns int64) {
	r.seen++
	if len(r.vals) < cap(r.vals) {
		r.vals = append(r.vals, ns)
		return
	}
	if j := r.rng.Int64N(r.seen); j < int64(len(r.vals)) {
		r.vals[j] = ns
	}
}

// ---------------------------------------------------------------------------
// Closed loop

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// window is one slice of the timed phase.
type window struct {
	wall time.Duration
	reqs int64
	cpu  time.Duration
}

// loopResult is what a closed-loop phase measured.
type loopResult struct {
	wall      time.Duration
	cpu       time.Duration
	completed int64
	failed    int64
	windows   []window
	lat       [][]*reservoir // per window, per client
	next      int            // first unused request index
	rss       []float64      // resident set samples, bytes
}

// memEvery is the memory sampling period of the timed phase.
const memEvery = 100 * time.Millisecond

// rssBytes reads the current resident set from /proc/self/statm.
func rssBytes() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(f[1], 64)
	return pages * float64(os.Getpagesize())
}

// client is the per-goroutine state of the closed loop.
type client struct {
	id   int
	call *caller
	buf  []byte
	// lat holds the latencies of each timed window (the last slot: the
	// requests finishing after the final window), window the current one.
	lat    []*reservoir
	window *atomic.Int32
	// done and failed count this client's requests in the current phase.
	done, failed atomic.Int64
}

// runLoop drives clients goroutines in a closed loop for dur: each
// takes the next request index from a shared counter starting at
// first and issues it (render, serve, record the latency, check the
// reply). The phase is cut into nwin windows of equal length whose
// completed-request and CPU deltas are kept separately, and the
// resident set is sampled every memEvery and at every window's end.
//
// pin, when set, runs first in each client goroutine and returns the
// function that runs last (the traced phase pins clients to threads).
func runLoop(clients []*client, first int, dur time.Duration, nwin int, pin func(c *client) func(), issue func(c *client, n int) bool) loopResult {
	var next atomic.Int64
	next.Store(int64(first))
	var stop atomic.Bool
	var cur atomic.Int32
	var wg sync.WaitGroup
	cpu0, t0 := cpuTime(), time.Now()
	for _, c := range clients {
		c.done.Store(0)
		c.failed.Store(0)
		c.window = &cur
		for _, r := range c.lat {
			r.reset()
		}
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			if pin != nil {
				defer pin(c)()
			}
			for !stop.Load() {
				n := int(next.Add(1) - 1)
				if n >= maxIndex {
					return
				}
				if !issue(c, n) {
					c.failed.Add(1)
				}
				c.done.Add(1)
			}
		}(c)
	}
	total := func() int64 {
		var s int64
		for _, c := range clients {
			s += c.done.Load()
		}
		return s
	}
	res := loopResult{}
	prevT, prevN, prevCPU := t0, int64(0), cpu0
	for w := 1; w <= nwin; w++ {
		end := t0.Add(dur * time.Duration(w) / time.Duration(nwin))
		for time.Until(end) > memEvery {
			time.Sleep(memEvery)
			res.rss = append(res.rss, rssBytes())
		}
		time.Sleep(time.Until(end))
		cur.Store(int32(w))
		now, n, cpu := time.Now(), total(), cpuTime()
		res.rss = append(res.rss, rssBytes())
		res.windows = append(res.windows, window{wall: now.Sub(prevT), reqs: n - prevN, cpu: cpu - prevCPU})
		prevT, prevN, prevCPU = now, n, cpu
	}
	stop.Store(true)
	wg.Wait()
	res.wall = time.Since(t0)
	res.cpu = cpuTime() - cpu0
	res.lat = make([][]*reservoir, len(clients[0].lat))
	for _, c := range clients {
		res.completed += c.done.Load()
		res.failed += c.failed.Load()
		for w, r := range c.lat {
			res.lat[w] = append(res.lat[w], r)
		}
	}
	res.next = int(next.Load())
	return res
}

// runRange drives clients goroutines in a closed loop over the request
// indices [first, last): the untimed warm phase and the traced probes.
func runRange(clients []*client, first, last int, issue func(c *client, n int) bool) (failed int64) {
	var next atomic.Int64
	next.Store(int64(first))
	var bad atomic.Int64
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for n := int(next.Add(1) - 1); n < last; n = int(next.Add(1) - 1) {
				if !issue(c, n) {
					bad.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	return bad.Load()
}
