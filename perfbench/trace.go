package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	hypar "repro"
	"repro/internal/nn"
)

// Tracing: spans are recorded by the benchmark around its own calls into
// each layer — a root span per ServeHTTP call with the service's
// OnCompute hook as a mark inside it, and a replay of the same generated
// inputs through each layer's public entry point. Spans stay in memory
// and are written out when the run ends.

// spanCap bounds the spans kept per log for the spans file; per-name
// statistics keep counting past it.
const spanCap = 1 << 16

// span is one recorded interval. Spans of one request share Req.
type span struct {
	Req    int    `json:"req"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
	Failed bool   `json:"failed,omitempty"`
}

// spanStats aggregates one span name: count, summed self time, failures
// and a fixed-size sample of durations for the median.
type spanStats struct {
	count, fails, selfNs int64
	durs                 *reservoir
}

// spanLog is one goroutine's span store.
type spanLog struct {
	base    int64 // ID space of this log
	nextID  int64
	spans   []span
	dropped int64
	stats   map[string]*spanStats
}

// spanSample bounds the durations kept per span name and goroutine.
const spanSample = 1 << 12

func newSpanLog(slot int) *spanLog {
	return &spanLog{base: int64(slot+1) << 40, spans: make([]span, 0, spanCap), stats: make(map[string]*spanStats)}
}

// add records a span whose children cover childNs of it and returns its
// ID.
func (l *spanLog) add(req int, parent int64, name string, start, end, childNs int64, failed bool) int64 {
	l.nextID++
	id := l.base + l.nextID
	if len(l.spans) < cap(l.spans) {
		l.spans = append(l.spans, span{Req: req, ID: id, Parent: parent, Name: name, Start: start, End: end, Failed: failed})
	} else {
		l.dropped++
	}
	st := l.stats[name]
	if st == nil {
		st = &spanStats{durs: newReservoir(spanSample, uint64(len(l.stats))+uint64(l.base))}
		l.stats[name] = st
	}
	st.count++
	st.selfNs += end - start - childNs
	st.durs.add(end - start)
	if failed {
		st.fails++
	}
	return id
}

// tracer attributes OnCompute marks to the goroutine that serves the
// request. While several clients run, each is pinned to an OS thread
// and registers the thread ID in its slot, and the hook looks its own
// thread up; while one goroutine serves (one client, or the probes), the
// hook marks slot 0 directly. The last slot belongs to the replay.
type tracer struct {
	origin time.Time
	active atomic.Bool
	pinned atomic.Bool
	tids   []atomic.Int64
	marks  []atomic.Int64 // ns since origin; 0 = no compute yet
	logs   []*spanLog

	// Explore streams: time to the first point line, points and time.
	firstPoint []*reservoir
	points     []int64
	streamNs   []int64
}

func newTracer(clients int) *tracer {
	slots := clients + 1
	t := &tracer{
		origin: time.Now(), tids: make([]atomic.Int64, slots), marks: make([]atomic.Int64, slots),
		logs: make([]*spanLog, slots), firstPoint: make([]*reservoir, slots),
		points: make([]int64, slots), streamNs: make([]int64, slots),
	}
	for i := range t.logs {
		t.logs[i] = newSpanLog(i)
		t.firstPoint[i] = newReservoir(spanSample, uint64(i))
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// onCompute is the service's Options.OnCompute hook: it marks the
// moment the calling request passed the caches and started computing.
func (t *tracer) onCompute(_, _ string) {
	if !t.active.Load() {
		return
	}
	if !t.pinned.Load() {
		t.marks[0].Store(t.now())
		return
	}
	tid := int64(syscall.Gettid())
	for i := range t.tids {
		if t.tids[i].Load() == tid {
			t.marks[i].Store(t.now())
			return
		}
	}
}

// pin locks the calling goroutine to its thread and registers the
// thread in the client's slot; the returned function undoes both.
func (t *tracer) pin(c *client) func() {
	runtime.LockOSThread()
	t.tids[c.id].Store(int64(syscall.Gettid()))
	return func() {
		t.tids[c.id].Store(0)
		runtime.UnlockOSThread()
	}
}

// serve issues one traced request.
func (t *tracer) serve(c *client, req *request) time.Duration {
	t.marks[c.id].Store(0)
	return c.call.do(http.MethodPost, req.path(), c.buf)
}

// finish records the spans of the request just served: the root
// service.request span, and inside it either service.hit (no compute)
// or service.precompute and service.compute split at the mark.
func (t *tracer) finish(c *client, req *request, ok bool) {
	rec := c.call.rec
	start := int64(rec.start.Sub(t.origin))
	end := start + int64(c.call.last)
	log := t.logs[c.id]
	root := log.add(req.n, 0, "service.request", start, end, end-start, !ok)
	if mark := t.marks[c.id].Load(); mark > 0 {
		log.add(req.n, root, "service.precompute", start, mark, 0, false)
		log.add(req.n, root, "service.compute", mark, end, 0, !ok)
	} else {
		log.add(req.n, root, "service.hit", start, end, 0, !ok)
	}
	if rec.firstPoint > 0 && t.marks[c.id].Load() > 0 {
		fp := start + int64(rec.firstPoint)
		log.add(req.n, root, "experiments.first_point", fp, fp, 0, false)
		t.firstPoint[c.id].add(int64(rec.firstPoint))
	}
	if req.endpoint == "explore" && ok {
		t.points[c.id] += 1 << len(req.free)
		t.streamNs[c.id] += end - start
	}
}

// stats merges the per-name statistics of every log.
func (t *tracer) stats() map[string]*spanStats {
	out := make(map[string]*spanStats)
	for _, l := range t.logs {
		for name, st := range l.stats {
			m := out[name]
			if m == nil {
				m = &spanStats{durs: &reservoir{}}
				out[name] = m
			}
			m.count += st.count
			m.fails += st.fails
			m.selfNs += st.selfNs
			m.durs.vals = append(m.durs.vals, st.durs.vals...)
		}
	}
	return out
}

// medianUs returns the median duration of a span name in µs (0 when the
// name was never recorded).
func medianUs(stats map[string]*spanStats, name string) float64 {
	st := stats[name]
	if st == nil || len(st.durs.vals) == 0 {
		return 0
	}
	return quantile(st.durs.vals, 0.5) / 1e3
}

// write stores every kept span as one JSON object per line.
func (t *tracer) write(path string) (int, error) {
	var all []span
	for _, l := range t.logs {
		all = append(all, l.spans...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range all {
		if err := enc.Encode(&all[i]); err != nil {
			f.Close()
			return 0, err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	return len(all), f.Close()
}

// ---------------------------------------------------------------------------
// Probes and replay

// probeCount is the size of each traced probe set.
const probeCount = 64

// probeHits re-issues the last probeCount requests of the traced phase
// [first, next): their bodies are resident in the caches, so every
// workload records service.hit spans.
func (b *bench) probeHits(first, next int) int64 {
	return runRange(b.clients[:1], max(first, next-probeCount), next, b.timedIssue)
}

// probeCold issues probeCount requests never seen before — each
// workload's own shape for the cold workloads; for repeat_zipf, its
// distinct set at batches outside it — so every workload records
// service.precompute and service.compute spans.
func (b *bench) probeCold(next int) int64 {
	gen := b.gen
	if b.w.fill > 0 {
		gen = func(n int) request {
			r := zipfCanon(n % zipfDistinct)
			r.n, r.canon = n, -1
			r.ovr.batch = 1000 + n - next
			return r
		}
	}
	issue := func(c *client, n int) bool {
		req := gen(n)
		c.buf = req.appendBody(c.buf[:0])
		b.tr.serve(c, &req)
		ok := c.call.rec.code == http.StatusOK
		b.tr.finish(c, &req, ok)
		return ok
	}
	return runRange(b.clients[:1], next, next+probeCount, issue)
}

// probeExplore streams small sweeps (three free bits, a list unique to
// each probe) over the models of the workload's own requests [first,
// first+probeCount/4), so workloads without explore traffic still
// measure time to the first point. Wide-fan models are replaced by the
// previous request's model: /v1/explore refuses graphs past the exact
// DP's frontier cap even under searchMethod beam (the sweep's point
// evaluation is exact-only), answering 200 and then breaking the stream.
func (b *bench) probeExplore(first int) int64 {
	issue := func(c *client, n int) bool {
		k := n
		req := b.gen(k)
		for req.ovr.searchMethod == "beam" && k > 0 {
			k--
			req = b.gen(k)
		}
		req.n, req.endpoint, req.strategy, req.ovr, req.canon, req.respell = n, "explore", -1, override{}, -1, false
		m, err := req.resolveModel()
		if err != nil {
			return false
		}
		req.free = orderedFree(len(m.Layers), 3, uint64(n-first))
		c.buf = req.appendBody(c.buf[:0])
		b.tr.serve(c, &req)
		ok := c.call.rec.code == http.StatusOK && streamShapeOK(c.call.rec.body.Bytes(), len(req.free))
		b.tr.finish(c, &req, ok)
		return ok
	}
	return runRange(b.clients[:1], first, first+probeCount/4, issue)
}

// replayMax and replayBudget bound the layer replay.
const (
	replayMax    = 4000
	replayBudget = 3 * time.Second
)

// replay runs the traced phase's inputs [first, next) through each
// layer's public entry point, one span per call, all spans of one input
// sharing its request index: nn.DecodeModel (inline models; zoo models
// decode their canonical JSON), nn.EncodeModel, Config.Canonical plus
// Validate, hypar.NewPlanOpts with the HyPar strategy, and
// Evaluator.Simulate of that plan. It returns the inputs replayed.
func (b *bench) replay(first, next int) int {
	t := b.tr
	log := t.logs[len(t.logs)-1]
	pinned := make(map[string]*hypar.Model)
	for _, m := range append(hypar.Zoo(), hypar.BranchedZoo()...) {
		pinned[m.Name] = m
	}
	zooJSON := make(map[string][]byte)
	ev := hypar.NewEvaluator()
	deadline := time.Now().Add(replayBudget)
	var buf []byte
	count := 0
	for n := first; n < next && count < replayMax && time.Now().Before(deadline); n++ {
		req := b.gen(n)
		count++
		var data []byte
		if req.model != nil {
			buf = appendModel(buf[:0], req.model)
			data = buf
		} else {
			if zooJSON[req.zoo] == nil {
				enc, err := nn.EncodeModel(pinned[req.zoo])
				if err != nil {
					continue
				}
				zooJSON[req.zoo] = enc
			}
			data = zooJSON[req.zoo]
		}
		s := t.now()
		m, err := nn.DecodeModel(data)
		e := t.now()
		log.add(n, 0, "nn.decode", s, e, 0, err != nil)
		if err != nil {
			continue
		}
		if req.model == nil {
			m = pinned[req.zoo]
		}
		s = t.now()
		_, err = nn.EncodeModel(m)
		log.add(n, 0, "nn.encode", s, t.now(), 0, err != nil)

		cfg := req.config()
		s = t.now()
		err = cfg.Canonical().Validate()
		log.add(n, 0, "hypar.resolve", s, t.now(), 0, err != nil)

		s = t.now()
		plan, err := hypar.NewPlanOpts(nil, m, hypar.HyPar, cfg, hypar.PlanOptions{})
		log.add(n, 0, "partition.solve", s, t.now(), 0, err != nil)
		if err != nil {
			continue
		}
		s = t.now()
		_, err = ev.Simulate(m, hypar.HyPar, plan, cfg)
		log.add(n, 0, "sim.simulate", s, t.now(), 0, err != nil)
	}
	return count
}

// spanReport renders per-name count, self time, median and failures.
func spanReport(stats map[string]*spanStats) string {
	names := make([]string, 0, len(stats))
	for name := range stats {
		names = append(names, name)
	}
	sort.Strings(names)
	out := fmt.Sprintf("  %-26s %9s %12s %12s %8s\n", "span", "count", "self_ms", "median_us", "failures")
	for _, name := range names {
		st := stats[name]
		out += fmt.Sprintf("  %-26s %9d %12.3f %12.3f %8d\n", name, st.count, float64(st.selfNs)/1e6, medianUs(stats, name), st.fails)
	}
	return out
}
