// Command perfbench is the repository's benchmark: it drives the hypard
// request path in-process (service.New(...).Handler().ServeHTTP) with
// seeded, generated request bodies in a closed loop, checks every reply,
// re-derives a seeded sample of them through the library facade, and
// prints every metric by name with its unit. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed",
// "metrics"} — the end-to-end metrics for -trace 0, the per-layer
// metrics for -trace 1.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload zoo_cold --seed 1 --seconds 25 --trace 0
//	bash perfbench/run.sh --workload dag_cold --seed 1 --seconds 25 --trace 1
//	bash perfbench/run.sh --steady 10 --workload all --seconds 25
//
// Workloads: zoo_cold, repeat_zipf, dag_cold, explore_sweep (see
// BENCHMARK.json for why each exists and which layer it loads).
//
// An untraced run sets up setups times (service.New plus a fixed warm
// phase of requests disjoint from the timed ones), then measures one
// closed loop of -seconds. A traced run sets up once, measures an
// untraced half (the per-layer counters and the untraced throughput), a
// traced half (a root span per ServeHTTP call split at the service's
// OnCompute mark), fixed probes (cache hits, fresh computes and small
// sweeps, so every layer is timed on every workload), and a replay of
// the traced half's inputs through each layer's entry point; spans are
// written to -spans. -steady N runs each workload N times with seeds
// seed, seed+1, … in child processes and prints each metric's median,
// quartiles and spread, a latency histogram, and one traced run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"syscall"
	"time"
)

// metricDef names one reported metric.
type metricDef struct {
	name, unit string
}

// endToEnd and perLayer are the metrics an untraced and a traced run
// report, in BENCHMARK.json order.
var (
	endToEnd = []metricDef{
		{"setup_s", "s"},
		{"throughput_rps", "1/s"},
		{"latency_p50_ms", "ms"},
		{"latency_p99_ms", "ms"},
		{"cpu_ms_per_req", "ms"},
		{"rss_mb", "MB"},
	}
	perLayer = []metricDef{
		{"service.fast_hit_ratio", "ratio"},
		{"service.canonical_hit_ratio", "ratio"},
		{"service.computes_per_req", "count"},
		{"service.allocs_per_req", "count"},
		{"service.alloc_bytes_per_req", "B"},
		{"service.hit_us", "us"},
		{"service.precompute_us", "us"},
		{"service.compute_us", "us"},
		{"nn.decode_us", "us"},
		{"nn.encode_us", "us"},
		{"hypar.resolve_us", "us"},
		{"partition.solve_us", "us"},
		{"partition.dp_cells_per_req", "count"},
		{"sim.simulate_us", "us"},
		{"experiments.first_point_ms", "ms"},
		{"experiments.points_per_s", "1/s"},
		{"runner.cpu_utilization", "ratio"},
		{"trace.throughput_ratio", "ratio"},
	}
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses the flags and runs the requested mode; it returns the exit
// code. Only a completed run prints the final JSON line.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "zoo_cold | repeat_zipf | dag_cold | explore_sweep (all: only with -steady)")
		seed    = fs.Int64("seed", 1, "workload seed: the same seed gives the same request sequence")
		seconds = fs.Int("seconds", 10, "timed-phase length in seconds")
		trace   = fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
		spans   = fs.String("spans", "", "spans file of a traced run (default .bench_build/spans/<workload>-seed<seed>.jsonl)")
		steady  = fs.Int("steady", 0, "steadiness report: runs per workload, in child processes")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	if *steady > 0 {
		return steadyReport(stdout, stderr, *name, *seed, *seconds, *steady)
	}
	w := workloadByName(*name)
	if w == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	dur := time.Duration(*seconds) * time.Second
	var res *result
	var err error
	if *trace == 1 {
		path := *spans
		if path == "" {
			path = fmt.Sprintf(".bench_build/spans/%s-seed%d.jsonl", w.name, *seed)
		}
		res, err = runTraced(stdout, w, *seed, dur, path)
	} else {
		res, err = runUntraced(stdout, w, *seed, dur)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// header prints the run's identity.
func header(out io.Writer, b *bench, seed int64, dur time.Duration, mode string) {
	fmt.Fprintf(out, "perfbench %s (%s) seed=%d seconds=%.0f clients=%d closed loop, GOMAXPROCS=%d, CPUs=%d\n",
		b.w.name, mode, seed, dur.Seconds(), len(b.clients), runtime.GOMAXPROCS(0), runtime.NumCPU())
}

// timedIssue is the closed loop's per-request function.
func (b *bench) timedIssue(c *client, n int) bool { return b.issue(c, n, true) }

// runUntraced measures the end-to-end metrics.
func runUntraced(out io.Writer, w *workload, seed int64, dur time.Duration) (*result, error) {
	b := newBench(w, seed, nil)
	header(out, b, seed, dur, "untraced")
	var setupS []float64
	var warmFailed int64
	for i := 0; i < setups; i++ {
		d, failed, err := b.setup()
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, d.Seconds())
		warmFailed += failed
	}
	fmt.Fprintf(out, "set-up: %d × (service.New + %d warm requests), seconds %.4f\n", setups, w.warm, setupS)

	lr := runLoop(b.clients, w.warm, dur, windows, nil, b.timedIssue)
	checked, mismatches, errs := b.verifySamples()
	reportCorrectness(out, lr, warmFailed, checked, mismatches, errs)

	var rps, cpuPerReq, p50s, p99s []float64
	for w, win := range lr.windows {
		if win.reqs > 0 {
			rps = append(rps, float64(win.reqs)/win.wall.Seconds())
			cpuPerReq = append(cpuPerReq, float64(win.cpu)/1e6/float64(win.reqs))
			lat := pooled(lr.lat[w])
			p50s = append(p50s, float64(percentile(lat, 0.50))/1e6)
			p99s = append(p99s, float64(percentile(lat, 0.99))/1e6)
		}
	}
	var all []*reservoir
	for _, rs := range lr.lat {
		all = append(all, rs...)
	}
	lat := pooled(all)
	m := map[string]metric{
		"setup_s":        {median(setupS), "s"},
		"throughput_rps": {median(rps), "1/s"},
		"latency_p50_ms": {median(p50s), "ms"},
		"latency_p99_ms": {median(p99s), "ms"},
		"cpu_ms_per_req": {median(cpuPerReq), "ms"},
		"rss_mb":         {median(lr.rss) / (1 << 20), "MB"},
	}
	perWindow := lr.completed / int64(len(lr.windows))
	fmt.Fprintln(out, "end-to-end:")
	fmt.Fprintf(out, "  %-16s %12.4f s    median of %d set-ups\n", "setup_s", m["setup_s"].Value, setups)
	fmt.Fprintf(out, "  %-16s %12.1f 1/s  median of %d windows; whole phase %.1f (%d requests / %.3f s)\n",
		"throughput_rps", m["throughput_rps"].Value, len(rps), float64(lr.completed)/lr.wall.Seconds(), lr.completed, lr.wall.Seconds())
	fmt.Fprintf(out, "  %-16s %12.4f ms   median of %d window p50s; whole phase %.4f (%d requests, %d kept)\n",
		"latency_p50_ms", m["latency_p50_ms"].Value, len(p50s), float64(percentile(lat, 0.5))/1e6, lr.completed, len(lat))
	fmt.Fprintf(out, "  %-16s %12.4f ms   median of %d window p99s (about %d requests beyond each); whole phase %.4f\n",
		"latency_p99_ms", m["latency_p99_ms"].Value, len(p99s), perWindow/100, float64(percentile(lat, 0.99))/1e6)
	fmt.Fprintf(out, "  %-16s %12.4f ms   median of %d windows; whole phase %.4f (CPU %.3f s / %d requests)\n",
		"cpu_ms_per_req", m["cpu_ms_per_req"].Value, len(cpuPerReq), float64(lr.cpu)/1e6/float64(max(lr.completed, 1)), lr.cpu.Seconds(), lr.completed)
	fmt.Fprintf(out, "  %-16s %12.1f MB   median of %d resident-set samples (every %v); peak %.1f MB\n",
		"rss_mb", m["rss_mb"].Value, len(lr.rss), memEvery, rssPeakMB())
	fmt.Fprintf(out, "windows (1/s, p50 ms):")
	for i := range rps {
		fmt.Fprintf(out, " %.0f/%.4f", rps[i], p50s[i])
	}
	fmt.Fprintln(out)
	p50, p99 := percentile(lat, 0.5), percentile(lat, 0.99)
	fmt.Fprintln(out, "latency histogram (whole phase):")
	h := histogram(lat)
	fmt.Fprint(out, formatHist(h, p50, p99))
	hl, _ := json.Marshal(histLine{P50: p50, P99: p99, Counts: h})
	fmt.Fprintf(out, "# hist %s\n", hl)

	failed := lr.failed + int64(mismatches) + warmFailed
	return &result{Correct: failed == 0, Attempted: lr.completed, Failed: failed, Metrics: m}, nil
}

// histLine carries one run's latency histogram to the steadiness report.
type histLine struct {
	P50    int64     `json:"p50"`
	P99    int64     `json:"p99"`
	Counts []float64 `json:"counts"`
}

// reportCorrectness prints the run's failure accounting.
func reportCorrectness(out io.Writer, lr loopResult, warmFailed int64, checked, mismatches int, errs []string) {
	fmt.Fprintf(out, "timed: %d requests attempted, %d failed (non-200 or reply check); warm phase %d failed\n",
		lr.completed, lr.failed, warmFailed)
	fmt.Fprintf(out, "re-derived through the facade: %d replies, %d mismatches\n", checked, mismatches)
	for _, e := range errs {
		fmt.Fprintf(out, "  mismatch: %s\n", e)
	}
}

// rssPeakMB returns the process's peak resident set in MB.
func rssPeakMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runTraced measures the per-layer metrics.
func runTraced(out io.Writer, w *workload, seed int64, dur time.Duration, spansPath string) (*result, error) {
	n := w.clients
	if n == 0 {
		n = runtime.NumCPU()
	}
	tr := newTracer(n)
	b := newBench(w, seed, tr)
	header(out, b, seed, dur, "traced")
	setup, warmFailed, err := b.setup()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "set-up: service.New + %d warm requests, %.4f s\n", w.warm, setup.Seconds())

	// Untraced half: counters and the untraced throughput.
	before, err := b.snapshot()
	if err != nil {
		return nil, err
	}
	la := runLoop(b.clients, w.warm, dur/2, windows/2, nil, b.timedIssue)
	after, err := b.snapshot()
	if err != nil {
		return nil, err
	}
	// Traced half, probes and replay.
	tr.active.Store(true)
	var pin func(*client) func()
	if len(b.clients) > 1 {
		pin = tr.pin
		tr.pinned.Store(true)
	}
	lb := runLoop(b.clients, la.next, dur/2, windows/2, pin, b.timedIssue)
	tr.pinned.Store(false)
	probeFailed := b.probeHits(la.next, lb.next) + b.probeCold(lb.next)
	if w.name != "explore_sweep" {
		probeFailed += b.probeExplore(la.next)
	}
	tr.active.Store(false)
	replayed := b.replay(la.next, lb.next)
	checked, mismatches, errs := b.verifySamples()
	lab := loopResult{completed: la.completed + lb.completed, failed: la.failed + lb.failed}
	reportCorrectness(out, lab, warmFailed, checked, mismatches, errs)
	fmt.Fprintf(out, "probes: %d failed\n", probeFailed)

	stats := tr.stats()
	written, err := tr.write(spansPath)
	if err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}

	reqs := float64(after.stats.Requests - before.stats.Requests)
	if reqs <= 0 {
		return nil, fmt.Errorf("no requests in the untraced half")
	}
	ratio := func(num int64) float64 { return float64(num) / reqs }
	wall := after.at.Sub(before.at)
	cpu := after.cpu - before.cpu
	var fps []int64
	var points, streamNs int64
	for i := range tr.firstPoint {
		fps = append(fps, tr.firstPoint[i].vals...)
		points += tr.points[i]
		streamNs += tr.streamNs[i]
	}
	pointsPerS := 0.0
	if streamNs > 0 {
		pointsPerS = float64(points) / (float64(streamNs) / 1e9)
	}
	rpsA, rpsB := medianRPS(la), medianRPS(lb)
	m := map[string]metric{
		"service.fast_hit_ratio":      {ratio(after.stats.FastHits - before.stats.FastHits), "ratio"},
		"service.canonical_hit_ratio": {ratio(after.stats.CacheHits - before.stats.CacheHits), "ratio"},
		"service.computes_per_req":    {ratio(after.stats.Computes - before.stats.Computes), "count"},
		"service.allocs_per_req":      {float64(after.mallocs-before.mallocs) / reqs, "count"},
		"service.alloc_bytes_per_req": {float64(after.bytes-before.bytes) / reqs, "B"},
		"service.hit_us":              {medianUs(stats, "service.hit"), "us"},
		"service.precompute_us":       {medianUs(stats, "service.precompute"), "us"},
		"service.compute_us":          {medianUs(stats, "service.compute"), "us"},
		"nn.decode_us":                {medianUs(stats, "nn.decode"), "us"},
		"nn.encode_us":                {medianUs(stats, "nn.encode"), "us"},
		"hypar.resolve_us":            {medianUs(stats, "hypar.resolve"), "us"},
		"partition.solve_us":          {medianUs(stats, "partition.solve"), "us"},
		"partition.dp_cells_per_req":  {ratio(after.dpCells - before.dpCells), "count"},
		"sim.simulate_us":             {medianUs(stats, "sim.simulate"), "us"},
		"experiments.first_point_ms":  {quantile(fps, 0.5) / 1e6, "ms"},
		"experiments.points_per_s":    {pointsPerS, "1/s"},
		"runner.cpu_utilization":      {float64(cpu) / (float64(wall) * float64(runtime.NumCPU())), "ratio"},
		"trace.throughput_ratio":      {rpsB / rpsA, "ratio"},
	}

	fmt.Fprintf(out, "untraced half: %d requests in %.3f s (%.1f 1/s window median); traced half: %d requests (%.1f 1/s)\n",
		la.completed, wall.Seconds(), rpsA, lb.completed, rpsB)
	fmt.Fprintln(out, "per-layer (counts over the untraced half, times from the traced half, probes and replay):")
	ratioLine := func(name, num string, n int64, base string) {
		fmt.Fprintf(out, "  %-28s %14.6f   %s %d / %s %.0f\n", name, m[name].Value, num, n, base, reqs)
	}
	ratioLine("service.fast_hit_ratio", "fastHits", after.stats.FastHits-before.stats.FastHits, "requests")
	ratioLine("service.canonical_hit_ratio", "cacheHits", after.stats.CacheHits-before.stats.CacheHits, "requests")
	ratioLine("service.computes_per_req", "computes", after.stats.Computes-before.stats.Computes, "requests")
	ratioLine("service.allocs_per_req", "mallocs", int64(after.mallocs-before.mallocs), "requests")
	ratioLine("service.alloc_bytes_per_req", "bytes", int64(after.bytes-before.bytes), "requests")
	ratioLine("partition.dp_cells_per_req", "DPCells", after.dpCells-before.dpCells, "requests")
	for _, name := range []string{"service.hit_us", "service.precompute_us", "service.compute_us", "nn.decode_us",
		"nn.encode_us", "hypar.resolve_us", "partition.solve_us", "sim.simulate_us"} {
		fmt.Fprintf(out, "  %-28s %14.3f us  median span duration\n", name, m[name].Value)
	}
	fmt.Fprintf(out, "  %-28s %14.4f ms  median of %d streams\n", "experiments.first_point_ms", m["experiments.first_point_ms"].Value, len(fps))
	fmt.Fprintf(out, "  %-28s %14.1f 1/s points %d / stream time %.3f s\n", "experiments.points_per_s", pointsPerS, points, float64(streamNs)/1e9)
	fmt.Fprintf(out, "  %-28s %14.4f     CPU %.3f s / (wall %.3f s × %d CPUs)\n", "runner.cpu_utilization",
		m["runner.cpu_utilization"].Value, cpu.Seconds(), wall.Seconds(), runtime.NumCPU())
	fmt.Fprintf(out, "  %-28s %14.4f     traced %.1f 1/s / untraced %.1f 1/s\n", "trace.throughput_ratio", rpsB/rpsA, rpsB, rpsA)
	fmt.Fprintf(out, "spans: %d kept of %d recorded, written to %s; replayed %d inputs\n", written, spanTotal(stats), spansPath, replayed)
	fmt.Fprint(out, spanReport(stats))

	failed := la.failed + lb.failed + int64(mismatches) + warmFailed + probeFailed
	return &result{Correct: failed == 0, Attempted: la.completed + lb.completed, Failed: failed, Metrics: m}, nil
}

// medianRPS is a phase's median per-window throughput.
func medianRPS(lr loopResult) float64 {
	var rps []float64
	for _, win := range lr.windows {
		rps = append(rps, float64(win.reqs)/win.wall.Seconds())
	}
	return median(rps)
}

// spanTotal counts every recorded span.
func spanTotal(stats map[string]*spanStats) int64 {
	var n int64
	for _, st := range stats {
		n += st.count
	}
	return n
}
