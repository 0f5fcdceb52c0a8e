package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// steadyReport runs each requested workload runs times untraced (seeds
// seed, seed+1, …) and once traced, each in a child process of this
// binary, and prints per end-to-end metric the median, quartiles and
// spread — the interquartile range as a share of the median, the figure
// bounds in BENCHMARK.json are set against — plus the latency histogram
// summed over the runs with the median p50 and p99 marked, and the
// traced run's report (per-layer metrics and tracing overhead).
func steadyReport(stdout, stderr io.Writer, name string, seed int64, seconds, runs int) int {
	var ws []*workload
	if name == "all" {
		ws = workloads
	} else if w := workloadByName(name); w != nil {
		ws = []*workload{w}
	} else {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", name)
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, w := range ws {
		values := make(map[string][]float64)
		hist := make([]float64, histBuckets)
		var p50s, p99s []float64
		var attempted, failed int64
		for i := 0; i < runs; i++ {
			out, err := child(exe, w.name, seed+int64(i), seconds, 0)
			if err != nil {
				fmt.Fprintf(stderr, "perfbench: %s seed %d: %v\n", w.name, seed+int64(i), err)
				return 1
			}
			res, hl, err := parseChild(out)
			if err != nil {
				fmt.Fprintf(stderr, "perfbench: %s seed %d: %v\n", w.name, seed+int64(i), err)
				return 1
			}
			for k, m := range res.Metrics {
				values[k] = append(values[k], m.Value)
			}
			fmt.Fprintf(stdout, "  run seed %d:", seed+int64(i))
			for _, md := range endToEnd {
				fmt.Fprintf(stdout, " %s=%.6g", md.name, res.Metrics[md.name].Value)
			}
			fmt.Fprintln(stdout)
			attempted += res.Attempted
			failed += res.Failed
			total := 0.0
			for _, c := range hl.Counts {
				total += c
			}
			for b, c := range hl.Counts {
				hist[b] += c / total / float64(runs)
			}
			p50s = append(p50s, float64(hl.P50))
			p99s = append(p99s, float64(hl.P99))
		}
		fmt.Fprintf(stdout, "== %s: %d runs of %d s, seeds %d..%d; %d requests attempted, %d failed\n",
			w.name, runs, seconds, seed, seed+int64(runs)-1, attempted, failed)
		fmt.Fprintf(stdout, "  %-16s %6s %14s %14s %14s %9s %14s %14s\n", "metric", "unit", "median", "q1", "q3", "spread", "min", "max")
		for _, md := range endToEnd {
			v := values[md.name]
			if len(v) == 0 {
				continue
			}
			q1, q3 := quartiles(v)
			med := median(v)
			lo, hi := v[0], v[0]
			for _, x := range v {
				lo, hi = min(lo, x), max(hi, x)
			}
			fmt.Fprintf(stdout, "  %-16s %6s %14.6g %14.6g %14.6g %8.2f%% %14.6g %14.6g\n",
				md.name, md.unit, med, q1, q3, 100*(q3-q1)/med, lo, hi)
		}
		fmt.Fprintln(stdout, "  latency histogram (share of requests, averaged over runs):")
		fmt.Fprint(stdout, formatHist(hist, int64(median(p50s)), int64(median(p99s))))

		out, err := child(exe, w.name, seed, seconds, 1)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s traced: %v\n", w.name, err)
			return 1
		}
		fmt.Fprintf(stdout, "  traced run (seed %d):\n", seed)
		if res, _, err := parseChild(out); err == nil {
			tp := res.Metrics["trace.throughput_ratio"].Value
			fmt.Fprintf(stdout, "  tracing overhead: traced/untraced throughput_rps = %.4f\n", tp)
		}
		sc := bufio.NewScanner(bytes.NewReader(out))
		for sc.Scan() {
			if line := sc.Text(); !strings.HasPrefix(line, "{") {
				fmt.Fprintf(stdout, "    %s\n", line)
			}
		}
	}
	return 0
}

// child runs one benchmark run of this binary and returns its stdout.
func child(exe, name string, seed int64, seconds, trace int) ([]byte, error) {
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	return cmd.Output()
}

// parseChild extracts a child's final JSON result and histogram line.
func parseChild(out []byte) (result, histLine, error) {
	var res result
	var hl histLine
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, hl, fmt.Errorf("result line: %w", err)
	}
	for _, line := range lines {
		if rest, ok := strings.CutPrefix(line, "# hist "); ok {
			if err := json.Unmarshal([]byte(rest), &hl); err != nil {
				return res, hl, fmt.Errorf("histogram line: %w", err)
			}
		}
	}
	return res, hl, nil
}
