package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
)

// sequence renders bodies [first, last) of a workload for a seed.
func sequence(w *workload, seed int64, first, last int) [][]byte {
	gen := w.newGen(seed)
	out := make([][]byte, 0, last-first)
	for n := first; n < last; n++ {
		r := gen(n)
		if r.respell {
			out = append(out, r.appendRespelled(nil))
		} else {
			out = append(out, r.appendBody(nil))
		}
	}
	return out
}

// TestSameSeedSameSequence pins the generators as pure functions of
// (seed, index): the same seed renders a byte-identical sequence, and a
// different seed a different one.
func TestSameSeedSameSequence(t *testing.T) {
	for _, w := range workloads {
		a := sequence(w, 7, 0, w.warm+2000)
		b := sequence(w, 7, 0, w.warm+2000)
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				t.Fatalf("%s: request %d differs between two renders of seed 7", w.name, i)
			}
		}
		c := sequence(w, 8, 0, w.warm+2000)
		same := 0
		for i := range a {
			if bytes.Equal(a[i], c[i]) {
				same++
			}
		}
		if same == len(a) {
			t.Errorf("%s: seeds 7 and 8 render identical sequences", w.name)
		}
	}
}

// semanticKey identifies what a request asks for, independent of its
// spelling: two requests with equal keys are the same evaluation.
func semanticKey(r *request) string {
	model := r.zoo
	if r.model != nil {
		model = string(appendModel(nil, r.model))
	}
	return fmt.Sprintf("%s|%s|%d|%+v|%v", r.endpoint, model, r.strategy, r.config().Canonical(), r.free)
}

// TestColdBodiesUnique guards the cold workloads against accidental
// cache replays: every timed request is unique — in bytes and in
// meaning — and disjoint from the warm phase.
func TestColdBodiesUnique(t *testing.T) {
	timed := map[string]int{"zoo_cold": 60000, "dag_cold": 8000, "explore_sweep": 8000}
	for name, count := range timed {
		w := workloadByName(name)
		gen := w.newGen(3)
		bodies := make(map[string]int)
		keys := make(map[string]int)
		for n := 0; n < w.warm+count; n++ {
			r := gen(n)
			b := string(r.appendBody(nil))
			if prev, ok := bodies[b]; ok {
				t.Fatalf("%s: request %d repeats request %d's body", name, n, prev)
			}
			bodies[b] = n
			k := semanticKey(&r)
			if prev, ok := keys[k]; ok {
				t.Fatalf("%s: request %d asks for the same evaluation as request %d", name, n, prev)
			}
			keys[k] = n
		}
	}
}

// TestZipfRespellings pins repeat_zipf's shape: the warm fill issues
// the distinct set once, re-spellings are fresh bytes every time, and a
// re-spelling misses the raw tier but hits the canonical cache with a
// byte-identical reply and no compute.
func TestZipfRespellings(t *testing.T) {
	w := workloadByName("repeat_zipf")
	gen := w.newGen(5)
	seen := make(map[string]bool)
	for n := 0; n < zipfDistinct; n++ {
		r := gen(n)
		if r.canon != n || r.respell {
			t.Fatalf("fill request %d is canon %d respell %v", n, r.canon, r.respell)
		}
		seen[string(r.appendBody(nil))] = true
	}
	respelled := 0
	for n := zipfDistinct; n < zipfDistinct+50000; n++ {
		r := gen(n)
		if !r.respell {
			if !seen[string(r.appendBody(nil))] {
				t.Fatalf("request %d is outside the distinct set", n)
			}
			continue
		}
		b := string(r.appendRespelled(nil))
		if seen[b] {
			t.Fatalf("re-spelling %d repeats earlier bytes", n)
		}
		seen[b] = true
		respelled++
	}
	if want := 50000 / zipfRespell; respelled < want-1 || respelled > want+1 {
		t.Errorf("%d re-spellings in 50000 requests, want about %d", respelled, want)
	}

	srv, err := service.New(service.Options{Config: baseConfig})
	if err != nil {
		t.Fatal(err)
	}
	c := newCaller(srv.Handler())
	stats := func() endpointCounts {
		c.do(http.MethodGet, "/statsz", nil)
		var sz struct {
			Endpoints map[string]endpointCounts `json:"endpoints"`
		}
		if err := json.Unmarshal(c.rec.body.Bytes(), &sz); err != nil {
			t.Fatal(err)
		}
		e, p := sz.Endpoints["evaluate"], sz.Endpoints["plan"]
		return endpointCounts{Requests: e.Requests + p.Requests, FastHits: e.FastHits + p.FastHits,
			CacheHits: e.CacheHits + p.CacheHits, Computes: e.Computes + p.Computes}
	}
	for n := zipfDistinct; n < zipfDistinct+4*zipfRespell; n++ {
		r := gen(n)
		if !r.respell {
			continue
		}
		base := zipfCanon(r.canon)
		c.do(http.MethodPost, base.path(), base.appendBody(nil))
		want := bytes.Clone(c.rec.body.Bytes())
		before := stats()
		c.do(http.MethodPost, r.path(), r.appendRespelled(nil))
		if c.rec.code != http.StatusOK || !bytes.Equal(c.rec.body.Bytes(), want) {
			t.Fatalf("re-spelling %d: status %d, reply differs from the plain spelling's", n, c.rec.code)
		}
		after := stats()
		if after.CacheHits-before.CacheHits != 1 || after.FastHits != before.FastHits || after.Computes != before.Computes {
			t.Fatalf("re-spelling %d: want one canonical hit and no fast hit or compute, got %+v -> %+v", n, before, after)
		}
	}
}

// TestQuartilesMatchPython pins the steadiness report's quartiles to
// Python's statistics.quantiles(n=4) (exclusive method).
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 4.0]
	if q1, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %v, %v; want 1, 4", q1, q3)
	}
}

// TestStreamShape checks the explore stream validator on a real stream
// and on truncated ones.
func TestStreamShape(t *testing.T) {
	srv, err := service.New(service.Options{Config: baseConfig})
	if err != nil {
		t.Fatal(err)
	}
	c := newCaller(srv.Handler())
	r := genExplore(1, 0)
	c.do(http.MethodPost, r.path(), r.appendBody(nil))
	body := c.rec.body.Bytes()
	if !streamShapeOK(body, exploreFree) {
		t.Fatalf("valid stream rejected:\n%s", body)
	}
	if err := verify(&r, body); err != nil {
		t.Fatalf("verify: %v", err)
	}
	lines := bytes.SplitAfter(body, []byte{'\n'})
	if streamShapeOK(bytes.Join(lines[:len(lines)-2], nil), exploreFree) {
		t.Error("stream without its summary accepted")
	}
	if streamShapeOK(bytes.Join(append(slices.Clone(lines[:3]), lines[len(lines)-1]), nil), exploreFree) {
		t.Error("stream missing points accepted")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json's workload and metric lists in
// step with what the command reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("BENCHMARK.json not beside perfbench: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, command has %v", names, want)
	}
	check := func(kind string, got []struct{ Name, Unit string }, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, command reports %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), command %s (%s)", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// TestRunsAreCorrect runs every workload briefly, untraced and traced,
// and requires a correct result reporting exactly its metric set.
func TestRunsAreCorrect(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			var res *result
			var err error
			if traced {
				res, err = runTraced(io.Discard, w, 2, 2*time.Second, filepath.Join(t.TempDir(), "spans.jsonl"))
			} else {
				res, err = runUntraced(io.Discard, w, 2, time.Second)
			}
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			var got, want []string
			for k := range res.Metrics {
				got = append(got, k)
			}
			for _, d := range defs {
				want = append(want, d.name)
			}
			slices.Sort(got)
			slices.Sort(want)
			if strings.Join(got, ",") != strings.Join(want, ",") {
				t.Errorf("%s traced=%v: metrics %v, want %v", w.name, traced, got, want)
			}
		}
	}
}
