package sim

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/nn"
	"repro/internal/partition"
)

// buildDiamond registers a four-task diamond graph on the engine.
func buildDiamond(t *testing.T, e *Engine) {
	t.Helper()
	r := e.AddResource("r")
	a, err := e.AddTask("a", 1, r)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.AddTask("b", 2, nil, a)
	if err != nil {
		t.Fatal(err)
	}
	c, err := e.AddTask("c", 3, r, a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddTask("d", 1, nil, b, c); err != nil {
		t.Fatal(err)
	}
}

func TestRunIsReentrant(t *testing.T) {
	e := NewEngine()
	buildDiamond(t, e)
	first, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	// A second Run on the same graph must reproduce the schedule, not
	// consume stale pending counts or ready times.
	second, err := e.Run()
	if err != nil {
		t.Fatalf("second Run: %v", err)
	}
	if first != second {
		t.Errorf("second Run makespan %g != first %g", second, first)
	}
}

func TestResetReusesStorage(t *testing.T) {
	e := NewEngine()
	buildDiamond(t, e)
	first, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		e.Reset()
		if e.NumTasks() != 0 {
			t.Fatalf("Reset left %d tasks", e.NumTasks())
		}
		buildDiamond(t, e)
		got, err := e.Run()
		if err != nil {
			t.Fatalf("reuse %d: %v", i, err)
		}
		if got != first {
			t.Errorf("reuse %d: makespan %g, want %g", i, got, first)
		}
	}
}

func TestResetSlabPointerStability(t *testing.T) {
	e := NewEngine()
	// Force multiple slab blocks and check dependencies still resolve.
	var prev *Task
	n := 3*slabBlock + 17
	for i := 0; i < n; i++ {
		tk, err := e.AddTask("", 1, nil, prev)
		if err != nil {
			t.Fatal(err)
		}
		prev = tk
	}
	got, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(n); got != want {
		t.Errorf("chain makespan %g, want %g", got, want)
	}
}

func TestRunDetectsCycleAfterReset(t *testing.T) {
	e := NewEngine()
	a, _ := e.AddTask("a", 1, nil)
	b, _ := e.AddTask("b", 1, nil, a)
	a.After(b)
	if _, err := e.Run(); !errors.Is(err, ErrSim) {
		t.Fatalf("cycle not detected: %v", err)
	}
	// The engine stays usable after the failed run.
	e.Reset()
	buildDiamond(t, e)
	if _, err := e.Run(); err != nil {
		t.Fatalf("run after cycle+reset: %v", err)
	}
}

// TestSimulatorMatchesSimulate checks that concurrent Simulate calls,
// which borrow and return pooled engines, yield stats bit-identical to
// serial simulations on fresh engines, across models and strategies.
// Run it under -race to check the pool hands no engine to two
// goroutines at once.
func TestSimulatorMatchesSimulate(t *testing.T) {
	arch, err := DefaultArch(4)
	if err != nil {
		t.Fatal(err)
	}
	type tc struct {
		name string
		m    *nn.Model
		plan *partition.Plan
		want *Stats
	}
	var cases []tc
	for _, m := range []*nn.Model{nn.LenetC(), nn.AlexNet(), nn.VGGA()} {
		for _, mk := range []struct {
			name string
			fn   func(*nn.Model, int, []partition.Weights) (*partition.Plan, error)
		}{
			{"hypar", func(m *nn.Model, batch int, ws []partition.Weights) (*partition.Plan, error) {
				return partition.Solve(partition.Request{Model: m, Batch: batch, Levels: ws})
			}},
			{"dp", partition.DataParallel},
			{"mp", partition.ModelParallel},
		} {
			plan, err := mk.fn(m, 256, unitLevels(4))
			if err != nil {
				t.Fatal(err)
			}
			want, err := simulateOn(NewEngine(), m, plan, arch)
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases, tc{m.Name + "/" + mk.name, m, plan, want})
		}
	}

	const workers, rounds = 8, 4
	var wg sync.WaitGroup
	errs := make(chan string, workers*rounds*len(cases))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := range cases {
					// Stagger the order so workers interleave different
					// graphs on the pooled engines.
					c := cases[(i+w)%len(cases)]
					got, err := Simulate(c.m, c.plan, arch)
					if err != nil {
						errs <- fmt.Sprintf("%s: %v", c.name, err)
						continue
					}
					if !reflect.DeepEqual(got, c.want) {
						errs <- fmt.Sprintf("%s: pooled stats differ:\n got %+v\nwant %+v", c.name, *got, *c.want)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
