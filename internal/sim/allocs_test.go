package sim

import (
	"testing"

	"repro/internal/nn"
	"repro/internal/partition"
)

// These tests pin the simulator's allocation behavior. CI runs them in
// its non-race `go test -run TestAllocs` stage: the race runtime
// inflates allocation counts and drops a random share of sync.Pool
// puts, so the pooled-engine gate skips itself under -race.

// raceEnabled reports a -race build (set in race_test.go).
var raceEnabled bool

// TestAllocsEngineRun bounds re-running a built graph: the ready heap
// lives on the engine, so after a warm-up Run allocates nothing.
func TestAllocsEngineRun(t *testing.T) {
	e := NewEngine()
	r := e.AddResource("r")
	var prev []*Task
	for i := 0; i < 300; i++ {
		// Many equal ready times and a shared resource keep the heap
		// busy; every task waits on up to three earlier ones.
		var deps []*Task
		for j := len(prev) - 1; j >= 0 && j >= len(prev)-3; j-- {
			deps = append(deps, prev[j])
		}
		res := r
		if i%3 == 0 {
			res = nil
		}
		tk, err := e.AddTask("", float64(i%4), res, deps...)
		if err != nil {
			t.Fatal(err)
		}
		prev = append(prev, tk)
	}
	want, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		got, err := e.Run()
		if err != nil || got != want {
			t.Fatalf("Run = %g, %v; want %g", got, err, want)
		}
	})
	if allocs > 0 {
		t.Errorf("Engine.Run allocates %.1f objects per run, want 0", allocs)
	}
}

// TestAllocsSimulate pins a warmed Simulate's allocations: the pooled
// engine keeps its task slab, ready heap and builder scratch, so a
// step allocates its Stats (the struct and CommSeconds) and, for a
// branched model, the resolved layer inputs its edge list is derived
// from.
func TestAllocsSimulate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime drops pooled engines at random")
	}
	arch, err := DefaultArch(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		m   *nn.Model
		max float64
	}{
		{nn.VGGE(), 2},
		{nn.Incep2(), 11},
	} {
		plan, err := partition.Solve(partition.Request{Model: tc.m, Batch: 256, Levels: unitLevels(4)})
		if err != nil {
			t.Fatal(err)
		}
		want, err := Simulate(tc.m, plan, arch)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			got, err := Simulate(tc.m, plan, arch)
			if err != nil || got.StepSeconds != want.StepSeconds {
				t.Fatalf("%s: Simulate drifted: %v", tc.m.Name, err)
			}
		})
		if allocs > tc.max {
			t.Errorf("%s: Simulate allocates %.1f objects per step, want <= %.0f", tc.m.Name, allocs, tc.max)
		}
	}
}
