package partition

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/nn"
	"repro/internal/runner"
)

// plansAgree compares the exported content of two plans exactly.
// (reflect.DeepEqual on whole plans would also compare the unexported
// warm-start fingerprints, which legitimately differ across methods.)
func plansAgree(a, b *Plan) bool {
	return a.Model == b.Model && a.Batch == b.Batch &&
		reflect.DeepEqual(a.Levels, b.Levels) &&
		reflect.DeepEqual(a.Edges, b.Edges) &&
		reflect.DeepEqual(a.Details, b.Details) &&
		a.TotalElems == b.TotalElems
}

// TestWeightedWrappersUnitIdentity: the weighted forms of the
// single-level DP and its exhaustive objective are byte-identical to
// the unweighted originals at UnitWeights (scaling by 1.0 is exact in
// IEEE arithmetic), and Evaluate of a search's own levels reproduces
// the search's plan exactly, at unit and at non-unit per-level weights.
func TestWeightedWrappersUnitIdentity(t *testing.T) {
	m := nn.AlexNet()
	const batch = 16
	u := UnitWeights()

	amounts, _ := oracleAmounts(t, m, batch)
	cost, assign := TwoWay(amounts)
	costW, assignW := TwoWayWeighted(amounts, u)
	if cost != costW || assign.String() != assignW.String() {
		t.Errorf("TwoWayWeighted(unit) = (%g, %s), want (%g, %s)", costW, assignW, cost, assign)
	}
	if ac := AssignmentCostWeighted(amounts, assign, u); ac != AssignmentCost(amounts, assign) {
		t.Errorf("AssignmentCostWeighted(unit) = %g, want %g", ac, AssignmentCost(amounts, assign))
	}

	for _, ws := range [][]Weights{
		{u, u},
		{u, {Grad: 0.5, Psum: 1, Convert: 2}, {Grad: 1, Psum: 0.5, Convert: 1}},
	} {
		for _, model := range []*nn.Model{m, cancelFork(3)} {
			plan, err := Solve(Request{Model: model, Batch: batch, Levels: ws})
			if err != nil {
				t.Fatal(err)
			}
			ev, err := Evaluate(model, batch, plan.Levels, ws)
			if err != nil {
				t.Fatal(err)
			}
			if !plansAgree(ev, plan) {
				t.Errorf("%s, %d levels: Evaluate of the search's own levels diverges (%g vs %g)",
					model.Name, len(ws), ev.TotalElems, plan.TotalElems)
			}
		}
	}
}

// TestNegativeWeightsRejected: every entry point that takes per-level
// weights refuses an invalid weight with ErrPlan before doing any work.
func TestNegativeWeightsRejected(t *testing.T) {
	m := cancelChain(4)
	const batch = 8
	u := UnitWeights()
	bad := []Weights{u, {Grad: -1, Psum: 1, Convert: 1}}
	base := []Assignment{Uniform(4, comm.DP), Uniform(4, comm.MP)}
	free := []FreeVar{{Level: 0, Layer: 0}, {Level: 1, Layer: 2}}

	for _, method := range []Method{MethodHierarchical, MethodBrute, MethodBeam} {
		req := Request{Model: m, Batch: batch, Levels: bad, Method: method, Pool: runner.Serial()}
		if _, err := Solve(req); !errors.Is(err, ErrPlan) {
			t.Errorf("%v Solve accepted a negative weight: %v", method, err)
		}
	}
	if _, err := Evaluate(m, batch, base, bad); !errors.Is(err, ErrPlan) {
		t.Errorf("Evaluate accepted a negative weight: %v", err)
	}
	if _, err := Explore(nil, runner.Serial(), m, batch, base, free, bad); !errors.Is(err, ErrPlan) {
		t.Errorf("Explore accepted a negative weight: %v", err)
	}
	for name, baseline := range map[string]func(*nn.Model, int, []Weights) (*Plan, error){
		"DataParallel": DataParallel, "ModelParallel": ModelParallel, "OneWeirdTrick": OneWeirdTrick,
	} {
		if _, err := baseline(m, batch, bad); !errors.Is(err, ErrPlan) {
			t.Errorf("%s accepted a negative weight: %v", name, err)
		}
	}
}

func TestParseMethod(t *testing.T) {
	for name, want := range map[string]Method{
		"": MethodHierarchical, "hierarchical": MethodHierarchical, "graph": MethodHierarchical,
		"Brute": MethodBrute, "BEAM": MethodBeam,
	} {
		got, err := ParseMethod(name)
		if err != nil || got != want {
			t.Errorf("ParseMethod(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseMethod("quantum"); !errors.Is(err, ErrPlan) {
		t.Errorf("ParseMethod(quantum) = %v, want ErrPlan", err)
	}
	for m, s := range map[Method]string{MethodHierarchical: "hierarchical", MethodBrute: "brute", MethodBeam: "beam"} {
		if m.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(m), m.String(), s)
		}
	}
}

func TestSolveValidation(t *testing.T) {
	m := cancelChain(3)
	unit := []Weights{UnitWeights()}
	for name, req := range map[string]Request{
		"nil model":         {Batch: 8, Levels: unit},
		"negative width":    {Model: m, Batch: 8, Levels: unit, Method: MethodBeam, BeamWidth: -2},
		"bad weights":       {Model: m, Batch: 8, Levels: []Weights{{Grad: -1, Psum: 1, Convert: 1}}},
		"unknown method":    {Model: m, Batch: 8, Levels: unit, Method: Method(99)},
		"unknown objective": {Model: m, Batch: 8, Levels: unit, Objective: Objective(7)},
	} {
		if _, err := Solve(req); !errors.Is(err, ErrPlan) {
			t.Errorf("Solve(%s) = %v, want ErrPlan", name, err)
		}
	}
}

// TestRequestFrontierCap: a Request carries no frontier cap of its own.
// Under every objective, and with a warm plan of the same graph, the
// exact DP plans the width-8 fork and refuses a fork past the compiled-in
// cap with ErrTooWide; no request option unlocks state-key widths the
// exact DP cannot represent.
func TestRequestFrontierCap(t *testing.T) {
	narrow := cancelFork(8) // frontier width 8
	wide := cancelFork(maxGraphFrontier + 2)
	for _, obj := range []Objective{ObjectiveTraining, ObjectiveInference} {
		req := unitSolve(narrow, 2, 2)
		req.Objective = obj
		if _, err := Solve(req); err != nil {
			t.Fatalf("objective %d: Solve of the width-8 fork: %v", obj, err)
		}
		req.Model = wide
		if _, err := Solve(req); !errors.Is(err, ErrTooWide) {
			t.Fatalf("objective %d: Solve past the cap = %v, want ErrTooWide", obj, err)
		}
		beam := req
		beam.Method = MethodBeam
		warm, err := Solve(beam)
		if err != nil {
			t.Fatalf("objective %d: beam Solve past the cap: %v", obj, err)
		}
		req.Warm = warm
		if _, err := Solve(req); !errors.Is(err, ErrTooWide) {
			t.Fatalf("objective %d: warm exact Solve past the cap = %v, want ErrTooWide", obj, err)
		}
	}
}

// TestConcurrentFrontierCaps runs exact and beam solves of one
// too-wide graph concurrently: the frontier cap is a compiled-in bound
// of the exact DP, not shared state, so the exact solves keep refusing
// and the beam solves keep planning (run under -race in CI).
func TestConcurrentFrontierCaps(t *testing.T) {
	fork := cancelFork(maxGraphFrontier + 2)
	unit := []Weights{UnitWeights()}
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for _, tc := range []struct {
		method  Method
		wantErr bool
	}{{MethodHierarchical, true}, {MethodBeam, false}} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				_, err := Solve(Request{Model: fork, Batch: 2, Levels: unit, Method: tc.method})
				if tc.wantErr != errors.Is(err, ErrTooWide) || (!tc.wantErr && err != nil) {
					errs <- fmt.Errorf("%v: err = %v, wantErr %v", tc.method, err, tc.wantErr)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestWarmStartReusesLevels: a warm solve whose inputs are unchanged
// reuses every level and evaluates zero new DP cells; a sweep that
// mutates one dimension recomputes strictly fewer cells than a cold
// solve while returning the byte-identical plan.
func TestWarmStartReusesLevels(t *testing.T) {
	m := oracleRandomDAG(rand.New(rand.NewSource(42)), 0)
	perLevel := []Weights{UnitWeights(), UnitWeights(), UnitWeights(), UnitWeights()}
	req := Request{Model: m, Batch: 32, Levels: perLevel}

	cells := func(f func()) int64 {
		before := DPCells()
		f()
		return DPCells() - before
	}

	var cold, warm *Plan
	var err error
	coldCells := cells(func() { cold, err = Solve(req) })
	if err != nil {
		t.Fatal(err)
	}
	if coldCells <= 0 {
		t.Fatalf("cold solve evaluated %d DP cells, want > 0", coldCells)
	}

	// Unchanged inputs: full reuse, zero DP work.
	warmReq := req
	warmReq.Warm = cold
	warmCells := cells(func() { warm, err = Solve(warmReq) })
	if err != nil {
		t.Fatal(err)
	}
	if warmCells != 0 {
		t.Errorf("identical warm solve evaluated %d DP cells, want 0", warmCells)
	}
	if !plansAgree(warm, cold) {
		t.Error("warm plan differs from cold plan")
	}

	// One-dimension sweep: mutate only level 2's weights. Levels 0 and 1
	// see identical inputs and must be reused; the changed level (and any
	// level whose shard history diverges) recomputes. Strictly fewer
	// cells than the equivalent cold solve, same plan.
	swept := []Weights{UnitWeights(), UnitWeights(), {Grad: 2, Psum: 1, Convert: 1}, UnitWeights()}
	sweepReq := Request{Model: m, Batch: 32, Levels: swept, Warm: cold}
	var sweptWarm *Plan
	sweptWarmCells := cells(func() { sweptWarm, err = Solve(sweepReq) })
	if err != nil {
		t.Fatal(err)
	}
	sweepCold := sweepReq
	sweepCold.Warm = nil
	var sweptCold *Plan
	sweptColdCells := cells(func() { sweptCold, err = Solve(sweepCold) })
	if err != nil {
		t.Fatal(err)
	}
	if sweptWarmCells >= sweptColdCells {
		t.Errorf("warm sweep evaluated %d DP cells, cold %d: want strictly fewer", sweptWarmCells, sweptColdCells)
	}
	if !plansAgree(sweptWarm, sweptCold) {
		t.Error("warm sweep plan differs from cold sweep plan")
	}

	// A different batch changes every level's amounts: no level may be
	// wrongly reused (the plan must equal its cold counterpart).
	batchReq := Request{Model: m, Batch: 64, Levels: perLevel, Warm: cold}
	warmBatch, err := Solve(batchReq)
	if err != nil {
		t.Fatal(err)
	}
	coldBatch, err := Solve(Request{Model: m, Batch: 64, Levels: perLevel})
	if err != nil {
		t.Fatal(err)
	}
	if !plansAgree(warmBatch, coldBatch) {
		t.Error("batch-changed warm plan differs from cold plan")
	}
}

// TestWarmStartIgnoresForeignPlans: plans built outside Solve carry no
// fingerprints and must warm nothing (no panic, no wrong reuse).
func TestWarmStartIgnoresForeignPlans(t *testing.T) {
	m := cancelChain(4)
	unit := []Weights{UnitWeights(), UnitWeights()}
	foreign, err := Solve(Request{Model: m, Batch: 8, Levels: unit, Method: MethodBrute}) // brute plans have no levelKeys
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Solve(Request{Model: m, Batch: 8, Levels: unit})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Solve(Request{Model: m, Batch: 8, Levels: unit, Warm: foreign})
	if err != nil {
		t.Fatal(err)
	}
	if !plansAgree(warm, cold) {
		t.Error("foreign warm hint changed the plan")
	}
}

// TestWarmStartMethodMismatch: a beam plan must not warm an exact solve
// (and vice versa) — the method is part of the fingerprint seed.
func TestWarmStartMethodMismatch(t *testing.T) {
	m := cancelFork(3)
	unit := []Weights{UnitWeights(), UnitWeights()}
	exact, err := Solve(Request{Model: m, Batch: 8, Levels: unit})
	if err != nil {
		t.Fatal(err)
	}
	before := DPCells()
	if _, err := Solve(Request{Model: m, Batch: 8, Levels: unit, Method: MethodBeam, Warm: exact}); err != nil {
		t.Fatal(err)
	}
	if DPCells() == before {
		t.Error("beam solve reused exact-DP levels: method must invalidate the fingerprint")
	}
}

// TestDPCellsCounts pins the counter's unit on the chain recurrence:
// two cells per layer per level.
func TestDPCellsCounts(t *testing.T) {
	m := cancelChain(6)
	before := DPCells()
	if _, err := Solve(Request{Model: m, Batch: 8, Levels: unitLevels(3)}); err != nil {
		t.Fatal(err)
	}
	if got, want := DPCells()-before, int64(3*2*6); got != want {
		t.Errorf("DPCells delta = %d, want %d (3 levels x 2 choices x 6 layers)", got, want)
	}
}
