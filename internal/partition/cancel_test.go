package partition

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/nn"
	"repro/internal/runner"
)

// cancelChain builds an n-layer conv chain whose shapes stay constant,
// so brute-force enumeration cost scales only with the code space.
func cancelChain(n int) *nn.Model {
	m := &nn.Model{Name: fmt.Sprintf("cancel-chain-%d", n), Input: nn.Input{H: 4, W: 4, C: 2}}
	for i := 0; i < n; i++ {
		m.Layers = append(m.Layers, nn.Layer{
			Name: fmt.Sprintf("c%d", i), Type: nn.Conv, K: 3, Pad: 1, Cout: 2, Act: nn.ReLU,
		})
	}
	return m
}

// cancelFork builds a DAG with branches parallel paths between one
// producer and one join — frontier width grows with branches, and the
// non-chain shape forces the frontier DP (with its per-layer ctx
// checks).
func cancelFork(branches int) *nn.Model {
	m := &nn.Model{Name: fmt.Sprintf("cancel-fork-%d", branches), Input: nn.Input{H: 4, W: 4, C: 2}}
	m.Layers = append(m.Layers, nn.Layer{Name: "a", Type: nn.Conv, K: 3, Pad: 1, Cout: 2, Act: nn.ReLU})
	var ins []string
	for i := 0; i < branches; i++ {
		name := fmt.Sprintf("b%d", i)
		m.Layers = append(m.Layers, nn.Layer{
			Name: name, Type: nn.Conv, K: 3, Pad: 1, Cout: 2, Act: nn.ReLU, Inputs: []string{"a"},
		})
		ins = append(ins, name)
	}
	m.Layers = append(m.Layers, nn.Layer{Name: "join", Type: nn.FC, Cout: 4, Inputs: ins})
	return m
}

// canceledCtx returns an already-canceled context.
func canceledCtx() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

// unitSolve is a Request at unit weights over levels hierarchy levels.
func unitSolve(m *nn.Model, batch, levels int) Request {
	return Request{Model: m, Batch: batch, Levels: unitLevels(levels)}
}

func TestPreCanceledContextRefusesWork(t *testing.T) {
	ctx := canceledCtx()
	pool := runner.Serial()
	chain := cancelChain(6)
	fork := cancelFork(3)

	brute := unitSolve(chain, 2, 2)
	brute.Ctx, brute.Pool, brute.Method = ctx, pool, MethodBrute
	if _, err := Solve(brute); !errors.Is(err, context.Canceled) {
		t.Errorf("brute-force Solve = %v, want context.Canceled", err)
	}
	hier := unitSolve(fork, 2, 2)
	hier.Ctx = ctx
	if _, err := Solve(hier); !errors.Is(err, context.Canceled) {
		t.Errorf("hierarchical Solve = %v, want context.Canceled", err)
	}
	base := []Assignment{Uniform(len(chain.Layers), comm.DP)}
	free := []FreeVar{{Level: 0, Layer: 0}, {Level: 0, Layer: 1}}
	if _, err := Explore(ctx, pool, chain, 2, base, free, unitLevels(1)); !errors.Is(err, context.Canceled) {
		t.Errorf("Explore = %v, want context.Canceled", err)
	}

	// The frontier DP checks ctx per layer step on its own, not only
	// between hierarchy levels.
	amounts, preds := oracleAmounts(t, fork, 2)
	if _, _, err := twoWayGraphWith(ctx, amounts, preds, trainingCosts); !errors.Is(err, context.Canceled) {
		t.Errorf("graph DP = %v, want context.Canceled", err)
	}
}

// TestBruteForceCancelMidSearch cancels a 2^24-assignment enumeration
// shortly after it starts and requires a prompt typed return — the
// deadline/resilience contract the service relies on. Uncanceled, this
// search would run for minutes.
func TestBruteForceCancelMidSearch(t *testing.T) {
	m := cancelChain(12) // 12 layers x 2 levels = 24 bits
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	req := unitSolve(m, 2, 2)
	req.Ctx, req.Pool, req.Method = ctx, runner.Default(), MethodBrute
	t0 := time.Now()
	_, err := Solve(req)
	elapsed := time.Since(t0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("brute-force Solve = %v, want context.Canceled", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v, want well under 5s", elapsed)
	}
}

// TestExploreCancelMidSweep cancels a 2^20-point sweep mid-flight.
func TestExploreCancelMidSweep(t *testing.T) {
	m := cancelChain(20)
	base := []Assignment{Uniform(len(m.Layers), comm.DP)}
	free := make([]FreeVar, 20)
	for i := range free {
		free[i] = FreeVar{Level: 0, Layer: i}
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	t0 := time.Now()
	_, err := Explore(ctx, runner.Default(), m, 2, base, free, unitLevels(1))
	elapsed := time.Since(t0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Explore = %v, want context.Canceled", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v, want well under 5s", elapsed)
	}
}

// TestFrontierCap: the exact graph DP plans frontiers up to
// maxGraphFrontier open layers and refuses wider ones with ErrTooWide
// (wrapping ErrPlan). The cap guards only that DP: the beam search and
// the fixed-assignment evaluator accept any width.
func TestFrontierCap(t *testing.T) {
	if _, err := Solve(unitSolve(cancelFork(maxGraphFrontier), 2, 1)); err != nil {
		t.Fatalf("exact Solve at the cap: %v", err)
	}
	wide := cancelFork(maxGraphFrontier + 2)
	_, err := Solve(unitSolve(wide, 2, 1))
	if !errors.Is(err, ErrTooWide) {
		t.Fatalf("exact Solve past the cap = %v, want ErrTooWide", err)
	}
	if !errors.Is(err, ErrPlan) {
		t.Fatalf("ErrTooWide must wrap ErrPlan; got %v", err)
	}
	amounts, preds := oracleAmounts(t, wide, 2)
	if _, _, err := TwoWayGraph(amounts, preds); !errors.Is(err, ErrTooWide) {
		t.Fatalf("TwoWayGraph past the cap = %v, want ErrTooWide", err)
	}

	beam := unitSolve(wide, 2, 2)
	beam.Method = MethodBeam
	plan, err := Solve(beam)
	if err != nil {
		t.Fatalf("beam Solve past the cap: %v", err)
	}
	if _, err := Evaluate(wide, 2, plan.Levels, unitLevels(2)); err != nil {
		t.Fatalf("Evaluate past the cap: %v", err)
	}
	if _, err := DataParallel(wide, 2, unitLevels(2)); err != nil {
		t.Fatalf("DataParallel past the cap: %v", err)
	}
	free := []FreeVar{{Level: 0, Layer: 0}, {Level: 1, Layer: 3}}
	if _, err := Explore(nil, nil, wide, 2, plan.Levels, free, unitLevels(2)); err != nil {
		t.Fatalf("Explore past the cap: %v", err)
	}
}
