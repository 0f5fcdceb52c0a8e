package experiments

import (
	"testing"

	hypar "repro"
	"repro/internal/partition"
	"repro/internal/runner"
)

// TestHeteroShiftsOptimum pins the point of the heterogeneous table: at
// least one mixed per-level assignment produces a HyPar plan whose
// dp/mp choices differ from every homogeneous platform's plan — the
// per-level cost model moves the optimum somewhere no single-platform
// array would go.
func TestHeteroShiftsOptimum(t *testing.T) {
	m, err := hypar.ModelByName("Lenet-c")
	if err != nil {
		t.Fatal(err)
	}
	base := hypar.DefaultConfig()

	homogeneous := make(map[string]*hypar.Plan)
	for _, p := range hypar.Platforms() {
		cfg := base
		cfg.Platform = p
		plan, err := hypar.NewPlan(m, hypar.HyPar, cfg)
		if err != nil {
			t.Fatalf("homogeneous %s: %v", p, err)
		}
		homogeneous[p] = plan
	}

	shifted := false
	for _, spec := range heteroSpecs(base.Levels) {
		cfg := base
		cfg.Platforms = spec
		plan, err := hypar.NewPlan(m, hypar.HyPar, cfg)
		if err != nil {
			t.Fatalf("mixed %s: %v", spec, err)
		}
		differsFromAll := true
		for p, hom := range homogeneous {
			if samePlanAssignments(plan, hom) {
				t.Logf("mixed %s matches homogeneous %s", spec, p)
				differsFromAll = false
			}
		}
		if differsFromAll {
			shifted = true
		}
	}
	if !shifted {
		t.Error("no mixed assignment produced a plan differing from every homogeneous baseline")
	}
}

// TestHeteroTableNeedsDepth pins the precondition: a hierarchy with
// fewer than two levels has no platform seam to mix across.
func TestHeteroTableNeedsDepth(t *testing.T) {
	cfg := hypar.DefaultConfig()
	cfg.Levels = 1
	if _, err := NewSession(cfg).HeteroTable(); err == nil {
		t.Error("HeteroTable accepted a 1-level hierarchy")
	}
}

// TestExploreHyParPointMatchesRun: the sweep point carrying HyPar's own
// bits re-evaluates HyPar's plan, so its gain must equal the gain of
// two hypar.Run calls (DP step over HyPar step) exactly — on a mixed
// per-level platform array, where every level is scored with its own
// platform's weights, as on a uniform one.
func TestExploreHyParPointMatchesRun(t *testing.T) {
	mixed := hypar.DefaultConfig()
	mixed.Platforms = "gpu-hbm,hmc,tpu-systolic,hmc"
	for _, cfg := range []hypar.Config{mixed, hypar.DefaultConfig()} {
		for _, name := range []string{"AlexNet", "Lenet-c", "Cifar-c"} {
			m, err := hypar.ModelByName(name)
			if err != nil {
				t.Fatal(err)
			}
			free := []partition.FreeVar{{Level: 0, Layer: 0}, {Level: 1, Layer: 1}, {Level: 3, Layer: 2}}
			ex, err := NewSessionWithPool(cfg, runner.Serial()).Explore(m, free, nil)
			if err != nil {
				t.Fatalf("%s %q: %v", name, cfg.Platforms, err)
			}
			hp, err := hypar.Run(m, hypar.HyPar, cfg)
			if err != nil {
				t.Fatal(err)
			}
			dp, err := hypar.Run(m, hypar.DataParallel, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if want := dp.Stats.StepSeconds / hp.Stats.StepSeconds; ex.HyPar.Gain != want {
				t.Errorf("%s %q: explore gain at HyPar's point %.6g, Run gives %.6g",
					name, cfg.Platforms, ex.HyPar.Gain, want)
			}
		}
	}
}
