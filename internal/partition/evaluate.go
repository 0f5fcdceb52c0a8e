package partition

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/comm"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Evaluate computes the communication volumes of an arbitrary
// hierarchical assignment (one Assignment per level), level h scored
// under ws[h]; len(ws) must equal len(levels). It is the reference
// evaluator behind the baselines and the Figure 9/10 space exploration;
// Solve's own totals agree with it (tested).
func Evaluate(m *nn.Model, batch int, levels []Assignment, ws []Weights) (*Plan, error) {
	cs, err := levelCosts(ws, ObjectiveTraining)
	if err != nil {
		return nil, err
	}
	shapes, preds, err := prepare(m, batch, len(levels))
	if err != nil {
		return nil, err
	}
	return evaluateShapes(m, batch, levels, shapes, EdgesOf(preds), cs)
}

// evaluateShapes is Evaluate with shape inference, edge resolution and
// cost compilation already done, so the enumeration hot paths (brute
// force, exploration) share one inference and one edge list across
// every plan they score; edges is shared read-only (every plan aliases
// it).
func evaluateShapes(m *nn.Model, batch int, levels []Assignment, shapes []nn.LayerShapes, edges []Edge, cs []costs) (*Plan, error) {
	if len(cs) != len(levels) {
		return nil, fmt.Errorf("%w: %d per-level cost models for %d levels", ErrPlan, len(cs), len(levels))
	}
	for h, a := range levels {
		if len(a) != len(shapes) {
			return nil, fmt.Errorf("%w: level %d has %d choices, model %q has %d layers",
				ErrPlan, h, len(a), m.Name, len(shapes))
		}
	}
	plan := &Plan{Model: m.Name, Batch: batch, Levels: make([]Assignment, len(levels)), Edges: edges}
	for h := range levels {
		plan.Levels[h] = levels[h].Clone()
	}
	fillDetailsLevelsWith(plan, shapes, cs)
	return plan, nil
}

// prepare checks the hierarchy depth, runs (memoized) shape inference,
// and resolves the layer graph. The frontier width is not checked here:
// only the exact graph DP is exponential in it (see twoWayGraphWith).
func prepare(m *nn.Model, batch, levels int) ([]nn.LayerShapes, [][]int, error) {
	if levels > 20 {
		return nil, nil, fmt.Errorf("%w: hierarchy depth %d (2^%d accelerators) is unreasonable",
			ErrPlan, levels, levels)
	}
	shapes, err := m.CachedShapes(batch)
	if err != nil {
		return nil, nil, err
	}
	preds, err := m.LayerPreds()
	if err != nil {
		return nil, nil, err
	}
	return shapes, preds, nil
}

// EdgesOf derives the layer-to-layer edge list from resolved
// predecessors, in canonical (Src, then Dst) order. Model-input
// references (-1) carry no partition cost and are dropped.
func EdgesOf(preds [][]int) []Edge { return AppendEdges(nil, preds) }

// AppendEdges appends EdgesOf(preds) to dst and returns the extended
// slice, so a caller that derives the list per call (the simulator's
// step builder) can reuse one buffer.
func AppendEdges(dst []Edge, preds [][]int) []Edge {
	n := len(dst)
	for v, ps := range preds {
		for _, u := range ps {
			if u >= 0 {
				dst = append(dst, Edge{Src: u, Dst: v})
			}
		}
	}
	slices.SortFunc(dst[n:], func(a, b Edge) int {
		return cmp.Or(cmp.Compare(a.Src, b.Src), cmp.Compare(a.Dst, b.Dst))
	})
	return dst
}

// amountsAt derives the per-pair amounts of every layer under the given
// shard states.
func amountsAt(shapes []nn.LayerShapes, shards []tensor.Shard) []comm.LayerAmounts {
	amounts := make([]comm.LayerAmounts, len(shapes))
	for l := range shapes {
		amounts[l] = comm.Amounts(shapes[l], shards[l])
	}
	return amounts
}

// fillDetailsLevelsWith populates plan.Details and plan.TotalElems from
// the plan's level assignments, scoring level h under cs[h] and
// threading shard state down the hierarchy. Inter-layer conversions are
// charged per edge (plan.Edges) on the producer's boundary tensors, so
// a forked feature map pays one conversion per disagreeing consumer.
func fillDetailsLevelsWith(plan *Plan, shapes []nn.LayerShapes, cs []costs) {
	nl := len(shapes)
	shards := make([]tensor.Shard, nl)
	plan.Details = make([]LevelDetail, len(plan.Levels))
	plan.TotalElems = 0

	for h, assign := range plan.Levels {
		c := cs[h]
		amounts := amountsAt(shapes, shards)
		d := LevelDetail{
			IntraFwd:  make([]float64, nl),
			IntraGrad: make([]float64, nl),
			InterF:    make([]float64, len(plan.Edges)),
			InterE:    make([]float64, len(plan.Edges)),
		}
		for l := 0; l < nl; l++ {
			switch assign[l] {
			case comm.MP:
				d.IntraFwd[l] = c.intra(comm.MP, amounts[l])
			default:
				d.IntraGrad[l] = c.intra(comm.DP, amounts[l])
			}
		}
		for e, ed := range plan.Edges {
			d.InterF[e] = c.interF(assign[ed.Src], assign[ed.Dst], amounts[ed.Src])
			d.InterE[e] = c.interE(assign[ed.Src], assign[ed.Dst], amounts[ed.Src])
		}
		plan.Details[h] = d
		pairs := float64(int64(1) << uint(h))
		plan.TotalElems += pairs * plan.PerPairElems(h)

		for l := range shards {
			shards[l] = shards[l].Apply(assign[l] == comm.DP)
		}
	}
}
