package partition

import (
	"fmt"
	"math"

	"repro/internal/comm"
)

// Weights scales the three communication classes of the training cost
// model, letting an accelerator platform express how expensive each
// class of exchange is relative to raw element counts. The paper's
// HMC + H-tree platform weighs every class identically (UnitWeights);
// other backends charge less for exchanges their fabric or dataflow
// performs natively — a bandwidth-optimal ring allreduce halves the
// per-link gradient volume, an in-array systolic reduction halves the
// partial-sum volume. The weighted amounts are what the dynamic program
// minimizes and what the plan records as its transfer volumes, so the
// DP objective and the simulated schedule stay consistent.
type Weights struct {
	// Grad scales the dp gradient allreduce of ∆W_l (Table 1, dp row).
	Grad float64
	// Psum scales the mp output partial-sum aggregation of F_{l+1}
	// (Table 1, mp row).
	Psum float64
	// Convert scales the Table 2 inter-layer conversions (F and E
	// boundary tensors between differently partitioned layers).
	Convert float64
}

// UnitWeights is the paper's cost model: every class at weight 1.
func UnitWeights() Weights { return Weights{Grad: 1, Psum: 1, Convert: 1} }

// Validate checks that every weight is positive and finite.
func (w Weights) Validate() error {
	for _, v := range []float64{w.Grad, w.Psum, w.Convert} {
		if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: cost weight %g", ErrPlan, v)
		}
	}
	return nil
}

// costs builds the Algorithm 1 cost functions scaled by the weights.
func (w Weights) costs() costs {
	return costs{
		intra: func(p comm.Parallelism, a comm.LayerAmounts) float64 {
			switch p {
			case comm.DP:
				return w.Grad * a.DW
			case comm.MP:
				return w.Psum * a.FOut
			default:
				return 0
			}
		},
		interF: func(prev, cur comm.Parallelism, a comm.LayerAmounts) float64 {
			return w.Convert * comm.InterF(prev, cur, a)
		},
		interE: func(prev, cur comm.Parallelism, a comm.LayerAmounts) float64 {
			return w.Convert * comm.InterE(prev, cur, a)
		},
	}
}

// TwoWayWeighted is TwoWay under platform cost weights: the same O(L)
// dynamic program minimizing the weighted objective.
func TwoWayWeighted(amounts []comm.LayerAmounts, w Weights) (float64, Assignment) {
	return twoWayWith(amounts, w.costs())
}

// AssignmentCostWeighted evaluates the weighted Algorithm 1 objective
// for a fixed assignment (the exhaustive reference the per-platform
// conformance oracle compares TwoWayWeighted against).
func AssignmentCostWeighted(amounts []comm.LayerAmounts, a Assignment, w Weights) float64 {
	c := w.costs()
	var total float64
	for i := range amounts {
		total += c.intra(a[i], amounts[i])
		if i > 0 {
			total += c.interF(a[i-1], a[i], amounts[i-1]) + c.interE(a[i-1], a[i], amounts[i-1])
		}
	}
	return total
}

// levelCosts compiles a per-level weights vector to the per-level cost
// models of the objective the search internals consume, validating
// every entry. A level repeating the previous level's weights shares
// its cost model, so a uniform array compiles one.
func levelCosts(ws []Weights, o Objective) ([]costs, error) {
	cs := make([]costs, len(ws))
	for h, w := range ws {
		if err := w.Validate(); err != nil {
			return nil, fmt.Errorf("level %d: %w", h, err)
		}
		if h > 0 && w == ws[h-1] {
			cs[h] = cs[h-1]
			continue
		}
		cs[h] = w.objectiveCosts(o)
	}
	return cs, nil
}
