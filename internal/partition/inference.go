package partition

import "repro/internal/comm"

// costs abstracts the objective of the layer-wise dynamic program so
// the same search runs for training (Tables 1-2) and inference.
type costs struct {
	intra  func(p comm.Parallelism, a comm.LayerAmounts) float64
	interF func(prev, cur comm.Parallelism, a comm.LayerAmounts) float64
	interE func(prev, cur comm.Parallelism, a comm.LayerAmounts) float64
}

// trainingCosts is the paper's full model.
var trainingCosts = costs{
	intra:  comm.Intra,
	interF: comm.InterF,
	interE: comm.InterE,
}

// objectiveCosts compiles the weights into the cost model of the given
// objective. Training is the paper's full model (Tables 1-2).
// Inference drops everything gradients and errors cause: dp incurs no
// intra-layer exchange (there is no ∆W), and no E tensors flow
// backward. Only mp's output partial sums and the forward F conversions
// remain — which is why §3.3 observes that inference always optimizes
// to pure Data Parallelism (both of its cost sources are zero).
func (w Weights) objectiveCosts(o Objective) costs {
	if o == ObjectiveInference {
		return costs{
			intra: func(p comm.Parallelism, a comm.LayerAmounts) float64 {
				if p == comm.MP {
					return w.Psum * a.FOut
				}
				return 0
			},
			interF: func(prev, cur comm.Parallelism, a comm.LayerAmounts) float64 {
				return w.Convert * comm.InterF(prev, cur, a)
			},
			interE: func(prev, cur comm.Parallelism, a comm.LayerAmounts) float64 { return 0 },
		}
	}
	return w.costs()
}
