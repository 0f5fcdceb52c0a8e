package partition

import (
	"repro/internal/comm"
	"repro/internal/nn"
)

// DataParallel returns the default Data Parallelism baseline: every
// layer at every hierarchy level in data parallelism, with level h's
// volumes recorded under ws[h] (hierarchy depth len(ws)).
func DataParallel(m *nn.Model, batch int, ws []Weights) (*Plan, error) {
	return uniformPlan(m, batch, ws, func(*nn.Layer) comm.Parallelism { return comm.DP })
}

// ModelParallel returns the default Model Parallelism baseline: every
// layer at every hierarchy level in model parallelism, with level h's
// volumes recorded under ws[h] (hierarchy depth len(ws)).
func ModelParallel(m *nn.Model, batch int, ws []Weights) (*Plan, error) {
	return uniformPlan(m, batch, ws, func(*nn.Layer) comm.Parallelism { return comm.MP })
}

// OneWeirdTrick returns Krizhevsky's empirical configuration [111]:
// convolutional layers in data parallelism and fully-connected layers
// in model parallelism, at every hierarchy level, with level h's
// volumes recorded under ws[h] (hierarchy depth len(ws)).
func OneWeirdTrick(m *nn.Model, batch int, ws []Weights) (*Plan, error) {
	return uniformPlan(m, batch, ws, func(l *nn.Layer) comm.Parallelism {
		if l.Type == nn.FC {
			return comm.MP
		}
		return comm.DP
	})
}

// uniformPlan evaluates the plan that gives every hierarchy level the
// same per-layer choice.
func uniformPlan(m *nn.Model, batch int, ws []Weights, choose func(*nn.Layer) comm.Parallelism) (*Plan, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	a := make(Assignment, len(m.Layers))
	for l := range m.Layers {
		a[l] = choose(&m.Layers[l])
	}
	assigns := make([]Assignment, len(ws))
	for h := range assigns {
		assigns[h] = a // Evaluate copies every level
	}
	return Evaluate(m, batch, assigns, ws)
}
