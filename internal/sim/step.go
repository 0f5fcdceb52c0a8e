package sim

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/comm"
	"repro/internal/nn"
	"repro/internal/noc"
	"repro/internal/partition"
	"repro/internal/platform"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// Arch bundles the hardware configuration of one HyPar accelerator
// array: the per-node memory and energy model, the per-node compute
// engine, and the inter-node network. The cost models are the
// platform.Platform interfaces, so the same step builder simulates the
// paper's HMC array, a GPU-HBM array or a TPU-style systolic array —
// only the Arch contents change.
type Arch struct {
	Mem   platform.Memory
	Comp  platform.Compute
	NoC   noc.Topology
	DType tensor.DType

	// LevelMems optionally overrides the energy model per hierarchy
	// level for link accounting: level h's transfers charge
	// LevelMems[h].LinkEnergy instead of Mem's, so a heterogeneous array
	// bills each cut's bytes at that cut's platform. Nil (the
	// single-platform array) charges everything to Mem — the historical
	// accounting, byte for byte. Compute, DRAM and capacity stay on Mem:
	// the node platform owns the accelerators regardless of what fabrics
	// sit above them.
	LevelMems []platform.Memory

	// OverlapGradComm lets gradient partial-sum exchanges proceed
	// concurrently with the remaining backward sweep instead of
	// serializing phase by phase. The paper's simulator executes the
	// phases of each layer in order (the default here); overlapping is
	// provided as an ablation of what a communication-hiding runtime
	// would recover.
	OverlapGradComm bool

	// CollectTrace records every scheduled task into Stats.Trace for
	// Chrome trace export and occupancy analysis.
	CollectTrace bool
}

// DefaultArch returns the paper's evaluation platform: sixteen
// HMC-based accelerators (H = 4) on an H-tree with 1600 Mb/s links.
func DefaultArch(levels int) (Arch, error) {
	p := platform.HMC()
	ht, err := noc.NewHTree(levels, p.DefaultLinkMbps())
	if err != nil {
		return Arch{}, err
	}
	return Arch{Mem: p.Memory(), Comp: p.Compute(), NoC: ht, DType: tensor.Float32}, nil
}

// Validate checks the architecture.
func (a Arch) Validate() error {
	if a.Mem == nil {
		return fmt.Errorf("%w: nil memory model", ErrSim)
	}
	if err := a.Mem.Validate(); err != nil {
		return err
	}
	if a.Comp == nil {
		return fmt.Errorf("%w: nil compute model", ErrSim)
	}
	if err := a.Comp.Validate(); err != nil {
		return err
	}
	if a.NoC == nil {
		return fmt.Errorf("%w: nil topology", ErrSim)
	}
	for h, m := range a.LevelMems {
		if m == nil {
			return fmt.Errorf("%w: nil level-%d memory model", ErrSim, h)
		}
		if err := m.Validate(); err != nil {
			return fmt.Errorf("level %d: %w", h, err)
		}
	}
	return nil
}

// LevelMem returns the energy model billing hierarchy level h's link
// bytes: the per-level override when present, the node memory model
// otherwise.
func (a Arch) LevelMem(h int) platform.Memory {
	if h >= 0 && h < len(a.LevelMems) {
		return a.LevelMems[h]
	}
	return a.Mem
}

// Stats aggregates the outcome of simulating one training step.
type Stats struct {
	// StepSeconds is the makespan of one complete training step.
	StepSeconds float64
	// ComputeSeconds is the accelerator-array busy time (compute+DRAM
	// critical path contribution).
	ComputeSeconds float64
	// CommSeconds[h] is the busy time of hierarchy level h's links.
	CommSeconds []float64

	// Energy breakdown, joules, summed over the whole array.
	EnergyCompute float64
	EnergySRAM    float64
	EnergyDRAM    float64
	EnergyLink    float64

	// CommBytes is the paper's both-direction exchanged-byte total for
	// the step (Figure 8's quantity).
	CommBytes float64
	// DRAMBytes is the array-wide cube-DRAM traffic for the step.
	DRAMBytes float64
	// PeakMemoryBytes is the per-accelerator working set of one
	// training step: local shards of every layer's weights, gradients,
	// input/output activations and errors (activations are retained
	// for the backward pass, so the sets sum across layers).
	PeakMemoryBytes float64
	// FitsMemory reports whether PeakMemoryBytes fits the HMC capacity.
	FitsMemory bool
	// Tasks is the size of the scheduled task graph.
	Tasks int
	// Trace holds every scheduled task when Arch.CollectTrace is set.
	Trace []trace.Record
}

// TotalCommSeconds sums the per-level link busy times.
func (s *Stats) TotalCommSeconds() float64 {
	var t float64
	for _, c := range s.CommSeconds {
		t += c
	}
	return t
}

// EnergyTotal sums the energy breakdown.
func (s *Stats) EnergyTotal() float64 {
	return s.EnergyCompute + s.EnergySRAM + s.EnergyDRAM + s.EnergyLink
}

// Simulate runs one training step of the model under the given
// hierarchical partition plan on the architecture, returning timing,
// energy and communication statistics.
//
// The task graph follows the paper's three phases. Forward: layer
// compute (with DRAM streaming overlapped), then the mp partial-sum
// exchange of F_{l+1} level by level, then the inter-layer F
// conversions, then the next layer. Backward mirrors forward with E
// tensors. Gradient computation for layer l starts as soon as E_{l+1}
// exists and overlaps the remaining backward sweep; dp levels then
// exchange gradient partial sums on the level links (contending with
// backward traffic), followed by the local weight update.
func Simulate(m *nn.Model, plan *partition.Plan, arch Arch) (*Stats, error) {
	eng := enginePool.Get().(*Engine)
	eng.Reset()
	stats, err := simulateOn(eng, m, plan, arch)
	enginePool.Put(eng)
	return stats, err
}

// enginePool recycles engines — task slab, ready heap and builder
// scratch — across Simulate calls, so sweeps and concurrent requests
// stop reallocating them. Nothing a simulation returns points into its
// engine (Stats is fresh and TraceRecords copies), so an engine is
// free for reuse as soon as simulateOn returns.
var enginePool = sync.Pool{New: func() any { return NewEngine() }}

// simulateOn compiles and runs one training step on the given engine.
func simulateOn(eng *Engine, m *nn.Model, plan *partition.Plan, arch Arch) (*Stats, error) {
	if err := arch.Validate(); err != nil {
		return nil, err
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	shapes, err := m.CachedShapes(plan.Batch)
	if err != nil {
		return nil, err
	}
	if len(plan.Levels) > 0 && len(shapes) != len(plan.Levels[0]) {
		return nil, fmt.Errorf("%w: plan is for %d layers, model %q has %d",
			ErrSim, len(plan.Levels[0]), m.Name, len(shapes))
	}
	edges, err := appendModelEdges(eng.scratch.modelEdges[:0], m, len(shapes))
	if err != nil {
		return nil, err
	}
	eng.scratch.modelEdges = edges
	if plan.Model != "" && plan.Model != m.Name {
		return nil, fmt.Errorf("%w: plan was computed for model %q, not %q",
			ErrSim, plan.Model, m.Name)
	}
	levels := plan.NumLevels()
	if arch.NoC.Levels() < levels {
		return nil, fmt.Errorf("%w: topology has %d levels, plan needs %d",
			ErrSim, arch.NoC.Levels(), levels)
	}
	if arch.LevelMems != nil && len(arch.LevelMems) < levels {
		return nil, fmt.Errorf("%w: %d per-level memory models, plan needs %d",
			ErrSim, len(arch.LevelMems), levels)
	}

	b := stepBuilder{
		shapes:      shapes,
		plan:        plan,
		arch:        arch,
		eng:         eng,
		stepScratch: &eng.scratch,
		named:       arch.CollectTrace,
		stats:       &Stats{CommSeconds: make([]float64, levels)},
	}
	if err := b.build(); err != nil {
		return nil, err
	}
	makespan, err := b.eng.Run()
	if err != nil {
		return nil, err
	}
	b.stats.StepSeconds = makespan
	b.stats.ComputeSeconds = b.compute.Busy()
	for h, r := range b.links {
		b.stats.CommSeconds[h] = r.Busy()
	}
	b.stats.CommBytes = plan.TotalBytes(arch.DType)
	b.stats.PeakMemoryBytes = b.workingSet()
	b.stats.FitsMemory = arch.Mem.Fits(b.stats.PeakMemoryBytes)
	b.stats.Tasks = b.eng.NumTasks()
	if arch.CollectTrace {
		b.stats.Trace = b.eng.TraceRecords()
	}
	return b.stats, nil
}

// stepScratch holds the step builder's per-simulation buffers. It
// lives on the Engine, so a reused engine rebuilds a task graph without
// reallocating them; each buffer is resized and cleared before use.
type stepScratch struct {
	// modelEdges is the model's edge list in canonical (Src, Dst)
	// order, filled by simulateOn.
	modelEdges []partition.Edge
	// outEdges/inEdges index the scheduled edge list per layer.
	outEdges [][]int
	inEdges  [][]int
	// leafShard[l] is layer l's shard state below the whole hierarchy.
	leafShard []tensor.Shard
	// convTail/errTail hold each edge's last F/E conversion task.
	convTail []*Task
	errTail  []*Task
	// deps collects one compute task's dependencies.
	deps  []*Task
	links []*Resource // level h's link resource
}

// resized returns s with length n, reusing its backing array when it is
// large enough. Elements are not cleared.
func resized[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// linkNames holds the link resource names of the first hierarchy
// levels, so building a step formats none of them.
var linkNames = func() []string {
	names := make([]string, 16)
	for h := range names {
		names[h] = fmt.Sprintf("link-H%d", h+1)
	}
	return names
}()

// linkName returns hierarchy level h's link resource name.
func linkName(h int) string {
	if h < len(linkNames) {
		return linkNames[h]
	}
	return fmt.Sprintf("link-H%d", h+1)
}

// appendModelEdges appends the model's canonical edge list
// (partition.EdgesOf of its LayerPreds) to dst. A chain of nl layers
// only joins consecutive layers, so its list is written directly
// instead of resolving the predecessor lists first.
func appendModelEdges(dst []partition.Edge, m *nn.Model, nl int) ([]partition.Edge, error) {
	if m.IsGraph() {
		preds, err := m.LayerPreds()
		if err != nil {
			return nil, err
		}
		return partition.AppendEdges(dst, preds), nil
	}
	for l := 1; l < nl; l++ {
		dst = append(dst, partition.Edge{Src: l - 1, Dst: l})
	}
	return dst, nil
}

// stepBuilder compiles the step's task graph and accrues energy.
type stepBuilder struct {
	shapes []nn.LayerShapes
	plan   *partition.Plan
	arch   Arch
	eng    *Engine
	named  bool // format task names (only needed for trace export)
	stats  *Stats

	*stepScratch // eng's reusable buffers

	compute *Resource

	// edges is the layer-to-layer edge list in the order the plan's
	// per-edge volumes are indexed by: the plan's own Edges, or the
	// model's canonical order when the plan records none.
	edges []partition.Edge
}

// accs returns the accelerator count 2^H.
func (b *stepBuilder) accs() float64 {
	return float64(int64(1) << uint(b.plan.NumLevels()))
}

// build constructs resources and the full task graph.
func (b *stepBuilder) build() error {
	levels := b.plan.NumLevels()
	b.compute = b.eng.AddResource("array-compute")
	b.links = b.links[:0]
	for h := 0; h < levels; h++ {
		b.links = append(b.links, b.eng.AddResource(linkName(h)))
	}

	nl := len(b.shapes)
	// The plan's per-edge conversion volumes are indexed parallel to
	// its own Edges, so schedule from that order when recorded; plans
	// without one (hand-built zero-level plans) use the canonical order
	// derived from the model.
	b.edges = b.plan.Edges
	if b.edges == nil {
		b.edges = b.modelEdges
	} else if !slices.Equal(b.edges, b.modelEdges) {
		// The recorded edge set must be exactly the model's (any order):
		// per-edge volumes attached to wiring the model does not have
		// would silently charge conversions on the wrong edges.
		if err := b.checkEdgeSet(); err != nil {
			return err
		}
	}
	b.outEdges = resized(b.outEdges, nl)
	b.inEdges = resized(b.inEdges, nl)
	for l := 0; l < nl; l++ {
		b.outEdges[l] = b.outEdges[l][:0]
		b.inEdges[l] = b.inEdges[l][:0]
	}
	for e, ed := range b.edges {
		if ed.Src < 0 || ed.Src >= nl || ed.Dst <= ed.Src || ed.Dst >= nl {
			return fmt.Errorf("%w: plan edge %v out of range for %d layers", ErrSim, ed, nl)
		}
		b.outEdges[ed.Src] = append(b.outEdges[ed.Src], e)
		b.inEdges[ed.Dst] = append(b.inEdges[ed.Dst], e)
	}

	b.leafShard = resized(b.leafShard, nl)
	for l := 0; l < nl; l++ {
		var sh tensor.Shard
		for h := 0; h < levels; h++ {
			sh = sh.Apply(b.plan.At(h, l) == comm.DP)
		}
		b.leafShard[l] = sh
	}

	fwdDone, err := b.buildForward()
	if err != nil {
		return err
	}
	return b.buildBackwardGradient(fwdDone)
}

// checkEdgeSet refuses a recorded edge list that is not a permutation
// of the model's edges.
func (b *stepBuilder) checkEdgeSet() error {
	want := b.modelEdges
	if len(b.edges) != len(want) {
		return fmt.Errorf("%w: plan records %d edges, model has %d",
			ErrSim, len(b.edges), len(want))
	}
	set := make(map[partition.Edge]bool, len(want))
	for _, ed := range want {
		set[ed] = true
	}
	for _, ed := range b.edges {
		if !set[ed] {
			return fmt.Errorf("%w: plan edge %v is not an edge of model %q", ErrSim, ed, b.plan.Model)
		}
		delete(set, ed)
	}
	return nil
}

// workingSet returns the per-accelerator bytes resident during one
// training step: weight and gradient shards plus the retained
// activations and errors of every layer.
func (b *stepBuilder) workingSet() float64 {
	es := float64(b.arch.DType.Size())
	var total float64
	for l, s := range b.shapes {
		sh := b.leafShard[l]
		w := sh.KernelElems(s.Kernel)
		in := sh.InputElems(s.In)
		out := sh.OutputElems(s.Out)
		// W + ∆W + F_l + F_{l+1} + E_{l+1} (E_l aliases the previous
		// layer's E_{l+1}).
		total += (2*w + in + 2*out) * es
	}
	return total
}

// taskName formats "prefix/layer" when names are collected and returns
// the empty string otherwise, keeping fmt off the hot path.
func (b *stepBuilder) taskName(prefix string, l int) string {
	if !b.named {
		return ""
	}
	return prefix + "/" + b.shapes[l].Layer.Name
}

// edgeTaskName formats "prefix/src->dst" for per-edge transfers, so a
// fork's parallel conversion chains stay distinguishable in traces.
func (b *stepBuilder) edgeTaskName(prefix string, e int) string {
	if !b.named {
		return ""
	}
	ed := b.edges[e]
	return prefix + "/" + b.shapes[ed.Src].Layer.Name + "->" + b.shapes[ed.Dst].Layer.Name
}

// phaseTask adds one compute+DRAM task for a phase of a layer and
// charges its energy.
func (b *stepBuilder) phaseTask(name string, l int, p nn.Phase, deps ...*Task) (*Task, error) {
	s := b.shapes[l]
	sh := b.leafShard[l]
	n := b.accs()

	perAccMACs := float64(s.MACs(p)) / n
	computeT := b.arch.Comp.ComputeTime(perAccMACs, s)

	opBytes, resBytes := b.phaseBytes(l, p)
	traffic := b.arch.Comp.DRAMTraffic(s, opBytes, resBytes)
	dramT := b.arch.Mem.DRAMTime(traffic)

	dur := computeT
	if dramT > dur {
		dur = dramT
	}

	// Energy, array-wide.
	b.stats.EnergyCompute += b.arch.Mem.MACEnergy(perAccMACs * n)
	b.stats.EnergySRAM += b.arch.Mem.SRAMEnergy(2 * perAccMACs * n)
	b.stats.EnergyDRAM += b.arch.Mem.DRAMEnergy(traffic * n)
	b.stats.DRAMBytes += traffic * n
	if p == nn.Forward {
		// Activation and pooling, local element-wise work.
		aux := float64(s.ActOps()+s.PoolOps()) / n
		b.stats.EnergyCompute += b.arch.Mem.AddEnergy(aux * n)
	}
	if p == nn.Gradient {
		// Weight update: one multiply-add per local weight shard.
		upd := sh.KernelElems(s.Kernel)
		b.stats.EnergyCompute += b.arch.Mem.AddEnergy(upd * n)
	}
	return b.eng.AddTask(name, dur, b.compute, deps...)
}

// phaseBytes returns the per-accelerator operand and result bytes of a
// phase under the leaf shard state.
func (b *stepBuilder) phaseBytes(l int, p nn.Phase) (op, res float64) {
	s := b.shapes[l]
	sh := b.leafShard[l]
	es := float64(b.arch.DType.Size())
	in := sh.InputElems(s.In) * es
	out := sh.OutputElems(s.Out) * es
	w := sh.KernelElems(s.Kernel) * es
	switch p {
	case nn.Forward:
		return in + w, out
	case nn.Backward:
		return out + w, in
	default: // Gradient
		return in + out, w
	}
}

// transferChain appends one NoC transfer task per hierarchy level with
// non-zero volume, chained after prev, charging link energy. Volumes
// are one-direction per-pair element counts; the exchange a link
// carries is both directions (the paper's 2× counting), and all pairs
// of a level move concurrently on that level's link resource.
func (b *stepBuilder) transferChain(name string, vols func(h int) float64, prev *Task) (*Task, error) {
	es := float64(b.arch.DType.Size())
	for h := 0; h < b.plan.NumLevels(); h++ {
		elems := vols(h)
		if elems <= 0 {
			continue
		}
		bytes := 2 * elems * es
		dur, err := b.arch.NoC.TransferTime(h, bytes)
		if err != nil {
			return nil, err
		}
		linkBytes, err := b.arch.NoC.LinkBytes(h, bytes)
		if err != nil {
			return nil, err
		}
		b.stats.EnergyLink += b.arch.LevelMem(h).LinkEnergy(linkBytes)
		id := ""
		if b.named {
			id = fmt.Sprintf("%s@H%d", name, h+1)
		}
		t, err := b.eng.AddTask(id, dur, b.links[h], prev)
		if err != nil {
			return nil, err
		}
		prev = t
	}
	return prev, nil
}

// dedupeDeps drops nil and repeated tasks in place, preserving order,
// and returns the shortened slice.
func dedupeDeps(deps []*Task) []*Task {
	out := deps[:0]
	for _, d := range deps {
		if d == nil || slices.Contains(out, d) {
			continue
		}
		out = append(out, d)
	}
	return out
}

// buildForward builds the forward sweep in topological (declaration)
// order and returns its final task. Each layer's compute waits for the
// F conversions of every incoming edge; a fork's duplicated feature map
// yields one conversion chain per outgoing edge, all branching off the
// producer's partial-sum exchange. For a chain this reproduces the
// historical linear sweep task for task.
func (b *stepBuilder) buildForward() (*Task, error) {
	b.convTail = resized(b.convTail, len(b.edges))
	convTail := b.convTail
	clear(convTail)
	var last *Task
	for l := range b.shapes {
		deps := b.deps[:0]
		for _, e := range b.inEdges[l] {
			deps = append(deps, convTail[e])
		}
		b.deps = deps
		ct, err := b.phaseTask(b.taskName("fwd", l), l, nn.Forward, dedupeDeps(deps)...)
		if err != nil {
			return nil, err
		}
		// mp partial-sum exchange of F_{l+1}, level by level.
		t, err := b.transferChain(b.taskName("fwd-psum", l),
			func(h int) float64 { return b.plan.Details[h].IntraFwd[l] }, ct)
		if err != nil {
			return nil, err
		}
		// Inter-layer F conversion along every outgoing edge.
		for _, e := range b.outEdges[l] {
			e := e
			et, err := b.transferChain(b.edgeTaskName("fwd-conv", e),
				func(h int) float64 { return b.plan.Details[h].InterF[e] }, t)
			if err != nil {
				return nil, err
			}
			convTail[e] = et
		}
		if len(b.outEdges[l]) == 0 {
			// The sink: its post-exchange output feeds the loss.
			last = t
		}
	}
	return last, nil
}

// buildBackwardGradient builds the backward sweep in reverse
// topological order. A layer's output error is ready once every
// consumer has run its backward compute and pushed the E conversion of
// the connecting edge — a fork's skip tensor therefore joins error
// contributions from every consumer edge before the producer's
// gradient and backward phases run. In the default phase-serial
// schedule each layer runs gradient compute, gradient exchange,
// backward compute and E conversions in order before the next layer
// starts — matching the paper's per-layer execution. With
// OverlapGradComm, gradient work branches off the sweep and contends
// only for the compute and link resources. For a chain this reproduces
// the historical linear sweep task for task.
func (b *stepBuilder) buildBackwardGradient(fwdDone *Task) error {
	nl := len(b.shapes)
	b.errTail = resized(b.errTail, len(b.edges))
	errTail := b.errTail
	clear(errTail)
	prev := fwdDone // the sink's E comes out of the loss right after forward
	for l := nl - 1; l >= 0; l-- {
		// The layer's output error: the loss for the sink, otherwise the
		// E conversions of every outgoing edge.
		deps := append(b.deps[:0], prev)
		for _, e := range b.outEdges[l] {
			deps = append(deps, errTail[e])
		}
		b.deps = deps
		errDeps := dedupeDeps(deps)

		// Gradient for layer l consumes the layer's output error.
		gt, err := b.phaseTask(b.taskName("grad", l), l, nn.Gradient, errDeps...)
		if err != nil {
			return err
		}
		// dp gradient partial-sum exchange (allreduce), level by level.
		gTail, err := b.transferChain(b.taskName("grad-psum", l),
			func(h int) float64 { return b.plan.Details[h].IntraGrad[l] }, gt)
		if err != nil {
			return err
		}
		if !b.arch.OverlapGradComm {
			prev = gTail
		}
		if len(b.inEdges[l]) == 0 {
			// Only the model input feeds this layer: its input error is
			// never consumed, so there is no backward compute.
			continue
		}
		// The backward deps [prev, errDeps...] go into the same buffer,
		// right after errDeps.
		deps = append(errDeps, prev)
		deps = append(deps, errDeps...)
		b.deps = deps
		bdeps := dedupeDeps(deps[len(errDeps):])
		ct, err := b.phaseTask(b.taskName("bwd", l), l, nn.Backward, bdeps...)
		if err != nil {
			return err
		}
		// Inter-layer E conversion along every incoming edge.
		t := ct
		for _, e := range b.inEdges[l] {
			e := e
			t, err = b.transferChain(b.edgeTaskName("bwd-conv", e),
				func(h int) float64 { return b.plan.Details[h].InterE[e] }, t)
			if err != nil {
				return err
			}
			errTail[e] = t
		}
		prev = t
	}
	return nil
}
