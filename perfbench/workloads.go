package main

import (
	"math"
	"strconv"

	hypar "repro"
	"repro/internal/nn"
	"repro/internal/partition"
)

// baseConfig mirrors hypard's default flags (-batch 256 -levels 4
// -platform hmc): request configs are partial overrides of it.
var baseConfig = hypar.Config{Batch: 256, Levels: 4, Platform: "hmc"}

// maxIndex bounds request indices: cold workloads spend the index on a
// unique link-bandwidth fraction (index/1e8), which stays unique below
// it — whole Mb/s stay under 1e6, so whole+fraction stays exact in a
// float64. The closed loop stops issuing there, far beyond any run's
// count.
const maxIndex = 100_000_000

// chainZoo is the paper's ten chain networks, in zoo order.
var chainZoo = []string{"SFC", "SCONV", "Lenet-c", "Cifar-c", "AlexNet", "VGG-A", "VGG-B", "VGG-C", "VGG-D", "VGG-E"}

// strategies in wire spelling, index-aligned with strategyValues.
var (
	strategyNames  = []string{"hypar", "dp", "mp", "trick"}
	strategyValues = []hypar.Strategy{hypar.HyPar, hypar.DataParallel, hypar.ModelParallel, hypar.OneWeirdTrick}
)

// platformNames and their native link rates (Mb/s), which seed each
// cold request's link bandwidth.
var (
	platformNames = []string{"hmc", "gpu-hbm", "tpu-systolic"}
	platformLinks = []float64{1600, 200000, 496000}
)

// override is the "config" object of a request body: a partial override
// of baseConfig. Zero fields are omitted from the body.
type override struct {
	batch        int
	levels       int
	platform     string
	platforms    []string // per-level assignment, root first
	linkMbps     float64
	searchMethod string
	beamWidth    int
}

// apply overlays the override onto the base config, the way the service
// decodes a request's config object onto its operator base.
func (o override) apply(c hypar.Config) hypar.Config {
	if o.batch != 0 {
		c.Batch = o.batch
	}
	if o.levels != 0 {
		c.Levels = o.levels
	}
	if o.platform != "" {
		c.Platform = o.platform
	}
	if len(o.platforms) > 0 {
		spec := ""
		for i, p := range o.platforms {
			if i > 0 {
				spec += ","
			}
			spec += p
		}
		c.Platforms = hypar.PlatformSpec(spec)
	}
	if o.linkMbps != 0 {
		c.LinkMbps = o.linkMbps
	}
	if o.searchMethod != "" {
		c.SearchMethod = o.searchMethod
	}
	if o.beamWidth != 0 {
		c.BeamWidth = o.beamWidth
	}
	return c
}

// empty reports whether the override sets nothing.
func (o override) empty() bool {
	return o.batch == 0 && o.levels == 0 && o.platform == "" && len(o.platforms) == 0 &&
		o.linkMbps == 0 && o.searchMethod == "" && o.beamWidth == 0
}

// appendJSON renders the override as a JSON object.
func (o override) appendJSON(b []byte) []byte {
	b = append(b, '{')
	sep := func() {
		if b[len(b)-1] != '{' {
			b = append(b, ',')
		}
	}
	if o.batch != 0 {
		sep()
		b = append(b, `"batch":`...)
		b = strconv.AppendInt(b, int64(o.batch), 10)
	}
	if o.levels != 0 {
		sep()
		b = append(b, `"levels":`...)
		b = strconv.AppendInt(b, int64(o.levels), 10)
	}
	if o.platform != "" {
		sep()
		b = append(b, `"platform":`...)
		b = strconv.AppendQuote(b, o.platform)
	}
	if len(o.platforms) > 0 {
		sep()
		b = append(b, `"platforms":{`...)
		for i, p := range o.platforms {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, '"')
			b = strconv.AppendInt(b, int64(i), 10)
			b = append(b, `":`...)
			b = strconv.AppendQuote(b, p)
		}
		b = append(b, '}')
	}
	if o.linkMbps != 0 {
		sep()
		b = append(b, `"linkMbps":`...)
		b = strconv.AppendFloat(b, o.linkMbps, 'f', -1, 64)
	}
	if o.searchMethod != "" {
		sep()
		b = append(b, `"searchMethod":`...)
		b = strconv.AppendQuote(b, o.searchMethod)
	}
	if o.beamWidth != 0 {
		sep()
		b = append(b, `"beamWidth":`...)
		b = strconv.AppendInt(b, int64(o.beamWidth), 10)
	}
	return append(b, '}')
}

// request is one generated input: everything needed to render its body
// and, independently of the body, to re-derive its answer.
type request struct {
	n        int    // index in the workload's sequence
	endpoint string // "evaluate", "plan" or "explore"
	zoo      string // zoo name, or "" for an inline model
	model    *hypar.Model
	strategy int // index into strategyNames; -1 = none in the body
	ovr      override
	free     []partition.FreeVar // explore only
	canon    int                 // repeat_zipf: index into the distinct set, else -1
	respell  bool                // repeat_zipf: a fresh re-spelling of canon
}

// path returns the request's URL path (a constant: no per-request
// allocation on the benchmark's side).
func (r *request) path() string {
	switch r.endpoint {
	case "plan":
		return "/v1/plan"
	case "explore":
		return "/v1/explore"
	}
	return "/v1/evaluate"
}

// config returns the request's effective (pre-canonical) configuration.
func (r *request) config() hypar.Config { return r.ovr.apply(baseConfig) }

// strategyValue returns the strategy the request evaluates.
func (r *request) strategyValue() hypar.Strategy {
	if r.strategy < 0 {
		return hypar.HyPar
	}
	return strategyValues[r.strategy]
}

// resolveModel returns the request's model built without the JSON
// codec: a fresh zoo instance or the generator's own inline struct.
func (r *request) resolveModel() (*hypar.Model, error) {
	if r.model != nil {
		return r.model, nil
	}
	return hypar.ModelByName(r.zoo)
}

// appendBody renders the request body in its plain spelling.
func (r *request) appendBody(b []byte) []byte {
	b = append(b, '{')
	if r.model != nil {
		b = append(b, `"model":`...)
		b = appendModel(b, r.model)
	} else {
		b = append(b, `"zoo":`...)
		b = strconv.AppendQuote(b, r.zoo)
	}
	if r.strategy >= 0 {
		b = append(b, `,"strategy":`...)
		b = strconv.AppendQuote(b, strategyNames[r.strategy])
	}
	if !r.ovr.empty() {
		b = append(b, `,"config":`...)
		b = r.ovr.appendJSON(b)
	}
	if len(r.free) > 0 {
		b = append(b, `,"free":[`...)
		for i, fv := range r.free {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"level":`...)
			b = strconv.AppendInt(b, int64(fv.Level), 10)
			b = append(b, `,"layer":`...)
			b = strconv.AppendInt(b, int64(fv.Layer), 10)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	return append(b, '}')
}

// appendModel renders a model in the service's JSON model schema.
func appendModel(b []byte, m *hypar.Model) []byte {
	b = append(b, `{"name":`...)
	b = strconv.AppendQuote(b, m.Name)
	b = append(b, `,"input":{"h":`...)
	b = strconv.AppendInt(b, int64(m.Input.H), 10)
	b = append(b, `,"w":`...)
	b = strconv.AppendInt(b, int64(m.Input.W), 10)
	b = append(b, `,"c":`...)
	b = strconv.AppendInt(b, int64(m.Input.C), 10)
	b = append(b, `},"layers":[`...)
	for i, l := range m.Layers {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"name":`...)
		b = strconv.AppendQuote(b, l.Name)
		if l.Type == nn.Conv {
			b = append(b, `,"type":"conv","k":`...)
			b = strconv.AppendInt(b, int64(l.K), 10)
			if l.Pad != 0 {
				b = append(b, `,"pad":`...)
				b = strconv.AppendInt(b, int64(l.Pad), 10)
			}
		} else {
			b = append(b, `,"type":"fc"`...)
		}
		b = append(b, `,"cout":`...)
		b = strconv.AppendInt(b, int64(l.Cout), 10)
		if l.Pool > 1 {
			b = append(b, `,"pool":`...)
			b = strconv.AppendInt(b, int64(l.Pool), 10)
		}
		if l.Act == nn.Softmax {
			b = append(b, `,"act":"softmax"`...)
		}
		if len(l.Inputs) > 0 {
			b = append(b, `,"inputs":[`...)
			for j, in := range l.Inputs {
				if j > 0 {
					b = append(b, ',')
				}
				b = strconv.AppendQuote(b, in)
			}
			b = append(b, ']')
		}
		if l.Join == nn.Add {
			b = append(b, `,"join":"add"`...)
		}
		b = append(b, '}')
	}
	return append(b, "]}"...)
}

// ---------------------------------------------------------------------------
// Seeded draws

// splitmix64 is the SplitMix64 finalizer: a bijective avalanche mix.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// draws is a deterministic stream of pseudo-random numbers keyed by
// (seed, index, salt): a request's parameters depend only on its index,
// never on which client issued it or in what order.
type draws struct{ s uint64 }

func newDraws(seed int64, n int, salt uint64) draws {
	return draws{s: splitmix64(splitmix64(uint64(seed)^salt) ^ uint64(n))}
}

func (d *draws) next() uint64 {
	d.s += 0x9e3779b97f4a7c15
	return splitmix64(d.s)
}

// intn returns a draw in [0, k).
func (d *draws) intn(k int) int { return int(d.next() % uint64(k)) }

// float returns a draw in [0, 1).
func (d *draws) float() float64 { return float64(d.next()>>11) / (1 << 53) }

// Salts separating the draw streams of different purposes.
const (
	saltParams uint64 = iota + 1
	saltSample
	saltZipf
	saltPerm
)

// uniqueLink returns a link bandwidth near native (×0.5–2, whole Mb/s)
// whose fraction encodes the request index, so two requests with
// different indices never share a configuration.
func uniqueLink(d *draws, native float64, n int) float64 {
	whole := float64(int64(native * (0.5 + 1.5*d.float())))
	return whole + float64(n)/maxIndex
}

// ---------------------------------------------------------------------------
// zoo_cold

// zooColdClasses is the rotation length: every chain zoo model under
// every strategy, in a fixed order.
var zooColdClasses = len(chainZoo) * len(strategyNames)

// genZooCold returns the n-th zoo_cold request: /v1/evaluate of model
// n%10 under strategy (n/10)%4 with a seeded batch, depth and platform
// (or per-level platform mix), and a link bandwidth unique to n.
func genZooCold(seed int64, n int) request {
	d := newDraws(seed, n, saltParams)
	c := n % zooColdClasses
	r := request{n: n, endpoint: "evaluate", zoo: chainZoo[c%len(chainZoo)], strategy: c / len(chainZoo), canon: -1}
	r.ovr.batch = 16 * (1 + d.intn(32))
	r.ovr.levels = 2 + d.intn(4)
	native := platformLinks[0]
	switch p := d.intn(8); {
	case p < 4: // the operator's hmc base
	case p < 7:
		i := 1 + (p-4)%2
		r.ovr.platform, native = platformNames[i], platformLinks[i]
	default:
		r.ovr.platforms = make([]string, r.ovr.levels)
		for h := range r.ovr.platforms {
			r.ovr.platforms[h] = platformNames[d.intn(len(platformNames))]
		}
	}
	r.ovr.linkMbps = uniqueLink(&d, native, n)
	return r
}

// ---------------------------------------------------------------------------
// dag_cold

// dagClass fixes the dag_cold class order over a rotation of 48: one
// wide-fan model past the exact DP's frontier cap, planned by beam
// search — about 2% of requests, so latency_p99_ms falls inside the beam
// mode rather than in a tail — and then seeded inline DAGs (exact graph
// DP), SRES-8 and Incep-2 in the ratio 2:1:1.
func dagClass(n int) byte {
	if n%48 == 47 {
		return 'w'
	}
	return "dsdi"[n%4]
}

// Wide-fan shape: 18 branches, so the frontier exceeds the exact DP's
// cap of 16, planned at depth 3 by a width-64 beam.
const (
	fanBranches  = 18
	fanLevels    = 3
	fanBeamWidth = 64
)

// genDagCold returns the n-th dag_cold request: /v1/evaluate with the
// HyPar strategy of a branched model (class dagClass(n)), with a seeded
// batch and depth and a link bandwidth unique to n. Inline models also
// carry n in their name.
func genDagCold(seed int64, n int) request {
	d := newDraws(seed, n, saltParams)
	r := request{n: n, endpoint: "evaluate", strategy: 0, canon: -1}
	r.ovr.batch = 16 * (1 + d.intn(16))
	switch dagClass(n) {
	case 'd':
		r.model = randomDAG(&d, n)
		r.ovr.levels = 2 + d.intn(3)
	case 's':
		r.zoo = "SRES-8"
		r.ovr.levels = 2 + d.intn(3)
	case 'i':
		r.zoo = "Incep-2"
		r.ovr.levels = 2 + d.intn(3)
	case 'w':
		r.model = wideFan(&d, n, fanBranches)
		r.ovr.levels = fanLevels
		r.ovr.searchMethod = "beam"
		r.ovr.beamWidth = fanBeamWidth
	}
	r.ovr.linkMbps = uniqueLink(&d, platformLinks[0], n)
	return r
}

// randomDAG builds a seeded branched model: a stem, two or three
// fork/join blocks of two or three parallel convolutions rejoined by
// element-wise add (equal widths) or channel concat (varied widths), and
// a two-layer classifier.
func randomDAG(d *draws, n int) *hypar.Model {
	side := []int{16, 24, 32}[d.intn(3)]
	m := &hypar.Model{Name: "dag-" + strconv.Itoa(n), Input: hypar.Input{H: side, W: side, C: 3}}
	width := 8 * (1 + d.intn(3))
	m.Layers = append(m.Layers, nn.Layer{Name: "stem", Type: nn.Conv, K: 3, Pad: 1, Cout: width, Act: nn.ReLU})
	prev := "stem"
	blocks := 2 + d.intn(2)
	for bi := 0; bi < blocks; bi++ {
		add := d.intn(2) == 0
		branches := 2 + d.intn(2)
		bw := 8 * (1 + d.intn(4))
		ins := make([]string, 0, branches)
		for j := 0; j < branches; j++ {
			k := 1 + 2*d.intn(2)
			cout := bw
			if !add {
				cout = 8 * (1 + d.intn(4))
			}
			name := "b" + strconv.Itoa(bi) + "_" + strconv.Itoa(j)
			m.Layers = append(m.Layers, nn.Layer{Name: name, Type: nn.Conv, K: k, Pad: k / 2, Cout: cout,
				Act: nn.ReLU, Inputs: []string{prev}})
			ins = append(ins, name)
		}
		join := nn.Concat
		if add {
			join = nn.Add
		}
		name := "j" + strconv.Itoa(bi)
		m.Layers = append(m.Layers, nn.Layer{Name: name, Type: nn.Conv, K: 3, Pad: 1, Cout: 8 * (1 + d.intn(6)),
			Pool: 2, Act: nn.ReLU, Inputs: ins, Join: join})
		prev = name
	}
	m.Layers = append(m.Layers,
		nn.Layer{Name: "fc1", Type: nn.FC, Cout: 32 << d.intn(3), Act: nn.ReLU},
		nn.Layer{Name: "fc2", Type: nn.FC, Cout: 10, Act: nn.Softmax})
	return m
}

// wideFan builds a seeded wide-fan model: a stem fanning out into
// branches parallel convolutions of seeded widths that one FC layer
// joins, so its partition frontier exceeds the exact graph DP's cap of
// 16 open layers when branches > 16.
func wideFan(d *draws, n, branches int) *hypar.Model {
	m := &hypar.Model{Name: "fan-" + strconv.Itoa(n), Input: hypar.Input{H: 8, W: 8, C: 3}}
	width := 4 * (1 + d.intn(2))
	m.Layers = append(m.Layers, nn.Layer{Name: "stem", Type: nn.Conv, K: 3, Pad: 1, Cout: width, Act: nn.ReLU})
	ins := make([]string, 0, branches)
	for j := 0; j < branches; j++ {
		name := "f" + strconv.Itoa(j)
		m.Layers = append(m.Layers, nn.Layer{Name: name, Type: nn.Conv, K: 3, Pad: 1, Cout: 4 * (1 + d.intn(2)),
			Act: nn.ReLU, Inputs: []string{"stem"}})
		ins = append(ins, name)
	}
	m.Layers = append(m.Layers, nn.Layer{Name: "join", Type: nn.FC, Cout: 10, Act: nn.Softmax, Inputs: ins})
	return m
}

// ---------------------------------------------------------------------------
// explore_sweep

// Explore sweep shape: a rotation of 48 requests. 47 rotate over five
// chain models of different depth, each sweep freeing exploreFree
// (level, layer) bits — 2^5 = 32 simulated points. One is a heavy sweep
// of VGG-A freeing exploreHeavyFree bits (256 points), about 2% of
// requests, so latency_p99_ms falls inside its mode rather than in the
// tail of the light sweeps.
var exploreModels = []string{"Lenet-c", "Cifar-c", "AlexNet", "VGG-A", "VGG-E"}

const (
	exploreFree      = 5
	exploreHeavyFree = 8
	exploreHeavy     = 3 // index of VGG-A in exploreModels
	exploreLevels    = 4 // baseConfig.Levels: explore runs at the base config
)

// exploreLayers holds the layer count of each exploreModels entry.
var exploreLayers = func() []int {
	out := make([]int, len(exploreModels))
	for i, name := range exploreModels {
		m, err := hypar.ModelByName(name)
		if err != nil {
			panic(err)
		}
		out[i] = len(m.Layers)
	}
	return out
}()

// genExplore returns the n-th explore_sweep request: /v1/explore at the
// base config (so the shared session's warm store is reused) with an
// ordered free-variable list unique to n. Request n%48 == 47 is the
// heavy sweep number n/48; the others are light sweep number j/5 of
// model j%5, j counting light requests. A sweep's list is the
// seeded-permuted selection of that number among the ordered
// selections of distinct (level, layer) positions.
func genExplore(seed int64, n int) request {
	c, k, idx := 0, exploreFree, 0
	if n%48 == 47 {
		c, k, idx = exploreHeavy, exploreHeavyFree, n/48
	} else {
		j := n - n/48
		c, idx = j%len(exploreModels), j/len(exploreModels)
	}
	r := request{n: n, endpoint: "explore", zoo: exploreModels[c], strategy: -1, canon: -1}
	positions := exploreLevels * exploreLayers[c]
	total := uint64(1)
	for i := 0; i < k; i++ {
		total *= uint64(positions - i)
	}
	// An affine map with a multiplier coprime to total (a prime above
	// every factor of total) permutes [0, total).
	d := newDraws(seed, c*16+k, saltPerm)
	r.free = orderedFree(exploreLayers[c], k, (uint64(idx)*1_000_003+d.next()%total)%total)
	return r
}

// orderedFree returns the m-th ordered selection of k distinct
// (level, layer) positions of an exploreLevels × layers grid (mixed-radix
// unranking: distinct m below the selection count give distinct lists).
func orderedFree(layers, k int, m uint64) []partition.FreeVar {
	positions := exploreLevels * layers
	taken := make([]bool, positions)
	free := make([]partition.FreeVar, 0, k)
	for i := 0; i < k; i++ {
		left := uint64(positions - i)
		pick := int(m % left)
		m /= left
		for p := range taken {
			if taken[p] {
				continue
			}
			if pick == 0 {
				taken[p] = true
				free = append(free, partition.FreeVar{Level: p / layers, Layer: p % layers})
				break
			}
			pick--
		}
	}
	return free
}

// ---------------------------------------------------------------------------
// repeat_zipf

// The repeat_zipf distinct set: every chain zoo model × strategy ×
// endpoint (evaluate, plan) × batch (the base 256, or 128) — 160
// canonical requests, under the service's default 256-entry canonical
// cache, so after the fill nothing computes.
const (
	zipfEndpoints = 2
	zipfBatches   = 2
	zipfDistinct  = 10 * 4 * zipfEndpoints * zipfBatches
	// zipfRespell makes every zipfRespell-th request a fresh re-spelling.
	zipfRespell = 32
	// zipfS is the Zipf exponent of the popularity draw.
	zipfS = 1.1
)

// zipfCDF is the cumulative Zipf(zipfS) popularity over ranks.
var zipfCDF = func() []float64 {
	cdf := make([]float64, zipfDistinct)
	sum := 0.0
	for r := range cdf {
		sum += 1 / math.Pow(float64(r+1), zipfS)
		cdf[r] = sum
	}
	for r := range cdf {
		cdf[r] /= sum
	}
	return cdf
}()

// zipfCanon returns the canonical request of distinct-set id.
func zipfCanon(id int) request {
	bi := id % zipfBatches
	ei := (id / zipfBatches) % zipfEndpoints
	si := (id / (zipfBatches * zipfEndpoints)) % len(strategyNames)
	mi := id / (zipfBatches * zipfEndpoints * len(strategyNames))
	r := request{endpoint: "evaluate", zoo: chainZoo[mi], strategy: si, canon: id}
	if ei == 1 {
		r.endpoint = "plan"
	}
	if bi == 1 {
		r.ovr.batch = 128
	}
	return r
}

// zipfRank maps a popularity rank to a distinct-set id: a fixed
// permutation (a multiplier coprime to the set size), the same for every
// seed, so every seed draws the same mix of models and endpoints and
// only the draw sequence changes.
func zipfRank(rank int) int { return (rank*97 + 13) % zipfDistinct }

// genZipf returns the n-th repeat_zipf request. Indices below
// zipfDistinct fill the distinct set in order (the warm phase issues
// them first); later indices draw a Zipf-popular request, and every
// zipfRespell-th of those is a fresh re-spelling of its draw.
func genZipf(seed int64, n int) request {
	if n < zipfDistinct {
		r := zipfCanon(n)
		r.n = n
		return r
	}
	d := newDraws(seed, n, saltZipf)
	u := d.float()
	lo, hi := 0, zipfDistinct-1
	for lo < hi {
		mid := (lo + hi) / 2
		if zipfCDF[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	r := zipfCanon(zipfRank(lo))
	r.n = n
	r.respell = n%zipfRespell == zipfRespell-1
	return r
}

// strategySpellings are alternative wire spellings per strategy, all
// parsing to the same value (ParseStrategy is case-insensitive).
var strategySpellings = [][]string{
	{"HyPar", "HYPAR", "hyPar"},
	{"DP", "dataparallel", "DataParallel"},
	{"MP", "modelparallel", "ModelParallel"},
	{"TRICK", "oneweirdtrick", "OneWeirdTrick"},
}

// appendRespelled renders a fresh spelling of a repeat_zipf request
// that canonicalizes to the plain one: a leading whitespace run that
// encodes n in bijective base 3 (so no two indices share bytes), and —
// chosen by n — a field order, a strategy spelling and explicit
// defaults (the base batch, depth, platform, topology, link rate and
// precision).
func (r *request) appendRespelled(b []byte) []byte {
	for v := r.n + 1; v > 0; v = (v - 1) / 3 {
		b = append(b, " \t\n"[(v-1)%3])
	}
	d := newDraws(0, r.n, saltParams)
	strat := strconv.Quote(strategySpellings[r.strategy][d.intn(3)])
	cfg := []byte{'{'}
	if r.ovr.batch != 0 {
		cfg = append(cfg, `"batch":`...)
		cfg = strconv.AppendInt(cfg, int64(r.ovr.batch), 10)
	} else {
		cfg = append(cfg, `"batch":256`...)
	}
	defaults := []string{`"levels":4`, `"platform":"hmc"`, `"topology":"htree"`, `"linkMbps":1600`, `"precision":"fp32"`}
	mask := d.intn(1 << len(defaults))
	for i, kv := range defaults {
		if mask&(1<<i) != 0 {
			cfg = append(cfg, ", "...)
			cfg = append(cfg, kv...)
		}
	}
	cfg = append(cfg, '}')
	fields := [3]string{`"zoo": ` + strconv.Quote(r.zoo), `"strategy":` + strat, `"config": ` + string(cfg)}
	order := [6][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}[d.intn(6)]
	b = append(b, '{')
	for i, f := range order {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = append(b, fields[f]...)
	}
	return append(b, "}\n"...)
}
