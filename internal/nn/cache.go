package nn

import (
	"slices"
	"sync"

	"repro/internal/lru"
)

// shapeKey identifies one memoized shape inference: the model instance
// and the batch size it was run at.
type shapeKey struct {
	model *Model
	batch int
}

// shapeCacheLimit bounds the entry count. At roughly a few KB per
// entry this caps the cache in the tens of MB.
const shapeCacheLimit = 4096

// shapeCache memoizes Shapes results in a bounded per-entry LRU. Keyed
// by model pointer: callers that want cache hits must reuse the same
// *Model across calls (the experiments session pins the zoo once for
// exactly this reason). Churning workloads — thousands of short-lived
// model instances — only recycle the cold tail: hot entries survive
// because every hit refreshes them, where the previous whole-map flush
// dropped the pinned zoo along with the churn, and the pointer keys of
// dead models now age out instead of being retained until a flush.
var shapeCache = func() *lru.Cache[shapeKey, []LayerShapes] {
	c := lru.New[shapeKey, []LayerShapes](shapeCacheLimit)
	c.SetOnEvict(func(k shapeKey, _ []LayerShapes) { shapeIndex.remove(k) })
	return c
}()

// shapeIndex lists each model's cached batch sizes, so DropCachedShapes
// removes a model's own keys instead of walking the whole cache. A key
// is added inside GetOrAdd's build, before its entry goes in, and
// removed by the eviction hook, after its entry has left; so a key
// evicted and re-added concurrently can briefly be listed twice, and it
// leaves the list only when no copy is cached. Every build is stored
// (an entry costs 1 against a positive bound), so every add is paired
// with exactly one removal.
var shapeIndex = batchIndex{byModel: make(map[*Model][]int)}

// batchIndex maps a model to the batch sizes of its cached entries, one
// list element per insertion still resident.
type batchIndex struct {
	mu      sync.Mutex
	byModel map[*Model][]int
}

// add lists k's batch under its model.
func (x *batchIndex) add(k shapeKey) {
	x.mu.Lock()
	x.byModel[k.model] = append(x.byModel[k.model], k.batch)
	x.mu.Unlock()
}

// remove drops one listing of k's batch, and the model once it has none.
func (x *batchIndex) remove(k shapeKey) {
	x.mu.Lock()
	bs := x.byModel[k.model]
	if i := slices.Index(bs, k.batch); i >= 0 {
		bs = slices.Delete(bs, i, i+1)
	}
	if len(bs) == 0 {
		delete(x.byModel, k.model)
	} else {
		x.byModel[k.model] = bs
	}
	x.mu.Unlock()
}

// batches returns a copy of the model's listed batch sizes.
func (x *batchIndex) batches(m *Model) []int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return slices.Clone(x.byModel[m])
}

// CachedShapes is Shapes with memoization per (model, batch). The
// returned slice is shared between all callers and must be treated as
// read-only; every consumer in this repository (the partition search,
// the simulator, the training substrate) only reads it. A model must
// not be mutated after its shapes have been cached.
func (m *Model) CachedShapes(batch int) ([]LayerShapes, error) {
	key := shapeKey{model: m, batch: batch}
	if v, ok := shapeCache.Get(key); ok {
		return v, nil
	}
	// Inference runs outside the cache lock (it is too expensive for
	// GetOrAdd's build); concurrent misses may both compute, and the
	// GetOrAdd below keeps one winner so all callers share one slice.
	shapes, err := m.Shapes(batch)
	if err != nil {
		return nil, err
	}
	v, _ := shapeCache.GetOrAdd(key, func() []LayerShapes {
		shapeIndex.add(key)
		return shapes
	})
	return v, nil
}

// DropCachedShapes removes every cached shape inference of the model
// (all batch sizes) and returns how many entries were dropped. Callers
// that pin model instances — the experiments session cache — use it to
// release a retired instance's entries instead of waiting for them to
// age out of the LRU.
func DropCachedShapes(m *Model) int {
	n := 0
	for _, b := range shapeIndex.batches(m) {
		if shapeCache.Remove(shapeKey{model: m, batch: b}) {
			n++
		}
	}
	return n
}

// ShapeCacheLen reports the current shape-cache entry count (for tests
// and leak diagnostics).
func ShapeCacheLen() int { return shapeCache.Len() }
