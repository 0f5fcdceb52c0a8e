package nn

import (
	"reflect"
	"sync"
	"testing"
)

func TestCachedShapesMatchesShapes(t *testing.T) {
	m := VGGA()
	want, err := m.Shapes(256)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.CachedShapes(256)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("CachedShapes differs from Shapes")
	}
	again, err := m.CachedShapes(256)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &again[0] {
		t.Error("second CachedShapes call did not hit the cache")
	}
	other, err := m.CachedShapes(128)
	if err != nil {
		t.Fatal(err)
	}
	if len(other) != len(got) || other[0].In.B != 128 {
		t.Errorf("batch-128 shapes wrong: B=%d", other[0].In.B)
	}
}

func TestCachedShapesErrorNotCached(t *testing.T) {
	m := VGGA()
	if _, err := m.CachedShapes(0); err == nil {
		t.Fatal("batch 0 accepted")
	}
	if _, err := m.CachedShapes(256); err != nil {
		t.Fatalf("valid batch rejected after error: %v", err)
	}
}

func TestCachedShapesConcurrent(t *testing.T) {
	m := LenetC()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := 1; b <= 32; b++ {
				if _, err := m.CachedShapes(b); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestShapeCacheEviction(t *testing.T) {
	// Push far past the limit with churning instances; the cache must
	// stay correct (eviction only drops memoization, never results).
	for i := 0; i < shapeCacheLimit+64; i++ {
		m := LenetC()
		s, err := m.CachedShapes(8)
		if err != nil {
			t.Fatal(err)
		}
		if len(s) != 4 {
			t.Fatalf("iteration %d: %d shapes", i, len(s))
		}
	}
	if n := ShapeCacheLen(); n > shapeCacheLimit {
		t.Errorf("cache size %d exceeds limit %d", n, shapeCacheLimit)
	}
}

// TestShapeCacheHotEntriesSurviveChurn is the regression test for the
// whole-map flush the cache used to perform when full: a pinned zoo's
// hot entries must survive hostile all-unique-model churn far past the
// limit, as long as they stay hot. Survival is observed structurally —
// a hit returns the identical cached slice, a recompute does not.
func TestShapeCacheHotEntriesSurviveChurn(t *testing.T) {
	zoo := Zoo()
	pinned := make([][]LayerShapes, len(zoo))
	for i, m := range zoo {
		s, err := m.CachedShapes(7)
		if err != nil {
			t.Fatal(err)
		}
		pinned[i] = s
	}
	// Churn 3x the limit in unique instances, touching the zoo entries
	// every touchEvery insertions (any cadence under the limit keeps
	// them hot). The historical flush dropped the zoo at every limit
	// crossing regardless of how hot it was.
	const touchEvery = 256
	for i := 0; i < 3*shapeCacheLimit; i++ {
		m := LenetC()
		if _, err := m.CachedShapes(8); err != nil {
			t.Fatal(err)
		}
		if i%touchEvery == 0 {
			for j, zm := range zoo {
				s, err := zm.CachedShapes(7)
				if err != nil {
					t.Fatal(err)
				}
				if &s[0] != &pinned[j][0] {
					t.Fatalf("churn iteration %d evicted hot zoo entry %s", i, zm.Name)
				}
			}
		}
	}
	if n := ShapeCacheLen(); n > shapeCacheLimit {
		t.Errorf("cache size %d exceeds limit %d", n, shapeCacheLimit)
	}
}

// TestShapeCacheBoundExactUnderRace hammers the cache from many
// goroutines with all-unique models and checks the bound is exact at
// every observation point — the counter-drift regression (a flush's
// reset racing concurrent increments) cannot recur when the LRU is the
// single source of truth. Run with -race for the full guarantee.
func TestShapeCacheBoundExactUnderRace(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2*shapeCacheLimit/8; i++ {
				m := LenetC()
				if _, err := m.CachedShapes(8); err != nil {
					t.Error(err)
					return
				}
				if n := ShapeCacheLen(); n > shapeCacheLimit {
					t.Errorf("cache size %d exceeds limit %d", n, shapeCacheLimit)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestDropCachedShapes verifies per-model removal: only the dropped
// model's entries (every batch size) leave the cache.
func TestDropCachedShapes(t *testing.T) {
	a, b := LenetC(), CifarC()
	for _, batch := range []int{3, 5, 9} {
		if _, err := a.CachedShapes(batch); err != nil {
			t.Fatal(err)
		}
	}
	sb, err := b.CachedShapes(3)
	if err != nil {
		t.Fatal(err)
	}
	if n := DropCachedShapes(a); n != 3 {
		t.Fatalf("DropCachedShapes dropped %d entries, want 3", n)
	}
	if n := DropCachedShapes(a); n != 0 {
		t.Fatalf("second drop removed %d entries, want 0", n)
	}
	again, err := b.CachedShapes(3)
	if err != nil {
		t.Fatal(err)
	}
	if &again[0] != &sb[0] {
		t.Error("dropping model a evicted model b's entry")
	}
}

// indexedEntries counts the shape index's listed entries.
func indexedEntries() int {
	shapeIndex.mu.Lock()
	defer shapeIndex.mu.Unlock()
	n := 0
	for _, bs := range shapeIndex.byModel {
		n += len(bs)
	}
	return n
}

// TestDropCachedShapesOwnKeysOnly pins the per-model index behind
// DropCachedShapes: dropping a model removes every batch size of that
// model and nothing else, even where other models share batch sizes,
// and the index keeps listing exactly the cache's entries through
// capacity evictions.
func TestDropCachedShapesOwnKeysOnly(t *testing.T) {
	a, b, c := LenetC(), LenetC(), CifarC()
	for batch := 1; batch <= 20; batch++ {
		if _, err := a.CachedShapes(batch); err != nil {
			t.Fatal(err)
		}
	}
	kept := map[*Model][][]LayerShapes{}
	for _, m := range []*Model{b, c} {
		for batch := 1; batch <= 5; batch++ {
			s, err := m.CachedShapes(batch)
			if err != nil {
				t.Fatal(err)
			}
			kept[m] = append(kept[m], s)
		}
	}
	before := ShapeCacheLen()
	if n := DropCachedShapes(a); n != 20 {
		t.Fatalf("DropCachedShapes dropped %d entries, want 20", n)
	}
	if got := ShapeCacheLen(); got != before-20 {
		t.Fatalf("cache holds %d entries after the drop, want %d", got, before-20)
	}
	if got := shapeIndex.batches(a); len(got) != 0 {
		t.Errorf("index still lists batches %v for the dropped model", got)
	}
	for m, ss := range kept {
		for i, want := range ss {
			got, err := m.CachedShapes(i + 1)
			if err != nil {
				t.Fatal(err)
			}
			if &got[0] != &want[0] {
				t.Errorf("dropping model a evicted another model's batch-%d entry", i+1)
			}
		}
	}
	if n, want := indexedEntries(), ShapeCacheLen(); n != want {
		t.Errorf("index lists %d entries, cache holds %d", n, want)
	}

	// Capacity evictions leave the index through the eviction hook.
	for i := 0; i < shapeCacheLimit+64; i++ {
		if _, err := LenetC().CachedShapes(8); err != nil {
			t.Fatal(err)
		}
	}
	if n, want := indexedEntries(), ShapeCacheLen(); n != want {
		t.Errorf("after churn the index lists %d entries, cache holds %d", n, want)
	}
}
