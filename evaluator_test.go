package hypar

import (
	"fmt"
	"reflect"
	"testing"
)

// TestEvaluatorCachesBounded streams 1,000 distinct configs and model
// names through one Evaluator, the way a pooled service evaluator sees
// them, with every fourth run on a zoo model so warm-start hits mix in:
// each cache stays within evaluatorCacheEntries, and every result
// matches a fresh Evaluator's exactly.
func TestEvaluatorCachesBounded(t *testing.T) {
	if n := len(Zoo()) + len(BranchedZoo()); evaluatorCacheEntries < n {
		t.Fatalf("evaluatorCacheEntries %d cannot hold the %d zoo models' warm plans", evaluatorCacheEntries, n)
	}
	base, err := ModelByName("Lenet-c")
	if err != nil {
		t.Fatal(err)
	}
	zoo := Zoo()
	ev := NewEvaluator()
	for i := 0; i < 1000; i++ {
		m := zoo[(i/4)%len(zoo)]
		if i%4 != 0 {
			renamed := *base
			renamed.Name = fmt.Sprintf("lenet-%d", i)
			m = &renamed
		}
		c := DefaultConfig()
		c.LinkMbps = float64(1000 + i)
		got, err := ev.Run(m, HyPar, c)
		if err != nil {
			t.Fatal(err)
		}
		want, err := NewEvaluator().Run(m, HyPar, c)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: pooled Evaluator result differs from a fresh one", i)
		}
		if len(ev.archs) > evaluatorCacheEntries || len(ev.warm) > evaluatorCacheEntries {
			t.Fatalf("run %d: caches hold %d archs and %d warm plans, bound %d",
				i, len(ev.archs), len(ev.warm), evaluatorCacheEntries)
		}
	}
}
