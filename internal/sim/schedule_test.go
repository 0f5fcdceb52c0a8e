package sim

import (
	"math"
	"math/rand"
	"testing"
)

// refTask is one task of the reference scheduler's graph.
type refTask struct {
	dur  float64
	res  int   // resource index, -1 for none
	deps []int // earlier task indices, repeats allowed
}

// refSchedule is the O(n²) list scheduler the engine must agree with:
// it keeps the ready tasks in a plain list and always starts the one
// with the smallest (ready time, order it became ready). Successors are
// released in the order their dependency edges were declared, as
// Task.After records them.
func refSchedule(tasks []refTask, nres int) (start, finish []float64, makespan float64) {
	n := len(tasks)
	succs := make([][]int, n)
	pending := make([]int, n)
	for i, t := range tasks {
		for _, d := range t.deps {
			succs[d] = append(succs[d], i)
			pending[i]++
		}
	}
	ready := make([]float64, n)
	seq := make([]int, n)
	free := make([]float64, nres)
	start, finish = make([]float64, n), make([]float64, n)
	var list []int
	next := 0
	for i := range tasks {
		if pending[i] == 0 {
			seq[i] = next
			next++
			list = append(list, i)
		}
	}
	for len(list) > 0 {
		best := 0
		for k, i := range list {
			b := list[best]
			if ready[i] < ready[b] || (ready[i] == ready[b] && seq[i] < seq[b]) {
				best = k
			}
		}
		i := list[best]
		list = append(list[:best], list[best+1:]...)
		t := tasks[i]
		start[i] = ready[i]
		if t.res >= 0 && free[t.res] > start[i] {
			start[i] = free[t.res]
		}
		finish[i] = start[i] + t.dur
		if t.res >= 0 {
			free[t.res] = finish[i]
		}
		makespan = math.Max(makespan, finish[i])
		for _, s := range succs[i] {
			pending[s]--
			if finish[i] > ready[s] {
				ready[s] = finish[i]
			}
			if pending[s] == 0 {
				seq[s] = next
				next++
				list = append(list, s)
			}
		}
	}
	return start, finish, makespan
}

// TestEngineMatchesReferenceScheduler runs random task graphs with many
// equal ready times and shared resources through Engine.Run and through
// refSchedule: every task's Start and Finish and the makespan must be
// equal bit for bit. The graphs are rebuilt on one reused engine, so the
// ready heap's storage carries over between them.
func TestEngineMatchesReferenceScheduler(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	e := NewEngine()
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(200)
		nres := 1 + r.Intn(3)
		// Half the trials draw durations from a tiny set so ready times
		// tie constantly; the rest use arbitrary reals.
		ties := trial%2 == 0
		tasks := make([]refTask, n)
		for i := range tasks {
			if ties {
				tasks[i].dur = float64(r.Intn(3)) * 0.5
			} else {
				tasks[i].dur = r.Float64()
			}
			tasks[i].res = r.Intn(nres+1) - 1
			if i > 0 {
				for k := r.Intn(4); k > 0; k-- {
					tasks[i].deps = append(tasks[i].deps, r.Intn(i))
				}
			}
		}
		wantStart, wantFinish, wantMakespan := refSchedule(tasks, nres)

		e.Reset()
		res := make([]*Resource, nres)
		for k := range res {
			res[k] = e.AddResource("r")
		}
		got := make([]*Task, n)
		for i, tk := range tasks {
			var rs *Resource
			if tk.res >= 0 {
				rs = res[tk.res]
			}
			deps := make([]*Task, len(tk.deps))
			for k, d := range tk.deps {
				deps[k] = got[d]
			}
			var err error
			if got[i], err = e.AddTask("", tk.dur, rs, deps...); err != nil {
				t.Fatal(err)
			}
		}
		makespan, err := e.Run()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if math.Float64bits(makespan) != math.Float64bits(wantMakespan) {
			t.Fatalf("trial %d: makespan %v, reference %v", trial, makespan, wantMakespan)
		}
		for i, tk := range got {
			if math.Float64bits(tk.Start) != math.Float64bits(wantStart[i]) ||
				math.Float64bits(tk.Finish) != math.Float64bits(wantFinish[i]) {
				t.Fatalf("trial %d task %d: [%v, %v], reference [%v, %v]",
					trial, i, tk.Start, tk.Finish, wantStart[i], wantFinish[i])
			}
		}
	}
}
