package dispatch

import (
	"math/rand/v2"
	"testing"

	"dynalloc/internal/resources"
)

// TestCapIndexMatchesLinearScan is the equivalence property behind the
// O(log W) placement path: under an arbitrary churn of arrivals, evictions,
// placements, and completions, every first/worst/best-fit query on the
// capacity index must return exactly the worker the reference linear scan
// (pickLinear over the join-ordered alive slice) returns —
// same pointer, including nil, including ties.
func TestCapIndexMatchesLinearScan(t *testing.T) {
	const slots = 60
	shape := resources.PaperWorker()
	r := rand.New(rand.NewPCG(11, 17))

	ci := newCapIndex(slots)
	var alive []*Worker // join order == ascending id
	byID := make([]*Worker, slots)
	nextID := 0

	randAlloc := func() resources.Vector {
		// Mix tiny, mid, and near-capacity allocations so probes regularly
		// straddle the fits boundary.
		f := []float64{0.01, 0.1, 0.3, 0.5, 0.9, 1.0}[r.IntN(6)]
		return resources.New(
			shape.Get(resources.Cores)*f,
			shape.Get(resources.Memory)*f,
			shape.Get(resources.Disk)*f,
			resources.Unlimited)
	}

	check := func(step int) {
		alloc := randAlloc()
		for _, tc := range []struct {
			place placement
			got   *Worker
		}{
			{firstFit, ci.firstFit(alloc)},
			{worstFit, ci.worstFit(alloc)},
			{bestFit, ci.bestFit(alloc)},
		} {
			want := pickLinear(tc.place, alive, alloc)
			if tc.got != want {
				t.Fatalf("step %d: %s diverged for alloc %v: index=%v linear=%v",
					step, tc.place, alloc, workerID(tc.got), workerID(want))
			}
		}
	}

	for step := 0; step < 4000; step++ {
		switch op := r.IntN(10); {
		case op < 3 && nextID < slots: // arrival
			w := newWorker(nextID, shape)
			byID[nextID] = w
			alive = append(alive, w)
			ci.update(nextID, w)
			nextID++
		case op < 5 && len(alive) > 0: // eviction
			i := r.IntN(len(alive))
			w := alive[i]
			w.alive = false
			w.used = resources.Vector{}
			byID[w.ID] = nil
			alive = append(alive[:i], alive[i+1:]...)
			ci.update(w.ID, nil)
		case len(alive) > 0: // place or complete on a random worker
			w := alive[r.IntN(len(alive))]
			alloc := randAlloc()
			if r.IntN(2) == 0 && w.Fits(alloc) {
				w.used = w.used.Add(alloc.With(resources.Time, 0))
			} else {
				w.used = resources.Vector{} // drain the worker
			}
			ci.update(w.ID, w)
		}
		check(step)
	}
}

func workerID(w *Worker) int {
	if w == nil {
		return -1
	}
	return w.ID
}

// TestCapIndexBoundaryAllocations drives allocations right at the slack
// boundary, where conservative pruning and the exact leaf check may
// disagree transiently: the index must still agree with the linear scan.
func TestCapIndexBoundaryAllocations(t *testing.T) {
	shape := resources.New(16, 64000, 64000, resources.Unlimited)
	ci := newCapIndex(4)
	var alive []*Worker
	for i := 0; i < 4; i++ {
		w := newWorker(i, shape)
		alive = append(alive, w)
		ci.update(i, w)
	}
	// Fill worker 0 to exactly capacity, worker 1 to capacity*(1+slack)
	// (the admission limit), worker 2 just beyond it.
	alive[0].used = shape.With(resources.Time, 0)
	alive[1].used = alive[1].limit.With(resources.Time, 0)
	alive[2].used = alive[2].limit.Scale(1+1e-9).With(resources.Time, 0)
	for i := 0; i < 3; i++ {
		ci.update(i, alive[i])
	}
	for _, alloc := range []resources.Vector{
		resources.New(0, 0, 0, 0),
		resources.New(1e-12, 1e-12, 1e-12, 0),
		resources.New(0.5, 2000, 2000, resources.Unlimited),
		shape.With(resources.Time, resources.Unlimited),
	} {
		if got, want := ci.firstFit(alloc), pickLinear(firstFit, alive, alloc); got != want {
			t.Errorf("first-fit(%v): index=%d linear=%d", alloc, workerID(got), workerID(want))
		}
		if got, want := ci.worstFit(alloc), pickLinear(worstFit, alive, alloc); got != want {
			t.Errorf("worst-fit(%v): index=%d linear=%d", alloc, workerID(got), workerID(want))
		}
		if got, want := ci.bestFit(alloc), pickLinear(bestFit, alive, alloc); got != want {
			t.Errorf("best-fit(%v): index=%d linear=%d", alloc, workerID(got), workerID(want))
		}
	}
}
