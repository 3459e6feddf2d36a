package dispatch

import "dynalloc/internal/resources"

// placement names the three capacity-index queries for the reference scan.
type placement int

const (
	firstFit placement = iota
	worstFit
	bestFit
)

func (p placement) String() string { return [...]string{"first-fit", "worst-fit", "best-fit"}[p] }

// newWorker builds an alive worker outside any pool, with its admission
// limits precomputed exactly as Pool.Join does.
func newWorker(id int, shape resources.Vector) *Worker {
	var p Pool
	w := &Worker{ID: id, Capacity: shape}
	p.Join(w)
	return w
}

// pickLinear returns the chosen worker among those that fit, or nil, by a
// linear scan over workers in slice order. It is the reference semantics
// for the capacity-indexed path: the property tests assert that capIndex
// queries return exactly the worker this scan picks. workers holds only
// alive workers.
func pickLinear(p placement, workers []*Worker, alloc resources.Vector) *Worker {
	var chosen *Worker
	var chosenScore float64
	for _, w := range workers {
		if !w.Fits(alloc) {
			continue
		}
		free := w.Capacity.Get(resources.Memory) - w.used.Get(resources.Memory)
		switch p {
		case firstFit:
			return w
		case worstFit:
			if chosen == nil || free > chosenScore {
				chosen, chosenScore = w, free
			}
		case bestFit:
			if chosen == nil || free < chosenScore {
				chosen, chosenScore = w, free
			}
		}
	}
	return chosen
}
