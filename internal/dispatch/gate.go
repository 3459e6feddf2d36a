package dispatch

import "dynalloc/internal/resources"

// Predictor is the part of an allocation policy the dispatch scan calls for
// a task's first attempt (allocator.Policy's Allocate).
type Predictor interface {
	Allocate(category string, taskID int) resources.Vector
}

// Floorer is an optional extension of a Predictor that lets the scan skip
// predictions that could not be placed anyway.
type Floorer interface {
	// Floor returns, kind by kind, a lower bound on anything Allocate could
	// return for category now, and the exact number of random draws one
	// Allocate call makes. It draws nothing.
	Floor(category string) (resources.Vector, int)
	// Skip consumes draws random draws, as the skipped Allocate calls
	// would have.
	Skip(draws int)
}

// Gate predicts first attempts for one Pool, skipping the predictions no
// worker could take. Within one scan capacity only shrinks, and a worker's
// admission test is monotone in the allocation (IEEE addition is), so when
// no worker fits a category's floor no prediction of that category can fit
// any worker under any placement rule for the rest of the pass: the task is
// a miss without predicting, and the category stays missing for the pass.
// The draws of skipped predictions are consumed before the next real one
// and at the end of the pass, so the policy's random stream, and every
// prediction it serves, is exactly what predicting every task would give.
//
// A policy that is not a Floorer is called for every task. In the live
// engine an Observe can run outside the manager's lock while a pass is
// under way; a floor it lowers mid-pass only delays a memoized task to the
// next pass, which the Observe's own result handling starts.
type Gate struct {
	pool  *Pool
	pred  Predictor
	floor Floorer
	pass  map[string]floorMemo // categories seen this pass
	owed  int                  // draws of skipped predictions not yet consumed
	// last mirrors the pass entry of the latest category: queues hold runs
	// of one category, and a string compare is cheaper than a map lookup.
	last     floorMemo
	lastCat  string
	lastSeen bool
}

type floorMemo struct {
	floor resources.Vector
	draws int
	miss  bool // no worker fits floor; stays true for the rest of the pass
}

// NewGate returns a gate predicting through p for tasks placed on pool.
func NewGate(pool *Pool, p Predictor) *Gate {
	g := &Gate{pool: pool, pred: p}
	if f, ok := p.(Floorer); ok {
		g.floor, g.pass = f, make(map[string]floorMemo)
	}
	return g
}

// Allocate returns the first-attempt allocation for the task, or false when
// no worker can take anything the policy could predict for its category
// now; the task is then a miss of this pass.
func (g *Gate) Allocate(category string, taskID int) (resources.Vector, bool) {
	if g.floor != nil {
		m, seen := g.last, g.lastSeen && g.lastCat == category
		if !seen {
			m, seen = g.pass[category]
		}
		if !seen {
			m.floor, m.draws = g.floor.Floor(category)
		}
		if !m.miss {
			m.miss = g.pool.FirstFit(m.floor) == nil
			g.pass[category] = m
		}
		g.last, g.lastCat, g.lastSeen = m, category, true
		if m.miss {
			g.owed += m.draws
			return resources.Vector{}, false
		}
		g.settle()
	}
	return g.pred.Allocate(category, taskID), true
}

// Pass runs one dispatch pass, Pool.Scan of q with try, whose tries take
// their first-attempt allocations from Allocate. At its end it consumes
// the draws still owed and forgets the pass's floors.
func (g *Gate) Pass(q *Queue, try func(v int) bool) {
	g.pool.Scan(q, try)
	if g.floor == nil {
		return
	}
	g.settle()
	clear(g.pass)
	g.lastSeen = false
}

func (g *Gate) settle() {
	if g.owed > 0 {
		g.floor.Skip(g.owed)
		g.owed = 0
	}
}
