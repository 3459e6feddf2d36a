package dispatch

import (
	"math"

	"dynalloc/internal/resources"
)

// pruneSlack is the relative slack added to per-node headroom upper bounds.
// A worker admits an allocation when fl(used+alloc) <= limit; rewriting that
// as alloc <= limit-used for pruning introduces up to ~3 ulps of rounding
// difference, so each bound carries slack of limit*pruneSlack (≈ 4.5 ulps)
// to guarantee the index never prunes away a worker the exact comparison
// would admit. False positives are harmless: the leaf re-checks with
// Worker.Fits, the same comparison the linear scan used.
const pruneSlack = 1e-15

// capIndex is a segment tree over worker slots. Pool hands out slots in join
// order and re-slots the survivors in that same order when it rebuilds, so
// ascending slot order is always join order. Each node aggregates, over the
// alive workers in its subtree:
//
//   - hubC/hubM/hubD: an upper bound on per-kind headroom (limit - used,
//     plus pruneSlack), so a subtree with hub < alloc on any kind cannot
//     contain a fitting worker and is skipped;
//   - smax/smin: the exact max/min of the placement score (free memory,
//     computed with the same expression the linear scan used), driving
//     branch-and-bound for worst-fit and best-fit.
//
// Queries descend left-first, so ties resolve to the lowest slot — the
// earliest joiner, the worker a linear scan of the alive chain returns.
// Updates on place/complete/arrive/evict are O(log W). First-fit probes are
// O(log W) (one root-to-leaf descent with O(1) subtree rejections), and
// worst-fit behaves the same in practice because smax steers the descent
// straight to the maximum. Best-fit is exact branch-and-bound: smin keeps
// pointing into subtrees of workers too full to fit, so with many near-full
// workers it can degenerate toward the O(W) scan it replaced — but never
// asymptotically worse, and the golden runs show typical pools prune well.
type capIndex struct {
	size int       // leaf count, a power of two; node k's children are 2k and 2k+1
	ws   []*Worker // leaf slot -> alive worker, nil when free or vacated
	hubC []float64 // headroom upper bound, cores
	hubM []float64 // headroom upper bound, memory
	hubD []float64 // headroom upper bound, disk
	smax []float64 // max free-memory score in subtree (-Inf when empty)
	smin []float64 // min free-memory score in subtree (+Inf when empty)
}

// newCapIndex builds an empty index with room for n worker slots.
func newCapIndex(n int) *capIndex {
	size := 1
	for size < n {
		size <<= 1
	}
	ci := &capIndex{
		size: size,
		ws:   make([]*Worker, size),
		hubC: make([]float64, 2*size),
		hubM: make([]float64, 2*size),
		hubD: make([]float64, 2*size),
		smax: make([]float64, 2*size),
		smin: make([]float64, 2*size),
	}
	negInf, posInf := math.Inf(-1), math.Inf(1)
	for i := range ci.hubC {
		ci.hubC[i], ci.hubM[i], ci.hubD[i] = -1, -1, -1
		ci.smax[i], ci.smin[i] = negInf, posInf
	}
	return ci
}

// update refreshes slot after any change to the worker's used vector; pass
// nil to clear the slot. Cost: O(log W).
func (ci *capIndex) update(slot int, w *Worker) {
	k := ci.size + slot
	if w == nil {
		ci.ws[slot] = nil
		ci.hubC[k], ci.hubM[k], ci.hubD[k] = -1, -1, -1
		ci.smax[k] = math.Inf(-1)
		ci.smin[k] = math.Inf(1)
	} else {
		ci.ws[slot] = w
		ci.hubC[k] = w.limit[resources.Cores] - w.used[resources.Cores] + w.limit[resources.Cores]*pruneSlack
		ci.hubM[k] = w.limit[resources.Memory] - w.used[resources.Memory] + w.limit[resources.Memory]*pruneSlack
		ci.hubD[k] = w.limit[resources.Disk] - w.used[resources.Disk] + w.limit[resources.Disk]*pruneSlack
		free := w.Capacity.Get(resources.Memory) - w.used.Get(resources.Memory)
		ci.smax[k], ci.smin[k] = free, free
	}
	for k >>= 1; k >= 1; k >>= 1 {
		l, r := 2*k, 2*k+1
		ci.hubC[k] = max(ci.hubC[l], ci.hubC[r])
		ci.hubM[k] = max(ci.hubM[l], ci.hubM[r])
		ci.hubD[k] = max(ci.hubD[l], ci.hubD[r])
		ci.smax[k] = max(ci.smax[l], ci.smax[r])
		ci.smin[k] = min(ci.smin[l], ci.smin[r])
	}
}

// admits reports whether subtree k may contain a worker fitting alloc. Only
// a conservative upper-bound check: a true result still needs the exact
// leaf-level fits.
func (ci *capIndex) admits(k int, alloc resources.Vector) bool {
	return alloc[resources.Cores] <= ci.hubC[k] &&
		alloc[resources.Memory] <= ci.hubM[k] &&
		alloc[resources.Disk] <= ci.hubD[k]
}

// firstFit returns the lowest-slot alive worker that fits alloc, or nil.
func (ci *capIndex) firstFit(alloc resources.Vector) *Worker {
	if ci == nil || !ci.admits(1, alloc) {
		return nil
	}
	return ci.firstFitRec(1, alloc)
}

func (ci *capIndex) firstFitRec(k int, alloc resources.Vector) *Worker {
	if k >= ci.size {
		// Leaf: decide with the exact admission comparison; the bounds may
		// have let a near-boundary non-fit through.
		if w := ci.ws[k-ci.size]; w != nil && w.Fits(alloc) {
			return w
		}
		return nil
	}
	if ci.admits(2*k, alloc) {
		if w := ci.firstFitRec(2*k, alloc); w != nil {
			return w
		}
	}
	if ci.admits(2*k+1, alloc) {
		return ci.firstFitRec(2*k+1, alloc)
	}
	return nil
}

// worstFit returns the fitting worker with the most free memory (ties to
// the lowest slot), or nil.
func (ci *capIndex) worstFit(alloc resources.Vector) *Worker { return ci.extremeFit(alloc, 1) }

// bestFit returns the fitting worker with the least free memory (ties to
// the lowest slot), or nil.
func (ci *capIndex) bestFit(alloc resources.Vector) *Worker { return ci.extremeFit(alloc, -1) }

// extremeFit returns the fitting worker with the highest score sign*free
// memory (ties to the lowest slot), or nil. Negation is exact, so best-fit
// as the maximum of -free makes the same comparisons as a minimum of free.
func (ci *capIndex) extremeFit(alloc resources.Vector, sign float64) *Worker {
	if ci == nil {
		return nil
	}
	w, _ := ci.extremeFitRec(1, alloc, sign, nil, 0)
	return w
}

func (ci *capIndex) extremeFitRec(k int, alloc resources.Vector, sign float64, best *Worker, bestScore float64) (*Worker, float64) {
	if !ci.admits(k, alloc) {
		return best, bestScore
	}
	// Strict improvement only (matching the linear scan's tie-to-earliest),
	// so a subtree whose score bound does not exceed the incumbent is dead.
	bound := ci.smax[k]
	if sign < 0 {
		bound = -ci.smin[k]
	}
	if best != nil && bound <= bestScore {
		return best, bestScore
	}
	if k >= ci.size {
		w := ci.ws[k-ci.size]
		if w == nil || !w.Fits(alloc) {
			return best, bestScore
		}
		if score := sign * (w.Capacity.Get(resources.Memory) - w.used.Get(resources.Memory)); best == nil || score > bestScore {
			return w, score
		}
		return best, bestScore
	}
	best, bestScore = ci.extremeFitRec(2*k, alloc, sign, best, bestScore)
	return ci.extremeFitRec(2*k+1, alloc, sign, best, bestScore)
}
