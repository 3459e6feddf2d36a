// Package dispatch is the dispatch core shared by the discrete-event
// simulator (internal/sim) and the live Work Queue engine (internal/wq):
// the ready queue, the alive-worker set with its capacity index, the
// miss-bounded dispatch scan, and the ascending-ID eviction requeue.
package dispatch

import (
	"sort"

	"dynalloc/internal/resources"
)

// capacitySlack is the relative tolerance applied to worker capacity when
// deciding whether an allocation fits. Admission and any over-pack check
// built on Worker.Fits share it, so they can never disagree.
const capacitySlack = 1e-9

// MissBound bounds the dispatch scan: after this many consecutive placement
// failures, while some task is in flight, the pool is effectively full for
// the queue's allocation sizes and the rest of the queue waits for the next
// event (real managers bound their dispatch scans the same way). With
// nothing in flight no completion would ever rescan, so the scan then
// covers the whole queue.
const MissBound = 256

// Worker is one worker as the dispatch core sees it. Engines embed it in
// their own worker type and set ID and Capacity before Pool.Join.
type Worker struct {
	ID       int
	Capacity resources.Vector
	// limit is Capacity scaled by (1 + capacitySlack), precomputed at join so
	// admission is three comparisons.
	limit resources.Vector
	used  resources.Vector
	held  int // allocations held: the worker's tasks in flight
	slot  int // leaf in the pool's capacity index
	alive bool
	// prev/next link the alive chain in join order; leaving unlinks in O(1).
	prev, next *Worker
}

// Fits reports whether alloc fits into the worker's free capacity. The
// comparisons are bit-identical to `used+alloc > capacity*(1+capacitySlack)`
// and unrolled over the allocated kinds, so the hot path allocates nothing.
func (w *Worker) Fits(alloc resources.Vector) bool {
	return w.used[resources.Cores]+alloc[resources.Cores] <= w.limit[resources.Cores] &&
		w.used[resources.Memory]+alloc[resources.Memory] <= w.limit[resources.Memory] &&
		w.used[resources.Disk]+alloc[resources.Disk] <= w.limit[resources.Disk]
}

// Used returns the capacity held by the worker's running tasks.
func (w *Worker) Used() resources.Vector { return w.used }

// Alive reports whether the worker is in its pool.
func (w *Worker) Alive() bool { return w.alive }

// Next returns the next alive worker in join order, or nil.
func (w *Worker) Next() *Worker { return w.next }

// Pool is the alive-worker set: an intrusive chain in join order plus the
// capacity index over the same workers. The index grows by doubling as
// workers join; when its slots run out while dead slots outnumber live ones
// it is rebuilt over the alive chain instead, so its memory tracks the
// connected fleet under churn and ties still go to the earliest joiner. The
// zero value is an empty pool.
type Pool struct {
	head, tail *Worker
	n          int // alive workers
	held       int // allocations held across alive workers
	next       int // next unused index slot
	idx        *capIndex
}

// Len returns the number of alive workers.
func (p *Pool) Len() int { return p.n }

// InFlight returns the number of allocations held across alive workers.
func (p *Pool) InFlight() int { return p.held }

// Front returns the earliest-joined alive worker, or nil.
func (p *Pool) Front() *Worker { return p.head }

// Join adds w, idle, at the tail of the alive chain.
func (p *Pool) Join(w *Worker) {
	for k := range w.Capacity {
		w.limit[k] = w.Capacity[k] * (1 + capacitySlack)
	}
	w.used, w.held, w.alive = resources.Vector{}, 0, true
	if p.tail == nil {
		p.head = w
	} else {
		p.tail.next, w.prev = w, p.tail
	}
	p.tail = w
	p.n++
	if p.idx == nil || p.next == p.idx.size {
		p.reindex()
		return
	}
	w.slot = p.next
	p.next++
	p.idx.update(w.slot, w)
}

// reindex rebuilds the index over the alive chain, twice as large unless
// dead slots outnumber live ones.
func (p *Pool) reindex() {
	size := 1
	if p.idx != nil {
		size = p.idx.size
		if 2*p.n > size {
			size *= 2
		}
	}
	p.idx = newCapIndex(size)
	p.next = 0
	for w := p.head; w != nil; w = w.next {
		w.slot = p.next
		p.next++
		p.idx.update(w.slot, w)
	}
}

// Leave removes the alive worker w, dropping whatever its tasks held.
func (p *Pool) Leave(w *Worker) {
	if w.prev != nil {
		w.prev.next = w.next
	} else {
		p.head = w.next
	}
	if w.next != nil {
		w.next.prev = w.prev
	} else {
		p.tail = w.prev
	}
	w.prev, w.next, w.alive = nil, nil, false
	p.n--
	p.held -= w.held
	w.used, w.held = resources.Vector{}, 0
	p.idx.update(w.slot, nil)
}

// Hold charges alloc (time excluded) to the alive worker w.
func (p *Pool) Hold(w *Worker, alloc resources.Vector) {
	w.used = w.used.Add(alloc.With(resources.Time, 0))
	w.held++
	p.held++
	p.idx.update(w.slot, w)
}

// Release returns alloc (time excluded) from the alive worker w, clamping
// the float drift that repeated add/subtract leaves just below zero.
func (p *Pool) Release(w *Worker, alloc resources.Vector) {
	w.used = w.used.Sub(alloc.With(resources.Time, 0))
	for k := range w.used {
		if w.used[k] < 0 && w.used[k] > -1e-6 {
			w.used[k] = 0
		}
	}
	w.held--
	p.held--
	p.idx.update(w.slot, w)
}

// FirstFit returns the earliest-joined worker that fits alloc, or nil.
func (p *Pool) FirstFit(alloc resources.Vector) *Worker { return p.idx.firstFit(alloc) }

// WorstFit returns the fitting worker with the most free memory, or nil.
func (p *Pool) WorstFit(alloc resources.Vector) *Worker { return p.idx.worstFit(alloc) }

// BestFit returns the fitting worker with the least free memory, or nil.
func (p *Pool) BestFit(alloc resources.Vector) *Worker { return p.idx.bestFit(alloc) }

// Scan is the dispatch scan: it offers the queued handles to try in queue
// order and removes the ones try takes (placed, or dropped as stale),
// keeping the rest in order. try must not modify q. The scan stops early
// under MissBound and then closes the queue's gaps from the shorter side.
func (p *Pool) Scan(q *Queue, try func(v int) bool) {
	n := q.Len()
	kept, scanned, misses := 0, 0, 0
	for ; scanned < n; scanned++ {
		if misses >= MissBound && p.held > 0 {
			break
		}
		v := q.At(scanned)
		if try(v) {
			misses = 0
			continue
		}
		q.Set(kept, v)
		kept++
		misses++
	}
	q.closeGap(kept, scanned)
}

// Evict is the eviction requeue both engines share: it removes w from the
// pool, visits the tasks w was running in ascending ID order, and requeues
// those visit keeps at the front of q as one block, still ascending — a
// deterministic recovery order whatever the map's iteration order. The
// tasks keep their allocations: an eviction says nothing about an
// allocation's adequacy. buf is scratch for the IDs and is returned, possibly
// grown, for reuse.
func Evict[V any](p *Pool, q *Queue, w *Worker, running map[int]V, buf []int, visit func(id int, v V) bool) []int {
	p.Leave(w)
	ids := buf[:0]
	for id := range running {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	kept := ids[:0]
	for _, id := range ids {
		if visit(id, running[id]) {
			kept = append(kept, id)
		}
	}
	q.PushFrontAll(kept)
	return ids
}
