package dispatch

import (
	"math/rand/v2"
	"testing"

	"dynalloc/internal/resources"
)

// refScan is the naive dispatch scan Pool.Scan replaced: it rebuilds a
// `remaining` slice on every pass, with the same MissBound and the same
// in-flight rule. It returns the handles placed (in order), the new queue,
// the in-flight count afterwards, and whether the bound stopped the pass.
func refScan(queue []int, inFlight int, fits, stale func(int) bool) (placed, remaining []int, after int, stopped bool) {
	misses := 0
	for i, v := range queue {
		if misses >= MissBound && inFlight > 0 {
			remaining = append(remaining, queue[i:]...)
			return placed, remaining, inFlight, true
		}
		switch {
		case stale(v):
			misses = 0
		case fits(v):
			placed = append(placed, v)
			inFlight++
			misses = 0
		default:
			remaining = append(remaining, v)
			misses++
		}
	}
	return placed, remaining, inFlight, false
}

// TestScanMatchesRemainingReference is the differential test for the shared
// scan: random fit/miss patterns (including miss runs far past MissBound),
// stale drops, retries and requeue blocks pushed at the front, and
// completions that empty the pool, all run through Pool.Scan and through
// refScan. Every pass must place the same handles in the same order and
// leave the same queue.
func TestScanMatchesRemainingReference(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 5))
	var p Pool
	w := &Worker{ID: 0, Capacity: resources.New(1, 1, 1, 0)}
	p.Join(w)
	var q Queue
	var model []int
	next := 0
	early := 0
	for round := 0; round < 400; round++ {
		// Grow the queue: fresh tasks at the back, a retry or an eviction
		// block at the front.
		for n := r.IntN(400); n > 0; n-- {
			q.PushBack(next)
			model = append(model, next)
			next++
		}
		switch r.IntN(3) {
		case 0:
			q.PushFront(next)
			model = append([]int{next}, model...)
			next++
		case 1:
			block := []int{next, next + 1, next + 2}
			next += 3
			q.PushFrontAll(block)
			model = append(append([]int{}, block...), model...)
		}
		// Complete some in-flight tasks; sometimes all of them, so the next
		// scan runs without the miss bound.
		for n := r.IntN(p.InFlight() + 1); n > 0; n-- {
			p.Release(w, resources.Vector{})
		}
		if r.IntN(4) == 0 {
			for p.InFlight() > 0 {
				p.Release(w, resources.Vector{})
			}
		}

		// One in `period` handles fits; long periods give miss runs past
		// the bound, an infinite one gives a pass with no placement at all.
		period := []int{1, 3, 50, 300, 700, 1 << 30}[r.IntN(6)]
		salt := r.Int()
		fits := func(v int) bool { return (v*7919+salt)%period == 0 }
		stale := func(v int) bool { return (v+salt)%97 == 0 }

		wantPlaced, wantQueue, wantInFlight, stopped := refScan(model, p.InFlight(), fits, stale)
		var gotPlaced []int
		p.Scan(&q, func(v int) bool {
			if stale(v) {
				return true
			}
			if !fits(v) {
				return false
			}
			gotPlaced = append(gotPlaced, v)
			p.Hold(w, resources.Vector{})
			return true
		})
		if !equalInts(gotPlaced, wantPlaced) {
			t.Fatalf("round %d: placed %v, reference placed %v", round, gotPlaced, wantPlaced)
		}
		if got := queueContents(&q); !equalInts(got, wantQueue) {
			t.Fatalf("round %d: queue diverged from the reference (len %d vs %d)", round, len(got), len(wantQueue))
		}
		if p.InFlight() != wantInFlight {
			t.Fatalf("round %d: in flight %d, want %d", round, p.InFlight(), wantInFlight)
		}
		if stopped {
			early++
		}
		model = wantQueue
	}
	if early == 0 {
		t.Fatal("no pass exercised the miss bound")
	}
}

// TestEvictRequeuesAscendingBlock: the victims of an eviction jump the
// queue as one ascending block whatever the map order, the ones visit
// rejects stay out, and the worker's holdings leave the pool with it.
func TestEvictRequeuesAscendingBlock(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		var p Pool
		w := &Worker{ID: 0, Capacity: resources.New(8, 8, 8, 0)}
		p.Join(w)
		running := map[int]string{}
		for _, id := range []int{7, 3, 5, 11, 2} {
			running[id] = "x"
			p.Hold(w, resources.New(1, 1, 1, 0))
		}
		var q Queue
		q.PushBack(9)
		var visited []int
		Evict(&p, &q, w, running, nil, func(id int, v string) bool {
			visited = append(visited, id)
			return id != 5
		})
		if !equalInts(visited, []int{2, 3, 5, 7, 11}) {
			t.Fatalf("visit order %v, want ascending", visited)
		}
		if got := queueContents(&q); !equalInts(got, []int{2, 3, 7, 11, 9}) {
			t.Fatalf("queue = %v, want [2 3 7 11 9]", got)
		}
		if w.Alive() || p.Len() != 0 || p.Front() != nil || p.InFlight() != 0 {
			t.Fatalf("evicted worker still pooled: alive=%v len=%d inflight=%d", w.Alive(), p.Len(), p.InFlight())
		}
	}
}

// TestPoolReindexKeepsJoinOrder churns far more joins through a pool than
// it ever holds at once: the capacity index must keep agreeing with the
// linear reference over the alive chain (ties to the earliest joiner) while
// its size stays proportional to the live fleet, not to every ID issued.
func TestPoolReindexKeepsJoinOrder(t *testing.T) {
	shape := resources.New(16, 64000, 64000, 0)
	r := rand.New(rand.NewPCG(21, 8))
	var p Pool
	var alive []*Worker
	peak := 0
	for id := 0; id < 5000; {
		switch op := r.IntN(10); {
		case len(alive) < 10 || op < 3 && len(alive) < 40:
			w := &Worker{ID: id, Capacity: shape}
			id++
			p.Join(w)
			alive = append(alive, w)
		case op < 6:
			i := r.IntN(len(alive))
			p.Leave(alive[i])
			alive = append(alive[:i], alive[i+1:]...)
		default:
			w := alive[r.IntN(len(alive))]
			if alloc := shape.Scale(0.25); w.Fits(alloc) {
				p.Hold(w, alloc)
			} else if w.held > 0 {
				p.Release(w, alloc)
			}
		}
		peak = max(peak, len(alive))
		if p.idx.size > 4*peak {
			t.Fatalf("index has %d slots for a peak of %d alive workers", p.idx.size, peak)
		}
		var chain []*Worker
		for w := p.Front(); w != nil; w = w.Next() {
			chain = append(chain, w)
		}
		if len(chain) != len(alive) || p.Len() != len(alive) {
			t.Fatalf("alive chain has %d workers, want %d", len(chain), len(alive))
		}
		for i := range chain {
			if chain[i] != alive[i] {
				t.Fatalf("alive chain out of join order at %d", i)
			}
		}
		alloc := shape.Scale([]float64{0.1, 0.3, 0.8}[r.IntN(3)])
		for _, c := range []struct {
			place placement
			got   *Worker
		}{{firstFit, p.FirstFit(alloc)}, {worstFit, p.WorstFit(alloc)}, {bestFit, p.BestFit(alloc)}} {
			if want := pickLinear(c.place, alive, alloc); c.got != want {
				t.Fatalf("%s: pool=%d linear=%d", c.place, workerID(c.got), workerID(want))
			}
		}
	}
	if peak > 40 {
		t.Fatalf("churn kept %d workers alive; the test wants a small fleet", peak)
	}
}
