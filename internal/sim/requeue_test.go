package sim

import (
	"slices"
	"testing"

	"dynalloc/internal/dispatch"
	"dynalloc/internal/metrics"
	"dynalloc/internal/resources"
	"dynalloc/internal/workflow"
)

// TestEvictionRequeueAscendingBlock is the regression for the eviction
// requeue ordering bug: victims were sorted ascending but prepended one at
// a time, leaving the queue front in *descending* task order. The whole
// sorted block must jump the queue as a unit, ahead of previously queued
// work, matching the live wq engine's recovery order.
func TestEvictionRequeueAscendingBlock(t *testing.T) {
	s := &simulator{cfg: Config{
		Workflow: &workflow.Workflow{},
		Policy:   stubbornPolicy{},
	}.withDefaults()}
	s.src = (&workflow.Workflow{}).Stream()
	s.drained = true // nothing left to generate; the 12 tasks below are the window
	for i := 0; i < 12; i++ {
		*s.store.pushBack() = simTask{}
	}
	s.generated = 12
	s.futureArrivals = 1 // a worker is still due, so dispatch won't declare the queue stranded

	w := &simWorker{
		Worker:  dispatch.Worker{ID: 0, Capacity: resources.PaperWorker()},
		running: make(map[int]runningTask),
	}
	s.pool.Join(&w.Worker)
	for _, idx := range []int{9, 3, 5} { // deliberately unsorted
		s.store.get(idx).hasAlloc = true
		w.running[idx] = runningTask{endEv: s.engine.After(100, func() {})}
	}
	s.byID = []*simWorker{w}
	s.ready.PushBack(11) // already waiting before the eviction

	s.onEviction(w.ID)

	if s.err != nil {
		t.Fatal(s.err)
	}
	want := []int{3, 5, 9, 11}
	if got := queueContents(&s.ready); !slices.Equal(got, want) {
		t.Errorf("ready queue after eviction = %v, want %v", got, want)
	}
	if s.pool.Len() != 0 || s.pool.Front() != nil {
		t.Errorf("evicted worker still in the alive chain (%d workers)", s.pool.Len())
	}
	if s.evictions != 1 {
		t.Errorf("evictions = %d, want 1", s.evictions)
	}
	for _, idx := range []int{3, 5, 9} {
		a := s.store.get(idx).outcome.Attempts
		if len(a) != 1 || a[0].Status != metrics.Evicted {
			t.Errorf("task %d attempts = %+v, want one evicted attempt", idx, a)
		}
	}
}

func queueContents(q *dispatch.Queue) []int {
	out := make([]int, 0, q.Len())
	for i := 0; i < q.Len(); i++ {
		out = append(out, q.At(i))
	}
	return out
}
