package wq

import (
	"testing"

	"dynalloc/internal/metrics"
	"dynalloc/internal/opportunistic"
	"dynalloc/internal/resources"
	"dynalloc/internal/sim"
	"dynalloc/internal/workflow"
)

// scriptPool is an opportunistic.Model that replays a fixed arrival script,
// letting a test stage an exact eviction scenario.
type scriptPool []opportunistic.Arrival

func (p scriptPool) Schedule(uint64) []opportunistic.Arrival { return p }
func (p scriptPool) Name() string                            { return "script" }

// orderPolicy hands out a fixed allocation and records the order in which
// task completions are observed.
type orderPolicy struct {
	alloc    resources.Vector
	observed []int
}

func (p *orderPolicy) Allocate(string, int) resources.Vector { return p.alloc }
func (p *orderPolicy) Retry(_ string, _ int, _ resources.Vector, _ []resources.Kind) resources.Vector {
	return p.alloc
}
func (p *orderPolicy) Observe(_ string, id int, _ resources.Vector, _ float64) {
	p.observed = append(p.observed, id)
}
func (p *orderPolicy) Name() string { return "order" }

// TestRequeueParitySimVsWQ pins the cross-substrate recovery contract: when
// a worker carrying several tasks is evicted, both the discrete-event
// simulator and the live wq engine requeue the victims at the queue front
// in ascending task-ID order. Both engines run the same dispatch.Evict
// requeue; each side is driven through its own eviction path and the
// recovered orders are compared.
func TestRequeueParitySimVsWQ(t *testing.T) {
	// --- simulator substrate -------------------------------------------
	// Worker 0 (3 cores) runs tasks 1-3 and is evicted at t=50 while tasks
	// 4-6 wait. Worker 1 arrives at t=60 and never leaves. The three
	// replayed victims share one completion timestamp, and the event
	// engine fires same-time events in scheduling order, so the observed
	// completion order is exactly the post-eviction queue order.
	w := &workflow.Workflow{Name: "parity"}
	for i := 1; i <= 6; i++ {
		w.Tasks = append(w.Tasks, workflow.Task{
			ID:          i,
			Category:    "parity",
			Consumption: resources.New(1, 100, 10, 100),
		})
	}
	pol := &orderPolicy{alloc: resources.New(1, 200, 50, resources.Unlimited)}
	res, err := sim.Run(sim.Config{
		Workflow:    w,
		Policy:      pol,
		Pool:        scriptPool{{At: 0, Lifetime: 50}, {At: 60}},
		WorkerShape: resources.New(3, 1024, 1024, resources.Unlimited),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evictions != 1 {
		t.Fatalf("staged scenario produced %d evictions, want 1", res.Evictions)
	}
	for _, id := range []int{1, 2, 3} {
		o := res.Outcomes[id-1]
		if o.EvictedTime() <= 0 {
			t.Fatalf("task %d was not interrupted by the eviction: %+v", id, o.Attempts)
		}
	}
	if len(pol.observed) != 6 {
		t.Fatalf("observed %d completions, want 6", len(pol.observed))
	}
	simOrder := pol.observed[:3]

	// --- live wq substrate ---------------------------------------------
	// Same shape, driven through Manager.evict: a worker holding tasks
	// {1,2,3} (inserted out of order) disappears while nothing else is
	// queued.
	m := NewManager(nil)
	running := map[int]resources.Vector{}
	for _, id := range []int{3, 1, 2} {
		m.tasks[id] = &taskState{
			task:     workflow.Task{ID: id},
			hasAlloc: true,
			outcome:  metrics.TaskOutcome{TaskID: id},
		}
		running[id] = resources.Vector{}
	}
	m.nextTID = 3
	m.mu.Lock()
	mw := stageWorker(m, resources.PaperWorker())
	m.mu.Unlock()
	mw.running = running
	m.evict(mw)
	wqOrder := queueIDs(&m.queue)

	if len(simOrder) != len(wqOrder) {
		t.Fatalf("recovery lengths differ: sim %v vs wq %v", simOrder, wqOrder)
	}
	for i := range simOrder {
		if simOrder[i] != wqOrder[i] {
			t.Fatalf("recovery order diverged: sim %v vs wq %v", simOrder, wqOrder)
		}
		if i > 0 && simOrder[i] < simOrder[i-1] {
			t.Fatalf("recovery order not ascending: %v", simOrder)
		}
	}
	if simOrder[0] != 1 || simOrder[1] != 2 || simOrder[2] != 3 {
		t.Fatalf("recovery order = %v, want [1 2 3]", simOrder)
	}
}
