package wq

import (
	"io"
	"testing"

	"dynalloc/internal/dispatch"
	"dynalloc/internal/metrics"
	"dynalloc/internal/resources"
	"dynalloc/internal/workflow"
)

// countingPolicy is a fixed-allocation policy that counts the lifecycle
// calls the manager makes, so a test can assert that a dropped stale result
// fed nothing back into the allocator.
type countingPolicy struct {
	alloc    resources.Vector
	retries  int
	observes int
}

func (p *countingPolicy) Allocate(string, int) resources.Vector { return p.alloc }
func (p *countingPolicy) Retry(_ string, _ int, _ resources.Vector, _ []resources.Kind) resources.Vector {
	p.retries++
	return p.alloc
}
func (p *countingPolicy) Observe(string, int, resources.Vector, float64) { p.observes++ }
func (p *countingPolicy) Name() string                                   { return "counting" }

// stageWorker registers a fake connected worker whose frames go nowhere, so
// a test can drive dispatch/evict/handleResult interleavings by hand.
func stageWorker(m *Manager, capacity resources.Vector) *managedWorker {
	return m.addWorkerLocked(nil, io.Discard, capacity)
}

// queueIDs snapshots the ready queue, front first.
func queueIDs(q *dispatch.Queue) []int {
	out := make([]int, 0, q.Len())
	for i := 0; i < q.Len(); i++ {
		out = append(out, q.At(i))
	}
	return out
}

// TestStaleResultFromEvictedWorkerDropped is the regression for the
// stale-result race: a slow worker is evicted mid-task, the task requeues
// and re-dispatches to another worker, and then the evicted worker's late
// result arrives. Pre-fix, the manager saw a non-terminal task and appended
// a phantom Exhausted attempt, escalated through policy.Retry, and requeued
// the task while it was still running elsewhere — a double dispatch. The
// result must instead be recognized as coming from a non-owning worker and
// dropped.
func TestStaleResultFromEvictedWorkerDropped(t *testing.T) {
	pol := &countingPolicy{alloc: resources.New(2, 200, 200, resources.Unlimited)}
	m := NewManager(pol)

	m.mu.Lock()
	slow := stageWorker(m, resources.PaperWorker())
	other := stageWorker(m, resources.PaperWorker())
	st := m.registerTaskLocked(workflow.Task{
		Category:    "stale",
		Consumption: resources.New(1, 100, 100, 10),
	}, nil, true)
	id := st.task.ID
	m.dispatchLocked()
	m.mu.Unlock()

	if st.owner != slow.ID {
		t.Fatalf("task dispatched to worker %d, want %d", st.owner, slow.ID)
	}

	// The slow worker goes silent and is evicted; the task requeues and
	// re-dispatches onto the other worker.
	m.evict(slow)
	if st.owner != other.ID {
		t.Fatalf("after eviction, owner = %d, want re-dispatch to %d", st.owner, other.ID)
	}
	if _, running := other.running[id]; !running {
		t.Fatal("task not running on the surviving worker after requeue")
	}
	if got := len(st.outcome.Attempts); got != 1 || st.outcome.Attempts[0].Status != metrics.Evicted {
		t.Fatalf("attempts after eviction = %+v, want one Evicted", st.outcome.Attempts)
	}

	// The evicted worker's late exhausted result replays. It must not append
	// an attempt, must not reach policy.Retry, and must not requeue the task.
	m.handleResult(slow, Message{
		Type: MsgResult, TaskID: id, Status: StatusExhausted,
		Duration: 5, Exceeded: []string{"memory"},
	})
	if got := len(st.outcome.Attempts); got != 1 {
		t.Fatalf("stale exhausted result appended a phantom attempt: %+v", st.outcome.Attempts)
	}
	if pol.retries != 0 {
		t.Fatalf("stale result escalated through policy.Retry %d times", pol.retries)
	}
	if m.queue.Len() != 0 {
		t.Fatalf("stale result requeued a running task: queue = %v", queueIDs(&m.queue))
	}

	// A late success from the evicted worker is just as stale: it must not
	// terminate the task or feed a phantom record to the policy.
	m.handleResult(slow, Message{Type: MsgResult, TaskID: id, Status: StatusSuccess, Duration: 5})
	if st.done {
		t.Fatal("stale success terminated a task still running elsewhere")
	}
	if pol.observes != 0 {
		t.Fatalf("stale success fed %d phantom records to the policy", pol.observes)
	}

	s := m.Stats()
	if s.StaleResults != 2 {
		t.Errorf("StaleResults = %d, want 2", s.StaleResults)
	}
	if s.Successes != 0 || s.Exhaustions != 0 {
		t.Errorf("stale results counted as real: successes=%d exhaustions=%d", s.Successes, s.Exhaustions)
	}

	// The owning worker's genuine result still lands normally.
	m.handleResult(other, Message{Type: MsgResult, TaskID: id, Status: StatusSuccess, Duration: 7})
	if !st.done {
		t.Fatal("genuine result from the owning worker was not accepted")
	}
	if pol.observes != 1 {
		t.Errorf("policy observed %d records, want 1", pol.observes)
	}
	if s := m.Stats(); s.Successes != 1 {
		t.Errorf("successes = %d, want 1", s.Successes)
	}
}

// TestStaleResultTracing: dropped results surface in the trace stream so a
// run log shows the race happened.
func TestStaleResultTracing(t *testing.T) {
	var events []Event
	m := NewManager(&countingPolicy{alloc: resources.New(1, 100, 100, resources.Unlimited)},
		WithTracer(FuncTracer(func(ev Event) { events = append(events, ev) })))

	m.mu.Lock()
	w := stageWorker(m, resources.PaperWorker())
	stageWorker(m, resources.PaperWorker())
	st := m.registerTaskLocked(workflow.Task{
		Category:    "stale",
		Consumption: resources.New(1, 50, 50, 5),
	}, nil, true)
	m.dispatchLocked()
	m.mu.Unlock()

	m.evict(w)
	m.handleResult(w, Message{Type: MsgResult, TaskID: st.task.ID, Status: StatusSuccess})

	var stale []Event
	for _, ev := range events {
		if ev.Type == EventStaleResult {
			stale = append(stale, ev)
		}
	}
	if len(stale) != 1 {
		t.Fatalf("stale-result events = %d, want 1", len(stale))
	}
	if stale[0].TaskID != st.task.ID || stale[0].WorkerID != w.ID || stale[0].Status != StatusSuccess {
		t.Errorf("stale event = %+v", stale[0])
	}
}

// TestDispatchOrderAliveWorkers pins the dispatch scan contract after the
// alive-chain rewrite: tasks place onto connected workers in ascending-ID
// order, evicted workers drop out of the scan entirely (instead of leaving
// tombstones the old 0..nextWID sweep paid for forever), and late joiners
// take the tail position.
func TestDispatchOrderAliveWorkers(t *testing.T) {
	var dispatches [][2]int // (taskID, workerID) in dispatch order
	m := NewManager(&countingPolicy{alloc: resources.New(1, 100, 100, resources.Unlimited)},
		WithTracer(FuncTracer(func(ev Event) {
			if ev.Type == EventDispatch {
				dispatches = append(dispatches, [2]int{ev.TaskID, ev.WorkerID})
			}
		})))

	oneCore := resources.New(1, 1024, 1024, resources.Unlimited)
	task := workflow.Task{Category: "order", Consumption: resources.New(1, 50, 50, 5)}

	m.mu.Lock()
	workers := make([]*managedWorker, 5)
	for i := range workers {
		workers[i] = stageWorker(m, oneCore) // room for exactly one task each
	}
	for i := 0; i < 3; i++ {
		m.registerTaskLocked(task, nil, true) // IDs 1..3
	}
	m.dispatchLocked()
	m.mu.Unlock()

	// Tasks 1..3 fill workers 0..2 in ascending order.
	want := [][2]int{{1, 0}, {2, 1}, {3, 2}}
	assertDispatches(t, "initial", dispatches, want)

	// Worker 1 dies: its task requeues and lands on worker 3, the lowest
	// alive worker with headroom.
	m.evict(workers[1])
	want = append(want, [2]int{2, 3})
	assertDispatches(t, "after eviction", dispatches, want)

	// Two new tasks: the first takes worker 4, the second has nowhere to go.
	m.mu.Lock()
	m.registerTaskLocked(task, nil, true) // ID 4
	m.registerTaskLocked(task, nil, true) // ID 5
	m.dispatchLocked()
	m.mu.Unlock()
	want = append(want, [2]int{4, 4})
	assertDispatches(t, "saturated", dispatches, want)

	// Worker 0 dies too; its task parks at the queue front because every
	// survivor is full.
	m.evict(workers[0])
	assertDispatches(t, "no capacity", dispatches, want)

	// A late joiner gets ID 5 and immediately receives the queue front.
	m.mu.Lock()
	stageWorker(m, oneCore)
	m.dispatchLocked()
	queueLen := m.queue.Len()
	var alive []*dispatch.Worker
	for w := m.pool.Front(); w != nil; w = w.Next() {
		alive = append(alive, w)
	}
	m.mu.Unlock()
	want = append(want, [2]int{1, 5})
	assertDispatches(t, "late joiner", dispatches, want)
	if queueLen != 1 {
		t.Errorf("queue depth = %d, want 1 (task 5 still waiting)", queueLen)
	}

	// The scan set is exactly the alive workers, ascending.
	wantAlive := []int{2, 3, 4, 5}
	if len(alive) != len(wantAlive) {
		t.Fatalf("alive workers = %d, want %d", len(alive), len(wantAlive))
	}
	for i, w := range alive {
		if w.ID != wantAlive[i] {
			t.Fatalf("alive worker order: got id %d at %d, want %d", w.ID, i, wantAlive[i])
		}
	}
}

func assertDispatches(t *testing.T, stage string, got, want [][2]int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: dispatches = %v, want %v", stage, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: dispatch %d = %v, want %v (full: %v)", stage, i, got[i], want[i], got)
		}
	}
}

// categoryPolicy hands out a fixed allocation per task category.
type categoryPolicy map[string]resources.Vector

func (p categoryPolicy) Allocate(cat string, _ int) resources.Vector { return p[cat] }
func (p categoryPolicy) Retry(cat string, _ int, _ resources.Vector, _ []resources.Kind) resources.Vector {
	return p[cat]
}
func (p categoryPolicy) Observe(string, int, resources.Vector, float64) {}
func (p categoryPolicy) Name() string                                   { return "category" }

// TestDispatchReachesTaskBehindBacklog is the starvation guard for the
// miss-bounded scan: more than dispatch.MissBound tasks that fit no worker
// sit ahead of one that does, and nothing is in flight. No completion will
// ever trigger another pass, so this pass must reach the small task.
func TestDispatchReachesTaskBehindBacklog(t *testing.T) {
	m := NewManager(categoryPolicy{
		"big":   resources.New(2, 100, 100, resources.Unlimited),
		"small": resources.New(1, 100, 100, resources.Unlimited),
	})
	oneCore := resources.New(1, 1024, 1024, resources.Unlimited)

	m.mu.Lock()
	stageWorker(m, oneCore)
	stageWorker(m, oneCore)
	for i := 0; i < 300; i++ {
		m.registerTaskLocked(workflow.Task{Category: "big", Consumption: resources.New(2, 50, 50, 5)}, nil, true)
	}
	small := m.registerTaskLocked(workflow.Task{Category: "small", Consumption: resources.New(1, 50, 50, 5)}, nil, true)
	m.dispatchLocked()
	m.mu.Unlock()

	if small.owner < 0 {
		t.Fatal("small task behind 300 unplaceable ones was never dispatched")
	}
	if s := m.Stats(); s.Dispatches != 1 || s.QueueDepth != 300 || s.InFlight != 1 {
		t.Errorf("dispatches=%d queue=%d in-flight=%d, want 1/300/1", s.Dispatches, s.QueueDepth, s.InFlight)
	}
}
