package sim

import (
	"context"
	"errors"
	"fmt"
	"math"

	"dynalloc/internal/allocator"
	"dynalloc/internal/devent"
	"dynalloc/internal/dispatch"
	"dynalloc/internal/metrics"
	"dynalloc/internal/opportunistic"
	"dynalloc/internal/resources"
	"dynalloc/internal/vine"
	"dynalloc/internal/workflow"
)

// ErrCanceled is returned (wrapped) when a simulation is aborted by its
// context before completing. Match it with errors.Is; the context's own
// error (context.Canceled or context.DeadlineExceeded) is wrapped too.
var ErrCanceled = errors.New("sim: run canceled")

// ctxCheckInterval is how many simulation events may fire between context
// checks. ctx.Err() is cheap but not free (a mutex acquisition in the
// stdlib context types); checking every 64th event keeps cancellation
// latency well under a millisecond of wall time at negligible cost.
const ctxCheckInterval = 64

// DefaultMaxAttempts bounds the retry chain of a single task. With doubling
// escalation a task reaches worker capacity from the 1-unit floor in well
// under 64 attempts, so hitting the bound indicates a logic error rather
// than an unlucky run.
const DefaultMaxAttempts = 64

// Config describes one simulation run.
type Config struct {
	// Workflow is the workload as a materialized task slice. Exactly one of
	// Workflow and Source must be set; a Workflow runs through its Stream()
	// cursor, so both forms drive the same engine.
	Workflow *workflow.Workflow
	// Source generates the workload lazily (see workflow.Source). Tasks are
	// pulled only as barriers and the submit window release them, so with a
	// bounded window the engine's peak memory scales with the in-flight
	// window, not the task count — the streaming path for million-task
	// runs. Combine with OnOutcome or DiscardOutcomes to keep the result
	// side equally bounded.
	Source workflow.Source
	Policy allocator.Policy
	// Pool provides the worker arrival schedule. Nil means the paper pool
	// (20 workers ramping to 50).
	Pool opportunistic.Model
	// PoolSeed seeds the pool schedule.
	PoolSeed uint64
	// WorkerShape is each worker's capacity. Zero means the paper worker.
	WorkerShape resources.Vector
	// Model is the task consumption profile (zero value = RampEarly).
	Model ConsumptionModel
	// Place is the worker placement policy (zero value = FirstFit).
	Place Placement
	// Data, when non-nil, enables the TaskVine-style data layer: task
	// inputs are staged to workers before execution (holding the
	// allocation meanwhile), workers cache files, evictions lose caches,
	// and the Locality placement prefers workers holding a task's inputs.
	Data *vine.Layer
	// MaxAttempts bounds per-task attempts (default DefaultMaxAttempts).
	MaxAttempts int
	// IncludeEvictions charges eviction-lost allocations to the AWE metric.
	IncludeEvictions bool
	// OnOutcome, when non-nil, streams each finalized task outcome (in task
	// index order) instead of retaining it: Result.Outcomes stays nil. The
	// pointed-to outcome is owned by the simulator and recycled after the
	// callback returns — copy anything kept beyond the call.
	OnOutcome func(*metrics.TaskOutcome)
	// DiscardOutcomes drops per-task outcomes after folding them into the
	// run's accumulator (and Categories/OnOutcome, if set), leaving
	// Result.Outcomes nil. Set it on large streaming runs where only the
	// aggregate metrics matter.
	DiscardOutcomes bool
	// Categories, when non-nil, additionally folds every outcome into
	// bounded per-category streaming statistics (waste accumulators plus
	// memory/runtime reservoirs).
	Categories *metrics.ByCategory
}

func (c Config) withDefaults() Config {
	if c.Pool == nil {
		c.Pool = opportunistic.PaperPool()
	}
	if c.WorkerShape.IsZero() {
		c.WorkerShape = resources.PaperWorker()
	}
	if c.MaxAttempts == 0 {
		c.MaxAttempts = DefaultMaxAttempts
	}
	return c
}

// Result aggregates a simulation run.
type Result struct {
	// Outcomes holds the per-task outcomes in task order. It is nil when
	// the run streamed them away (Config.OnOutcome or DiscardOutcomes).
	Outcomes []metrics.TaskOutcome
	Acc      metrics.Accumulator
	Makespan float64
	// PeakWorkers is the largest number of simultaneously alive workers.
	PeakWorkers int
	// PeakWindow is the largest number of task records held at once: the
	// realized in-flight window, which bounds the engine's per-task memory
	// (on a windowed streaming run it is independent of the task count).
	PeakWindow int
	// Evictions counts worker evictions. Every eviction is counted,
	// whether it interrupted running tasks or hit an idle worker.
	Evictions int
	// Failed counts tasks abandoned permanently after exceeding a retry
	// bound (live engine only; the simulator retries without bound).
	Failed int
	// Arrivals is the realized worker arrival schedule the run executed
	// against (DES runs only; nil under the sequential driver). Recording it
	// alongside the outcomes is what makes a run log replayable: a scripted
	// pool re-presents exactly this schedule to a counterfactual run.
	Arrivals []opportunistic.Arrival
}

// Summary returns the metric summary of the run.
func (r *Result) Summary() metrics.Summary { return r.Acc.Summarize() }

type simTask struct {
	task     workflow.Task
	outcome  metrics.TaskOutcome
	alloc    resources.Vector
	hasAlloc bool
	done     bool
}

// Simulator event kinds for the typed devent path. Payload layout per kind:
// evArrival carries the arrival index in A; evEviction the worker id in A;
// evTaskEnd the worker id in A, the task index in B, and the attempt
// duration in F; evDispatch carries nothing.
const (
	evDispatch devent.Kind = iota
	evArrival
	evEviction
	evTaskEnd
)

// runningTask is a value (stored by value in simWorker.running): the typed
// event path addresses attempts by (worker id, task index), so nothing
// needs a stable pointer and placing a task allocates nothing.
type runningTask struct {
	start    float64
	exceeded []resources.Kind
	endEv    devent.Handle
}

type simWorker struct {
	dispatch.Worker
	running map[int]runningTask
}

// unreleased marks simulator.released when no barrier gates task
// generation: every task the source produces may start.
const unreleased = math.MaxInt

type simulator struct {
	cfg      Config
	src      workflow.Source
	engine   devent.Engine
	store    taskStore               // in-flight window of per-task state, keyed by task index
	ready    dispatch.Queue          // task indices awaiting placement, in dispatch priority order
	arrivals []opportunistic.Arrival // pool schedule, indexed by worker id
	// pool holds the alive workers in arrival (ascending-id) order with
	// their capacity index; the Locality placement scans its chain.
	pool dispatch.Pool
	// byID resolves the worker id carried in event payloads; evicted slots
	// are nilled so the worker can be collected.
	byID    []*simWorker
	victims []int // eviction scratch, reused across onEviction calls

	window            int  // submit window (0 = everything released at once)
	generated         int  // tasks pulled from the source so far
	drained           bool // the source is exhausted
	retain            bool // keep emitted outcomes in Result.Outcomes
	released          int  // tasks [0, released) may start (barrier gating); unreleased when no barrier remains
	completed         int
	completedInPrefix int
	outcomes          []metrics.TaskOutcome
	acc               metrics.Accumulator
	futureArrivals    int
	peakWorkers       int
	evictions         int
	makespan          float64
	err               error
}

// Run executes the discrete-event simulation and returns the per-task
// outcomes and aggregated metrics.
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run under a context: the event loop checks ctx at event
// boundaries (every ctxCheckInterval events) and aborts with an error
// wrapping ErrCanceled once the context is done.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("%w before start: %w", ErrCanceled, err)
	}
	cfg = cfg.withDefaults()
	src := cfg.Source
	if cfg.Workflow != nil {
		if src != nil {
			return nil, fmt.Errorf("sim: set exactly one of Workflow and Source")
		}
		src = cfg.Workflow.Stream()
	}
	if src == nil || cfg.Policy == nil {
		return nil, fmt.Errorf("sim: Workflow (or Source) and Policy are required")
	}
	s := &simulator{cfg: cfg, src: src}
	s.window = src.SubmitWindow()
	s.retain = cfg.OnOutcome == nil && !cfg.DiscardOutcomes
	s.acc.IncludeEvictions = cfg.IncludeEvictions
	s.released = unreleased
	if b := src.NextBarrier(0); b >= 0 {
		s.released = b
	}

	arrivals := cfg.Pool.Schedule(cfg.PoolSeed)
	if len(arrivals) == 0 {
		return nil, fmt.Errorf("sim: pool model %s provided no workers", cfg.Pool.Name())
	}
	s.arrivals = arrivals
	s.byID = make([]*simWorker, len(arrivals))
	s.futureArrivals = len(arrivals)
	s.engine.SetHandler(s.handleEvent)
	// Bulk-load the whole arrival schedule: one O(n) heapify instead of n
	// heap pushes, and no per-arrival closure.
	pre := make([]devent.Scheduled, len(arrivals))
	for i, a := range arrivals {
		pre[i] = devent.Scheduled{At: a.At, Kind: evArrival, P: devent.Payload{A: i}}
	}
	s.engine.Preload(pre)

	s.engine.Schedule(0, evDispatch, devent.Payload{})
	for steps := 0; ; steps++ {
		if steps%ctxCheckInterval == 0 && ctx.Err() != nil {
			return nil, fmt.Errorf("%w at virtual time %.1fs: %w", ErrCanceled, s.engine.Now(), ctx.Err())
		}
		if !s.engine.Step() {
			break
		}
	}

	if s.err != nil {
		return nil, s.err
	}
	if !s.drained || s.completed != s.generated {
		return nil, fmt.Errorf("sim: deadlock with %d/%d generated tasks complete (pool drained or infeasible allocation)",
			s.completed, s.generated)
	}
	return &Result{
		Outcomes:    s.outcomes,
		Acc:         s.acc,
		Makespan:    s.makespan,
		PeakWorkers: s.peakWorkers,
		PeakWindow:  s.store.peak,
		Evictions:   s.evictions,
		Arrivals:    s.arrivals,
	}, nil
}

func (s *simulator) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// handleEvent is the single devent owner callback: every typed event is
// decoded here and routed to its handler, replacing the per-event closures
// the engine used to capture.
func (s *simulator) handleEvent(kind devent.Kind, p devent.Payload) {
	switch kind {
	case evTaskEnd:
		s.onTaskEnd(p.A, p.B, p.F)
	case evDispatch:
		s.dispatch()
	case evArrival:
		s.onArrival(p.A)
	case evEviction:
		s.onEviction(p.A)
	default:
		s.fail(fmt.Errorf("sim: unknown event kind %d", kind))
	}
}

func (s *simulator) onArrival(id int) {
	if s.err != nil {
		return
	}
	w := &simWorker{
		Worker:  dispatch.Worker{ID: id, Capacity: s.cfg.WorkerShape},
		running: make(map[int]runningTask),
	}
	s.byID[id] = w
	// Ids arrive in ascending order (pool schedules are time-sorted, ties
	// fire in preload order), so join order is id order.
	s.pool.Join(&w.Worker)
	s.futureArrivals--
	s.peakWorkers = max(s.peakWorkers, s.pool.Len())
	if lt := s.arrivals[id].Lifetime; lt > 0 {
		s.engine.ScheduleAfter(lt, evEviction, devent.Payload{A: id})
	}
	s.dispatch()
}

func (s *simulator) onEviction(id int) {
	w := s.byID[id]
	if s.err != nil || w == nil || !w.Alive() {
		return
	}
	s.byID[id] = nil
	s.evictions++
	if s.cfg.Data != nil {
		s.cfg.Data.DropWorker(w.ID)
	}
	now := s.engine.Now()
	// The victims requeue as one ascending block at the queue front — the
	// same recovery the live wq engine runs.
	s.victims = dispatch.Evict(&s.pool, &s.ready, &w.Worker, w.running, s.victims, func(idx int, rt runningTask) bool {
		s.engine.Cancel(rt.endEv)
		st := s.store.get(idx)
		st.outcome.Attempts = append(st.outcome.Attempts, metrics.Attempt{
			Alloc:    st.alloc,
			Duration: now - rt.start,
			Status:   metrics.Evicted,
		})
		return true
	})
	w.running = nil // the worker is dead; release its attempt map
	s.dispatch()
}

// generate pulls tasks from the source into the store and the ready queue,
// up to the barrier/submit-window limit. Pulling lazily here is what the
// old engine achieved by queueing every released task and window-gating
// the scan: ungated fresh tasks are always an ascending-index suffix of
// the ready queue, so deferring their creation changes no dispatch
// decision — it only keeps the in-flight window small.
func (s *simulator) generate() {
	limit := s.released
	if s.window > 0 {
		if l := s.completed + s.window; l < limit {
			limit = l
		}
	}
	for !s.drained && s.generated < limit {
		t, ok := s.src.Next()
		if !ok {
			s.drained = true
			return
		}
		e := s.store.pushBack()
		var attempts []metrics.Attempt
		if !s.retain {
			// The slot's previous occupant was emitted and will never be
			// read again; recycle its attempts capacity.
			attempts = e.outcome.Attempts[:0]
		}
		*e = simTask{task: t, outcome: metrics.TaskOutcome{
			TaskID:     t.ID,
			Category:   t.Category,
			Peak:       t.Consumption,
			Runtime:    t.Runtime(),
			Attempts:   attempts,
			SubmitTime: s.engine.Now(),
		}}
		s.ready.PushBack(s.generated)
		s.generated++
	}
}

// emit flushes the completed prefix of the task window, in task-index
// order: fold into the accumulators, hand to the streaming callback, and
// (in retained mode) append to the outcome slice. Index-ordered emission
// keeps the accumulator's floating-point sums bit-identical to the old
// end-of-run fold.
func (s *simulator) emit() {
	for s.store.len() > 0 && s.store.front().done {
		st := s.store.front()
		s.acc.Add(st.outcome)
		if s.cfg.Categories != nil {
			s.cfg.Categories.Add(&st.outcome)
		}
		if s.cfg.OnOutcome != nil {
			s.cfg.OnOutcome(&st.outcome)
		}
		if s.retain {
			s.outcomes = append(s.outcomes, st.outcome)
		}
		s.store.popFront()
	}
}

// dispatch greedily places ready tasks onto alive workers, in queue order,
// skipping tasks that fit no worker right now (Work Queue-style in-manager
// backfilling avoids head-of-line blocking). The shared scan bounds the
// backfilling depth (dispatch.MissBound).
func (s *simulator) dispatch() {
	if s.err != nil {
		return
	}
	s.generate()
	s.pool.Scan(&s.ready, s.tryPlace)
	if s.pool.Len() == 0 && s.futureArrivals == 0 && (s.ready.Len() > 0 || !s.drained) {
		s.fail(fmt.Errorf("sim: %d tasks stranded with no workers left", s.ready.Len()))
	}
}

// tryPlace offers the queued task idx to the pool and reports whether it
// was placed.
func (s *simulator) tryPlace(idx int) bool {
	st := s.store.get(idx)
	// Allocation happens at dispatch time (Section II-A): a first attempt
	// gets a fresh prediction every time placement is tried, so a task that
	// waited in the queue benefits from everything the allocator learned
	// meanwhile. Retries keep their escalated allocation (hasAlloc is set on
	// the retry path).
	alloc := st.alloc
	if !st.hasAlloc {
		alloc = s.cfg.Policy.Allocate(st.task.Category, st.task.ID)
	}
	w := s.pickWorker(alloc, st.task.ID)
	if w == nil {
		return false
	}
	st.alloc = alloc
	st.hasAlloc = true
	s.place(w, idx)
	return true
}

// pickWorker routes a placement probe to the capacity index (first/worst/
// best fit, O(log W)) or, for Locality, to a scan of the alive chain in
// arrival order.
func (s *simulator) pickWorker(alloc resources.Vector, taskID int) *simWorker {
	var chosen *dispatch.Worker
	switch s.cfg.Place {
	case FirstFit:
		chosen = s.pool.FirstFit(alloc)
	case WorstFit:
		chosen = s.pool.WorstFit(alloc)
	case BestFit:
		chosen = s.pool.BestFit(alloc)
	case Locality:
		var chosenScore float64
		for w := s.pool.Front(); w != nil; w = w.Next() {
			if !w.Fits(alloc) {
				continue
			}
			score := 0.0
			if s.cfg.Data != nil {
				score = s.cfg.Data.CachedMB(w.ID, taskID)
			}
			if chosen == nil || score > chosenScore {
				chosen, chosenScore = w, score
			}
		}
	}
	if chosen == nil {
		return nil
	}
	return s.byID[chosen.ID]
}

func (s *simulator) place(w *simWorker, idx int) {
	st := s.store.get(idx)
	s.pool.Hold(&w.Worker, st.alloc)
	// Fits(zero) is used <= limit: the exact negation of over-packing under
	// the same slack admission used.
	if !w.Fits(resources.Vector{}) {
		s.fail(fmt.Errorf("sim: worker %d over-packed: %v > %v", w.ID, w.Used(), w.Capacity))
		return
	}
	now := s.engine.Now()
	duration, exceeded := EvaluateAttempt(s.cfg.Model, st.task.Consumption, st.task.Runtime(), st.alloc)
	if s.cfg.Data != nil {
		// Staging a task's missing inputs holds the allocation before the
		// payload starts; the transfer time extends the attempt.
		duration += s.cfg.Data.Stage(w.ID, st.task.ID)
	}
	w.running[idx] = runningTask{
		start:    now,
		exceeded: exceeded,
		endEv: s.engine.ScheduleAfter(duration, evTaskEnd,
			devent.Payload{A: w.ID, B: idx, F: duration}),
	}
}

func (s *simulator) onTaskEnd(workerID, idx int, duration float64) {
	if s.err != nil {
		return
	}
	// The end event is cancelled on eviction, so the worker is always alive
	// (and registered) when it fires.
	w := s.byID[workerID]
	st := s.store.get(idx)
	exceeded := w.running[idx].exceeded
	delete(w.running, idx)
	s.pool.Release(&w.Worker, st.alloc)

	if len(exceeded) == 0 {
		st.outcome.Attempts = append(st.outcome.Attempts, metrics.Attempt{
			Alloc:    st.alloc,
			Duration: duration,
			Status:   metrics.Success,
		})
		st.done = true
		st.outcome.DoneTime = s.engine.Now()
		s.completed++
		s.makespan = s.engine.Now()
		s.cfg.Policy.Observe(st.task.Category, st.task.ID, st.task.Consumption, st.task.Runtime())
		s.advanceBarrier(idx)
		s.emit()
		s.dispatch()
		return
	}

	st.outcome.Attempts = append(st.outcome.Attempts, metrics.Attempt{
		Alloc:    st.alloc,
		Duration: duration,
		Status:   metrics.Exhausted,
	})
	if st.outcome.Retries() >= s.cfg.MaxAttempts {
		s.fail(fmt.Errorf("sim: task %d exceeded %d attempts under %s (alloc %v, peak %v)",
			st.task.ID, s.cfg.MaxAttempts, s.cfg.Policy.Name(), st.alloc, st.task.Consumption))
		return
	}
	st.alloc = s.cfg.Policy.Retry(st.task.Category, st.task.ID, st.alloc, exceeded)
	s.ready.PushFront(idx)
	s.dispatch()
}

// advanceBarrier releases the next phase once every task before the current
// barrier has completed.
func (s *simulator) advanceBarrier(completedIdx int) {
	if completedIdx < s.released {
		s.completedInPrefix++
	}
	for s.released != unreleased && s.completedInPrefix == s.released {
		next := s.src.NextBarrier(s.released)
		if next < 0 {
			next = unreleased
		}
		s.released = next
	}
}
