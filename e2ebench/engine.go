package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dynalloc/internal/allocator"
	"dynalloc/internal/metrics"
	"dynalloc/internal/resources"
	"dynalloc/internal/serve"
	"dynalloc/internal/workflow"
	"dynalloc/internal/wq"
)

// passTimeout bounds one pass's measured section, so a wedged engine ends
// the run with an error inside the benchmark's time limit.
const passTimeout = 120 * time.Second

// engineConfig is a live-engine workload: a manager with workers over TCP
// loopback in this process, driven either by Manager.RunWorkflow (clients
// = 0: every barrier phase queued at once) or by a closed loop of clients
// that each submit a task and wait for its outcome.
type engineConfig struct {
	workflow  string
	tasks     int // synthetic workflow size; 0 = the workflow's own
	workers   int
	clients   int
	remote    bool // allocator behind an in-process serve.Server
	algorithm allocator.Name
}

// timeScale converts a task's simulated seconds to its worker's sleep. It is
// small enough that the engine, not the sleep, is measured
// (wq.worker_sleep_frac stays far under 0.1).
const timeScale = 1e-9

func wqBacklog() *engineConfig {
	return &engineConfig{workflow: "topeft", workers: 8, algorithm: allocator.Greedy}
}

func wqRemote() *engineConfig {
	return &engineConfig{workflow: "bimodal", tasks: 20000, workers: 8, clients: 32,
		remote: true, algorithm: allocator.Exhaustive}
}

// tenant is the allocator-service tenant the remote workload registers.
const tenant = "e2e"

// deployment is one pass's running system.
type deployment struct {
	wf     *workflow.Workflow
	srv    *serve.Server
	client *serve.Client
	remote *remotePolicy
	local  *allocator.Allocator
	traced *tracedPolicy
	events *eventLog
	m      *wq.Manager
	start  time.Time // just before the manager's clock starts
	stop   context.CancelFunc
	wg     sync.WaitGroup
}

func (cfg *engineConfig) setup(ctx context.Context, seed uint64, traced bool, spans *spanLog, p *pass) (*deployment, error) {
	d := &deployment{}
	t0 := time.Now()
	wf, err := workflow.ByName(cfg.workflow, cfg.tasks, seed)
	if err != nil {
		return nil, err
	}
	d.wf = wf
	p.gen = time.Since(t0)

	var policy allocator.Policy
	if cfg.remote {
		d.srv = serve.NewServer()
		addr, err := d.srv.Listen("127.0.0.1:0")
		if err != nil {
			d.close()
			return nil, err
		}
		if d.client, err = serve.Dial(addr, tenant, string(cfg.algorithm), seed); err != nil {
			d.close()
			return nil, err
		}
		d.remote = &remotePolicy{c: d.client, whole: resources.PaperWorker()}
		policy = d.remote
	} else {
		if d.local, err = allocator.New(cfg.algorithm, allocator.Config{Seed: seed}); err != nil {
			return nil, err
		}
		policy = d.local
	}
	var opts []wq.Option
	if traced {
		// A remote call costs a round trip, so timing each one is cheap
		// next to it; an in-process Allocate is timed 1 in 1024.
		every := uint64(1024)
		if cfg.remote {
			every = 1
		}
		d.traced = newTracedPolicy(policy, "task", every, spans)
		d.traced.record = cfg.remote
		policy = d.traced
		d.events = &eventLog{}
		opts = append(opts, wq.WithTracer(d.events))
	}
	d.start = time.Now()
	d.m = wq.NewManager(policy, opts...)
	addr, err := d.m.Listen("127.0.0.1:0")
	if err != nil {
		d.close()
		return nil, err
	}
	wctx, stop := context.WithCancel(ctx)
	d.stop = stop
	for i := 0; i < cfg.workers; i++ {
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			// A worker returns when the manager shuts it down; an error
			// mid-run surfaces as requeued or incomplete tasks.
			_ = wq.RunWorker(wctx, addr, wq.WorkerConfig{TimeScale: timeScale})
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for d.m.Workers() < cfg.workers {
		if time.Now().After(deadline) {
			d.close()
			return nil, fmt.Errorf("only %d of %d workers registered", d.m.Workers(), cfg.workers)
		}
		time.Sleep(100 * time.Microsecond)
	}
	p.setup = time.Since(t0)
	return d, nil
}

// close stops every component the deployment started and waits for its
// workers to exit.
func (d *deployment) close() {
	if d.m != nil {
		d.m.Close()
	}
	if d.stop != nil {
		d.stop()
	}
	d.wg.Wait()
	if d.client != nil {
		d.client.Close()
	}
	if d.srv != nil {
		d.srv.Close()
	}
}

// completion is one task's outcome as its submitter saw it.
type completion struct {
	outcome  metrics.TaskOutcome
	submit   time.Time
	latency  time.Duration
	finished bool
}

func (cfg *engineConfig) run(ctx context.Context, seed uint64, traced bool, spans *spanLog) (pass, error) {
	p := pass{traced: traced}
	d, err := cfg.setup(ctx, seed, traced, spans, &p)
	if err != nil {
		return p, err
	}
	defer d.close()
	ctx, cancel := context.WithTimeout(ctx, passTimeout)
	defer cancel()

	var done []completion
	m := startMeter()
	if cfg.clients == 0 {
		done, err = d.runWorkflow(ctx)
	} else {
		done = d.closedLoop(ctx, cfg.clients)
	}
	m.stop(&p)
	if err != nil {
		return p, err
	}
	st := d.m.Stats()
	cfg.check(&p, d, done, st)
	if traced {
		if err := cfg.layers(&p, d, done, st, seed, spans); err != nil {
			return p, err
		}
	}
	return p, nil
}

// runWorkflow queues each barrier phase at once through RunWorkflow. A task's
// latency is its DoneTime - SubmitTime on the manager's clock.
func (d *deployment) runWorkflow(ctx context.Context) ([]completion, error) {
	res, err := d.m.RunWorkflow(ctx, d.wf)
	if err != nil {
		return nil, err
	}
	done := make([]completion, len(res.Outcomes))
	for i, o := range res.Outcomes {
		done[i] = completion{
			outcome:  o,
			submit:   d.start.Add(time.Duration(o.SubmitTime * float64(time.Second))),
			latency:  time.Duration((o.DoneTime - o.SubmitTime) * float64(time.Second)),
			finished: true,
		}
	}
	return done, nil
}

// closedLoop runs clients steering loops: each submits the next task, waits
// for its outcome, and repeats until the workflow is exhausted. Tasks still
// outstanding when ctx ends stay unfinished and count as failed.
func (d *deployment) closedLoop(ctx context.Context, clients int) []completion {
	done := make([]completion, len(d.wf.Tasks))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(done) {
					return
				}
				t0 := time.Now()
				select {
				case o := <-d.m.Submit(d.wf.Tasks[i]):
					done[i] = completion{outcome: o, submit: t0, latency: time.Since(t0), finished: true}
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	wg.Wait()
	return done
}

// check verifies the pass's outputs: every task reached a terminal state,
// AWE lies in (0, 1], and behind the service the server's counters equal the
// client-side call counts. Failures are counted, not dropped.
func (cfg *engineConfig) check(p *pass, d *deployment, done []completion, st wq.Stats) {
	n := len(d.wf.Tasks)
	p.attempted = n
	p.check(len(done) == n, "%d outcomes for %d tasks", len(done), n)
	p.failed += max(n-len(done), 0)
	var acc metrics.Accumulator
	unfinished := 0
	for i := range done {
		c := &done[i]
		atts := c.outcome.Attempts
		terminal := len(atts) > 0 &&
			(atts[len(atts)-1].Status == metrics.Success || atts[len(atts)-1].Status == metrics.Failed)
		switch {
		case !c.finished || !terminal:
			unfinished++
			p.failed++
		case !c.outcome.Succeeded():
			p.failed++
			p.latMS = append(p.latMS, float64(c.latency)/1e6)
		default:
			p.tasks++
			acc.Add(c.outcome)
			p.latMS = append(p.latMS, float64(c.latency)/1e6)
		}
	}
	p.check(unfinished == 0, "%d of %d tasks never reached a terminal state", unfinished, n)
	s := acc.Summarize()
	for _, ks := range s.PerKind {
		switch ks.Kind {
		case resources.Memory.String():
			p.aweMem = ks.AWE
		case resources.Cores.String():
			p.aweCores = ks.AWE
		}
	}
	p.check(p.aweMem > 0 && p.aweMem <= 1, "awe_memory %g outside (0, 1]", p.aweMem)
	p.check(p.aweCores > 0 && p.aweCores <= 1, "awe_cores %g outside (0, 1]", p.aweCores)
	p.failed += st.DecodeErrors + st.StaleResults

	if !cfg.remote {
		return
	}
	r := d.remote
	calls := r.allocates.Load() + r.retries.Load() + r.obs.Load()
	p.attempted += int(calls)
	p.failed += int(r.errs.Load())
	// Stats is a request on the same connection, so the server has applied
	// every earlier frame, one-way Observes included, when it answers.
	ts, err := d.client.Stats()
	p.check(err == nil, "tenant stats: %v", err)
	p.check(ts.Allocates == r.allocates.Load() && ts.Retries == r.retries.Load() && ts.Observes == r.obs.Load(),
		"tenant served %d/%d/%d allocate/retry/observe, client sent %d/%d/%d",
		ts.Allocates, ts.Retries, ts.Observes, r.allocates.Load(), r.retries.Load(), r.obs.Load())
	found := false
	for _, s := range d.srv.Stats() {
		if s.Tenant == tenant {
			found = true
			p.check(s == ts, "Server.Stats() %+v differs from the tenant's own %+v", s, ts)
		}
	}
	p.check(found, "Server.Stats() lacks tenant %q", tenant)
	p.failed += int(d.srv.DecodeErrors())
}

// layers derives the per-layer figures of a traced pass.
func (cfg *engineConfig) layers(p *pass, d *deployment, done []completion, st wq.Stats, seed uint64, spans *spanLog) error {
	tp := d.traced
	tasks := float64(max(p.tasks, 1))
	attempts := 0
	sleep := 0.0 // seconds the workers slept
	for i := range done {
		c := &done[i]
		if !c.finished {
			continue
		}
		attempts += len(c.outcome.Attempts)
		for _, a := range c.outcome.Attempts {
			sleep += a.Duration * timeScale
		}
		spans.add("e2e", "task", c.outcome.TaskID, "", c.submit, c.latency)
	}
	p.layer("allocator.allocate_per_task", tp.allocate.count()/tasks, "1/task", int(tp.allocate.count()))
	p.layer("allocator.allocate_ms", tp.allocate.totalMS(), "ms", int(tp.allocate.count()))
	p.layer("allocator.retry_per_task", tp.retry.count()/tasks, "1/task", int(tp.retry.count()))
	p.layer("allocator.first_try_frac", tasks/float64(max(attempts, 1)), "frac", attempts)
	p.layer("allocator.observe_ms", tp.observe.totalMS(), "ms", int(tp.observe.count()))
	policyMS := tp.allocate.totalMS() + tp.retry.totalMS() + tp.observe.totalMS()
	p.layer("wq.policy_frac", policyMS/(float64(p.wall)/1e6), "frac", int(tp.allocate.count()))

	alloc := d.local
	if cfg.remote {
		var err error
		if alloc, err = replayCore(tp.calls, cfg.algorithm, seed); err != nil {
			return err
		}
	}
	var c coreStats
	c.add(alloc)
	c.report(p, 1)

	// Queue wait (submit to first dispatch) and attempt time (dispatch to
	// result) from the manager's lifecycle events.
	submitted := make(map[int]time.Time, len(done))
	for i := range done {
		if done[i].finished {
			submitted[done[i].outcome.TaskID] = done[i].submit
		}
	}
	var wait, attempt samples
	dispatched := make(map[int]time.Time)
	seen := make(map[int]bool)
	for _, ev := range d.events.snapshot() {
		switch ev.typ {
		case wq.EventDispatch:
			dispatched[ev.task] = ev.at
			if s, ok := submitted[ev.task]; ok && !seen[ev.task] {
				seen[ev.task] = true
				wait = append(wait, float64(ev.at.Sub(s))/1e6)
				spans.add("wq", "queue", ev.task, "task", s, ev.at.Sub(s))
			}
		case wq.EventResult, wq.EventEviction:
			if t0, ok := dispatched[ev.task]; ok {
				attempt = append(attempt, float64(ev.at.Sub(t0))/1e6)
				spans.add("wq", "attempt", ev.task, "task", t0, ev.at.Sub(t0))
				delete(dispatched, ev.task)
			}
		}
	}
	p.layers["wq.queue_wait_ms_p50"] = wait.pct(0.5, "ms")
	p.layers["wq.queue_wait_ms_p99"] = wait.pct(0.99, "ms")
	p.layers["wq.dispatch_to_result_ms_p50"] = attempt.pct(0.5, "ms")
	p.layer("wq.worker_sleep_frac", sleep*1e3/max(attempt.sum(), 1e-9), "frac", len(attempt))
	p.layer("wq.peak_queue", float64(st.PeakQueue), "count", 1)
	p.layer("wq.requeues_per_task", float64(st.Requeues)/tasks, "1/task", st.Requeues)
	p.layer("wq.frames_per_flush", float64(st.FramesSent)/float64(max(st.FlushBatches, 1)), "count", int(st.FlushBatches))
	p.layer("wq.decode_errors", float64(st.DecodeErrors), "count", 1)
	p.layer("wq.stale_results", float64(st.StaleResults), "count", 1)

	if cfg.remote {
		rtt := tp.allocate.dist() // probe durations are in µs
		p.layers["serve.allocate_rtt_us_p50"] = rtt.pct(0.5, "us")
		p.layers["serve.allocate_rtt_us_p99"] = rtt.pct(0.99, "us")
		p.layers["serve.retry_rtt_us_p50"] = tp.retry.dist().pct(0.5, "us")
		p.layers["serve.observe_us_p50"] = tp.observe.dist().pct(0.5, "us")
		p.layer("serve.rpc_errors", float64(d.remote.errs.Load()), "count", 1)
		p.layer("serve.decode_errors", float64(d.srv.DecodeErrors()), "count", 1)
		records := 0
		for _, s := range d.srv.Stats() {
			if s.Tenant == tenant {
				records = s.Records
			}
		}
		p.layer("serve.tenant_records", float64(records), "count", 1)
	}
	return nil
}

// coreStats sums the bucketing telemetry of allocators.
type coreStats struct{ recomputes, recomputeMS, maxBuckets float64 }

func (c *coreStats) add(a *allocator.Allocator) {
	for _, kinds := range a.BucketStats() {
		for _, s := range kinds {
			c.recomputes += float64(s.Recomputes)
			c.recomputeMS += float64(s.RecomputeTime) / 1e6
			c.maxBuckets = max(c.maxBuckets, float64(s.MaxBuckets))
		}
	}
}

func (c *coreStats) report(p *pass, n int) {
	p.layer("core.recomputes", c.recomputes, "count", n)
	p.layer("core.recompute_ms", c.recomputeMS, "ms", n)
	p.layer("core.max_buckets", c.maxBuckets, "count", n)
}

// replayCore replays a remote tenant's recorded call stream into an embedded
// allocator of the same algorithm and seed, whose BucketStats then stand in
// for the tenant's: the service keeps its allocators private, and a single
// tenant is the embedded allocator driven by the same calls. The recorded
// order is the order the calls entered the client, which can differ from the
// server's by an Observe racing an Allocate, so the figures are close, not
// exact.
func replayCore(calls []call, alg allocator.Name, seed uint64) (*allocator.Allocator, error) {
	a, err := allocator.New(alg, allocator.Config{Seed: seed})
	if err != nil {
		return nil, err
	}
	for _, c := range calls {
		switch c.op {
		case 'a':
			a.Allocate(c.category, c.task)
		case 'r':
			a.Retry(c.category, c.task, c.prev, c.exceeded)
		case 'o':
			a.Observe(c.category, c.task, c.peak, c.runtime)
		}
	}
	return a, nil
}

// eventLog keeps the manager's task lifecycle events in memory.
type eventLog struct {
	mu  sync.Mutex
	evs []event
}

type event struct {
	typ  wq.EventType
	task int
	at   time.Time
}

func (l *eventLog) Trace(ev wq.Event) {
	if ev.TaskID < 0 {
		return
	}
	l.mu.Lock()
	l.evs = append(l.evs, event{typ: ev.Type, task: ev.TaskID, at: ev.Time})
	l.mu.Unlock()
}

func (l *eventLog) snapshot() []event {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]event(nil), l.evs...)
}
