package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"time"

	"dynalloc/internal/allocator"
	"dynalloc/internal/harness"
	"dynalloc/internal/opportunistic"
	"dynalloc/internal/resources"
	"dynalloc/internal/sim"
	"dynalloc/internal/workflow"
)

// digests.json maps a seed to the digest of the paper-grid cell summaries it
// produces (see cellDigest); regenerate an entry with -record-digest.
//
//go:embed digests.json
var digestsJSON []byte

// gridConfig is the paper-grid workload: the Figure 5 grid through the
// harness on the DES and the paper pool, as `figures -fig 5 -des` runs it.
type gridConfig struct {
	tasks       int              // synthetic workflow size; 0 = the paper's
	workloads   []string         // nil = all seven
	algorithms  []allocator.Name // nil = all seven
	parallelism int              // 0 = nproc
	digests     map[string]string
	// seen holds the digest of the first pass per seed; every later pass of
	// the run, traced or not, must reproduce it.
	seen map[uint64]string
}

func paperGrid() *gridConfig {
	g := &gridConfig{}
	if err := json.Unmarshal(digestsJSON, &g.digests); err != nil {
		panic("e2ebench: digests.json: " + err.Error())
	}
	return g
}

func (g *gridConfig) par() int {
	if g.parallelism > 0 {
		return g.parallelism
	}
	return runtime.GOMAXPROCS(0)
}

func (g *gridConfig) algs() []allocator.Name {
	if len(g.algorithms) > 0 {
		return g.algorithms
	}
	return allocator.Names()
}

// generate builds the grid's workflows exactly as the harness does.
func (g *gridConfig) generate(seed uint64) ([]*workflow.Workflow, error) {
	names := g.workloads
	if len(names) == 0 {
		names = workflow.Names()
	}
	wfs := make([]*workflow.Workflow, len(names))
	for i, name := range names {
		w, err := workflow.ByName(name, g.tasks, seed)
		if err != nil {
			return nil, err
		}
		wfs[i] = w
	}
	return wfs, nil
}

func (g *gridConfig) options(seed uint64) harness.Options {
	return harness.Options{
		Seed: seed, Tasks: g.tasks, UseDES: true,
		Workloads: g.workloads, Algorithms: g.algorithms, Parallelism: g.par(),
	}
}

// cellDigest fingerprints every cell's workload, algorithm, summary and
// makespan in grid order. Elapsed is wall time and excluded.
func cellDigest(cells []harness.Cell) string {
	h := sha256.New()
	for _, c := range cells {
		s, err := json.Marshal(c.Summary)
		if err != nil {
			panic("e2ebench: summary: " + err.Error())
		}
		fmt.Fprintf(h, "%s|%s|%s|%s\n", c.Workload, c.Algorithm, s, strconv.FormatFloat(c.Makespan, 'g', -1, 64))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// digest runs one untraced grid and returns its cell digest.
func (g *gridConfig) digest(ctx context.Context, seed uint64) (string, error) {
	cells, err := harness.RunGridContext(ctx, g.options(seed))
	if err != nil {
		return "", err
	}
	return cellDigest(cells), nil
}

func (g *gridConfig) run(ctx context.Context, seed uint64, traced bool, spans *spanLog) (pass, error) {
	p := pass{traced: traced}
	t0 := time.Now()
	wfs, err := g.generate(seed)
	if err != nil {
		return p, err
	}
	p.gen = time.Since(t0)
	p.setup = p.gen

	var cells []harness.Cell
	if traced {
		cells, err = g.tracedGrid(ctx, wfs, seed, &p, spans)
	} else {
		cells, err = g.harnessGrid(ctx, seed, &p)
	}
	if err != nil {
		return p, err
	}
	g.checkCells(&p, wfs, cells, seed)
	return p, nil
}

// harnessGrid is the untraced pass: the grid exactly as a reproducer runs it.
// Each cell's latency is its time from grid submission to its outcome.
func (g *gridConfig) harnessGrid(ctx context.Context, seed uint64, p *pass) ([]harness.Cell, error) {
	var busy, slowest time.Duration
	opts := g.options(seed)
	m := startMeter()
	opts.Progress = func(pr harness.Progress) {
		p.latMS = append(p.latMS, float64(time.Since(m.t0))/1e6)
		busy += pr.Cell.Elapsed
		slowest = max(slowest, pr.Cell.Elapsed)
	}
	cells, err := harness.RunGridContext(ctx, opts)
	m.stop(p)
	if err != nil {
		return nil, err
	}
	p.layer("harness.cell_ms_max", float64(slowest)/1e6, "ms", len(cells))
	p.layer("harness.busy_frac", float64(busy)/(float64(p.wall)*float64(g.par())), "frac", len(cells))
	return cells, nil
}

// gridCell is one traced cell's raw figures.
type gridCell struct {
	cell  harness.Cell
	pol   *tracedPolicy
	alloc *allocator.Allocator
	res   *sim.Result
}

// tracedGrid runs the same cells as harness.RunGridContext — same workflows,
// same per-cell allocator seed (seed XOR grid position+1), same pool — but
// calls sim.RunContext itself so each cell's policy can be wrapped. Its
// summaries must reproduce the harness pass's digest.
func (g *gridConfig) tracedGrid(ctx context.Context, wfs []*workflow.Workflow, seed uint64, p *pass, spans *spanLog) ([]harness.Cell, error) {
	algs := g.algs()
	n := len(wfs) * len(algs)
	out := make([]gridCell, n)
	next := make(chan int)
	errs := make(chan error, n)
	var wg sync.WaitGroup
	m := startMeter()
	for w := 0; w < g.par(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := g.tracedCell(ctx, &out[i], wfs[i/len(algs)], algs[i%len(algs)], i, seed, spans); err != nil {
					errs <- err
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	m.stop(p)
	close(errs)
	if err := <-errs; err != nil {
		return nil, err
	}

	cells := make([]harness.Cell, n)
	var allocs, retries, tasks, attempts, evictions, peakWindow float64
	var allocMS, observeMS, selfMS float64
	var core coreStats
	for i, c := range out {
		cells[i] = c.cell
		allocs += c.pol.allocate.count()
		retries += c.pol.retry.count()
		tasks += float64(c.cell.Summary.Tasks)
		attempts += float64(c.cell.Summary.Attempts)
		evictions += float64(c.res.Evictions)
		peakWindow = max(peakWindow, float64(c.res.PeakWindow))
		policyMS := c.pol.allocate.totalMS() + c.pol.retry.totalMS() + c.pol.observe.totalMS()
		allocMS += c.pol.allocate.totalMS()
		observeMS += c.pol.observe.totalMS()
		selfMS += float64(c.cell.Elapsed)/1e6 - policyMS
		core.add(c.alloc)
	}
	p.layer("allocator.allocate_per_task", allocs/tasks, "1/task", int(allocs))
	p.layer("allocator.allocate_ms", allocMS, "ms", int(allocs))
	p.layer("allocator.retry_per_task", retries/tasks, "1/task", int(retries))
	p.layer("allocator.first_try_frac", tasks/attempts, "frac", int(attempts))
	p.layer("allocator.observe_ms", observeMS, "ms", int(tasks))
	core.report(p, n)
	p.layer("sim.self_ms", selfMS, "ms", n)
	p.layer("sim.peak_window", peakWindow, "count", n)
	p.layer("sim.evictions", evictions, "count", n)
	return cells, nil
}

func (g *gridConfig) tracedCell(ctx context.Context, out *gridCell, w *workflow.Workflow, alg allocator.Name, index int, seed uint64, spans *spanLog) error {
	a, err := allocator.New(alg, allocator.Config{Seed: seed ^ uint64(index+1)})
	if err != nil {
		return err
	}
	parent := "cell:" + w.Name + "/" + string(alg)
	pol := newTracedPolicy(a, parent, 1024, spans)
	t0 := time.Now()
	res, err := sim.RunContext(ctx, sim.Config{
		Workflow: w, Policy: pol, Pool: opportunistic.PaperPool(), PoolSeed: seed,
	})
	el := time.Since(t0)
	if err != nil {
		return fmt.Errorf("%s: %w", parent, err)
	}
	spans.add("sim", "run", -1, parent, t0, el)
	*out = gridCell{
		cell: harness.Cell{Workload: w.Name, Algorithm: alg, Summary: res.Summary(), Makespan: res.Makespan, Elapsed: el},
		pol:  pol, alloc: a, res: res,
	}
	return nil
}

// checkCells verifies a pass's outputs: every cell completed every task of
// its workflow, the cell digest matches the recorded one for the seed (when
// recorded) and every pass of the run reproduces the first.
func (g *gridConfig) checkCells(p *pass, wfs []*workflow.Workflow, cells []harness.Cell, seed uint64) {
	algs := g.algs()
	p.check(len(cells) == len(wfs)*len(algs), "paper-grid: %d cells, want %d", len(cells), len(wfs)*len(algs))
	var aweMem, aweCores float64
	bucketing := 0
	for i, c := range cells {
		want := len(wfs[i/len(algs)].Tasks)
		p.attempted += want
		p.tasks += c.Summary.Tasks
		p.failed += c.Summary.Failures + max(want-c.Summary.Tasks, 0)
		p.check(c.Summary.Tasks == want && c.Summary.Failures == 0,
			"paper-grid: cell %s/%s completed %d of %d tasks (%d failed)", c.Workload, c.Algorithm, c.Summary.Tasks, want, c.Summary.Failures)
		if c.Algorithm == allocator.Greedy || c.Algorithm == allocator.Exhaustive {
			aweMem += c.AWE(resources.Memory)
			aweCores += c.AWE(resources.Cores)
			bucketing++
		}
	}
	if bucketing > 0 {
		p.aweMem, p.aweCores = aweMem/float64(bucketing), aweCores/float64(bucketing)
	}
	d := cellDigest(cells)
	if want, ok := g.digests[strconv.FormatUint(seed, 10)]; ok {
		p.check(d == want, "paper-grid: cell digest %s for seed %d, recorded %s", d, seed, want)
	}
	if g.seen == nil {
		g.seen = make(map[uint64]string)
	}
	if first, ok := g.seen[seed]; ok {
		p.check(d == first, "paper-grid: traced=%v pass digest %s differs from the run's first pass %s", p.traced, d, first)
	} else {
		g.seen[seed] = d
	}
}
