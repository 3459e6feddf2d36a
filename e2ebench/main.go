// Command e2ebench runs dynalloc's allocation contract (predict at dispatch,
// observe on completion, kill on overrun) end to end on three workloads and
// reports every metric by name, unit and sample count:
//
//	paper-grid  the Figure 5 grid through the harness and the simulator
//	wq-backlog  TopEFT through the live engine with a deep queue
//	wq-remote   a closed loop through the live engine with the allocator
//	            behind an in-process allocator service
//
// Usage (from the repository root):
//
//	bash e2ebench/run.sh --workload wq-remote --seed 7 --seconds 10 --trace 0
//	bash e2ebench/run.sh --workload all
//
// With --trace 0 a run reports the end-to-end metrics; with --trace 1 it
// alternates untraced and traced passes and reports the per-layer metrics,
// taken from the benchmark's own probes around each module's public calls.
// The last line of standard output is one JSON object; the exit code is 1
// when an output check fails. metrics.json catalogues the metrics.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

//go:embed metrics.json
var catalogueJSON []byte

type metricSpec struct {
	Name      string   `json:"name"`
	Kind      string   `json:"kind"`
	Unit      string   `json:"unit"`
	Better    string   `json:"better"`
	Layer     string   `json:"layer"`
	Workloads []string `json:"workloads"`
}

type catalogue struct {
	Workloads map[string]string `json:"workloads"`
	Metrics   []metricSpec      `json:"metrics"`
}

func loadCatalogue() catalogue {
	var c catalogue
	if err := json.Unmarshal(catalogueJSON, &c); err != nil {
		panic("e2ebench: metrics.json: " + err.Error())
	}
	return c
}

// value is one reported metric. N is the number of samples behind it; a
// metric that does not apply to the workload has N = 0, and a percentile
// refused for too few samples beyond it reads 0 with Refused set.
type value struct {
	V       float64
	Unit    string
	N       int
	Refused bool
}

// pass is one set-up, measured section and tear-down of a workload.
type pass struct {
	traced    bool
	setup     time.Duration
	gen       time.Duration // workflow generation inside setup
	wall      time.Duration // measured section
	cpu       time.Duration
	gcCycles  uint32
	gcPause   time.Duration
	tasks     int // completed tasks
	attempted int // operations attempted: tasks, plus RPCs where remote
	failed    int
	latMS     samples
	slow      float64 // the host's slowness during the pass (see sampler.go)
	aweMem    float64
	aweCores  float64
	layers    map[string]value
	problems  []string // failed output checks
}

func (p *pass) check(ok bool, format string, args ...any) {
	if !ok {
		p.problems = append(p.problems, fmt.Sprintf(format, args...))
	}
}

func (p *pass) layer(name string, v float64, unit string, n int) {
	if p.layers == nil {
		p.layers = make(map[string]value)
	}
	p.layers[name] = value{V: v, Unit: unit, N: n}
}

// meter brackets a measured section: wall time, process CPU and GC.
type meter struct {
	t0 time.Time
	ru syscall.Rusage
	ms runtime.MemStats
}

func startMeter() *meter {
	m := &meter{}
	runtime.ReadMemStats(&m.ms)
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &m.ru) // zero CPU on failure
	m.t0 = time.Now()
	return m
}

func (m *meter) stop(p *pass) {
	p.wall = time.Since(m.t0)
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		p.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano() - m.ru.Utime.Nano() - m.ru.Stime.Nano())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.gcCycles = ms.NumGC - m.ms.NumGC
	p.gcPause = time.Duration(ms.PauseTotalNs - m.ms.PauseTotalNs)
}

// workload is one benchmark input. run performs a single pass.
type workload struct {
	name string
	run  func(ctx context.Context, seed uint64, traced bool, spans *spanLog) (pass, error)
}

func paperWorkloads() []workload {
	return []workload{
		{"paper-grid", paperGrid().run},
		{"wq-backlog", wqBacklog().run},
		{"wq-remote", wqRemote().run},
	}
}

// result is a run's report: its metrics and the verdict of its checks.
type result struct {
	Workload  string
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]value
	Problems  []string
	Passes    []pass
}

// measure runs passes of w until seconds have elapsed (at least one; with
// trace, untraced and traced passes alternate and the run ends after a
// traced one) and reduces them to the end-to-end (trace false) or per-layer
// (trace true) metrics.
func measure(ctx context.Context, w workload, seed uint64, seconds float64, trace bool, spans *spanLog) (*result, error) {
	start := time.Now()
	var passes []pass
	for i := 0; ; i++ {
		// Every pass starts from a collected heap, so whether the previous
		// pass left a collection due does not decide how long this set-up
		// takes.
		runtime.GC()
		hs := startSampler()
		p, err := w.run(ctx, seed, trace && i%2 == 1, spans)
		p.slow = hs.finish()
		if err != nil {
			return nil, fmt.Errorf("%s pass %d: %w", w.name, i, err)
		}
		passes = append(passes, p)
		if trace && len(passes)%2 == 1 {
			continue
		}
		if time.Since(start).Seconds() >= seconds {
			break
		}
	}
	return reduce(w.name, passes, trace), nil
}

func reduce(name string, passes []pass, trace bool) *result {
	r := &result{Workload: name, Metrics: make(map[string]value), Passes: passes}
	var untraced, traced []pass
	for _, p := range passes {
		r.Attempted += p.attempted
		r.Failed += p.failed
		r.Problems = append(r.Problems, p.problems...)
		if p.traced {
			traced = append(traced, p)
		} else {
			untraced = append(untraced, p)
		}
	}
	r.Correct = len(r.Problems) == 0
	figures := func(ps []pass, f func(pass) float64) []float64 {
		xs := make([]float64, len(ps))
		for i, p := range ps {
			xs[i] = f(p)
		}
		return xs
	}
	perPass := func(ps []pass, f func(pass) float64) float64 { return median(figures(ps, f)) }
	// Time figures take the interquartile mean over passes (see iqm).
	perPassTime := func(ps []pass, f func(pass) float64) float64 { return iqm(figures(ps, f)) }
	// Time figures are scaled by each pass's slowness (see sampler.go).
	var lat samples
	for _, p := range untraced {
		for _, ms := range p.latMS {
			lat = append(lat, ms/p.slow)
		}
	}
	wallRate := func(p pass) float64 { return float64(p.tasks) / p.wall.Seconds() }
	if !trace {
		r.Metrics["tasks_per_s"] = value{V: perPassTime(untraced, func(p pass) float64 {
			return wallRate(p) * p.slow
		}), Unit: "1/s", N: len(untraced)}
		r.Metrics["task_latency_p50_ms"] = lat.pct(0.5, "ms")
		r.Metrics["awe_memory"] = value{V: perPass(untraced, func(p pass) float64 { return p.aweMem }), Unit: "frac", N: len(untraced)}
		r.Metrics["awe_cores"] = value{V: perPass(untraced, func(p pass) float64 { return p.aweCores }), Unit: "frac", N: len(untraced)}
		r.Metrics["cpu_ms_per_task"] = value{V: perPassTime(untraced, func(p pass) float64 {
			return float64(p.cpu) / 1e6 / float64(max(p.tasks, 1)) / p.slow
		}), Unit: "ms", N: len(untraced)}
		r.Metrics["max_rss_mb"] = value{V: maxRSSMB(), Unit: "MB", N: 1}
		r.Metrics["setup_s"] = value{V: perPass(passes, func(p pass) float64 { return p.setup.Seconds() / p.slow }), Unit: "s", N: len(passes)}
		return r
	}

	// Per-layer: each key is the median over the passes that report it.
	// Untraced passes report the runtime and harness figures, traced passes
	// the probe figures, so neither side's numbers carry the other's cost.
	keys := map[string][]value{}
	for _, p := range passes {
		for k, v := range p.layers {
			keys[k] = append(keys[k], v)
		}
	}
	for k, vs := range keys {
		xs := make([]float64, 0, len(vs))
		n, refused := 0, false
		for _, v := range vs {
			xs = append(xs, v.V)
			n += v.N
			refused = refused || v.Refused
		}
		r.Metrics[k] = value{V: median(xs), Unit: vs[0].Unit, N: n, Refused: refused}
	}
	r.Metrics["workflow.gen_ms"] = value{V: perPass(passes, func(p pass) float64 { return float64(p.gen) / 1e6 }), Unit: "ms", N: len(passes)}
	r.Metrics["go.gc_cycles"] = value{V: perPass(untraced, func(p pass) float64 { return float64(p.gcCycles) }), Unit: "count", N: len(untraced)}
	r.Metrics["go.gc_pause_ms"] = value{V: perPass(untraced, func(p pass) float64 { return float64(p.gcPause) / 1e6 }), Unit: "ms", N: len(untraced)}
	wallOf := func(p pass) float64 { return p.wall.Seconds() }
	r.Metrics["trace.overhead_frac"] = value{V: perPass(traced, wallOf)/perPass(untraced, wallOf) - 1, Unit: "frac", N: len(passes)}
	r.Metrics["e2e.task_latency_p99_ms"] = lat.pct(0.99, "ms")
	r.Metrics["e2e.tasks_per_s_wall"] = value{V: perPassTime(untraced, wallRate), Unit: "1/s", N: len(untraced)}
	r.Metrics["host.slowness"] = value{V: perPass(passes, func(p pass) float64 { return p.slow }), Unit: "x", N: len(passes)}
	failedFrac := 0.0
	if r.Attempted > 0 {
		failedFrac = float64(r.Failed) / float64(r.Attempted)
	}
	r.Metrics["e2e.failed_frac"] = value{V: failedFrac, Unit: "frac", N: r.Attempted}
	return r
}

func maxRSSMB() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// finish aligns the metrics with the catalogue: every catalogued metric of
// the run's kind is present, one that does not apply to the workload reads
// 0 with no samples, and nothing else is reported.
func (r *result) finish(cat catalogue, trace bool) error {
	kind := "end_to_end"
	if trace {
		kind = "per_layer"
	}
	out := make(map[string]value)
	for _, m := range cat.Metrics {
		if m.Kind != kind {
			continue
		}
		v, ok := r.Metrics[m.Name]
		applies := false
		for _, w := range m.Workloads {
			applies = applies || w == r.Workload
		}
		switch {
		case ok && applies:
			if v.Unit != m.Unit {
				return fmt.Errorf("metric %s reported in %s, catalogued in %s", m.Name, v.Unit, m.Unit)
			}
			out[m.Name] = v
		case applies:
			return fmt.Errorf("metric %s missing on %s", m.Name, r.Workload)
		default:
			out[m.Name] = value{Unit: m.Unit}
		}
	}
	r.Metrics = out
	return nil
}

// line is the result line's JSON shape.
type line struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) line(prefix string) line {
	l := line{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]jsonMetric{}}
	for k, v := range r.Metrics {
		l.Metrics[prefix+k] = jsonMetric{Value: v.V, Unit: v.Unit}
	}
	return l
}

func (r *result) table(w io.Writer, trace bool) {
	mode := "end-to-end, tracing off"
	if trace {
		mode = "per-layer, tracing on"
	}
	fmt.Fprintf(w, "# %s (%s): %d passes, correct=%v, failed %d of %d attempted\n",
		r.Workload, mode, len(r.Passes), r.Correct, r.Failed, r.Attempted)
	for i, p := range r.Passes {
		fmt.Fprintf(w, "  pass %d: traced=%v setup %.4fs, %d tasks in %.3fs (%.1f/s), cpu %.3fs, %d GC, host slowness %.3f\n",
			i, p.traced, p.setup.Seconds(), p.tasks, p.wall.Seconds(), float64(p.tasks)/p.wall.Seconds(), p.cpu.Seconds(), p.gcCycles, p.slow)
	}
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		v := r.Metrics[k]
		switch {
		case v.N == 0:
			fmt.Fprintf(w, "  %-30s %14s %-6s (n/a on %s)\n", k, "-", v.Unit, r.Workload)
		case v.Refused:
			fmt.Fprintf(w, "  %-30s %14s %-6s (refused: n=%d, fewer than %d beyond)\n", k, "-", v.Unit, v.N, minBeyond)
		default:
			fmt.Fprintf(w, "  %-30s %14.6g %-6s (n=%d)\n", k, v.V, v.Unit, v.N)
		}
	}
	if !trace {
		ff := 0.0
		if r.Attempted > 0 {
			ff = float64(r.Failed) / float64(r.Attempted)
		}
		fmt.Fprintf(w, "  %-30s %14.6g %-6s (n=%d)\n", "failed_frac", ff, "frac", r.Attempted)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", p)
	}
}

// procs is the benchmark's GOMAXPROCS and the grid's parallelism. The host
// is shared: with one thread, contention on either vCPU leaves the other to
// the benchmark, where two threads would measure the host's scheduler.
const procs = 1

// spanDir receives a traced run's spans, inside the build directory the run
// script keeps out of version control.
var spanDir = filepath.Join(".bench_build", "spans")

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "paper-grid, wq-backlog, wq-remote, or all")
	seed := fs.Uint64("seed", 42, "workload seed: every input is generated from it")
	seconds := fs.Float64("seconds", 10, "measure for about this long (at least one pass)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from traced passes")
	recordDigest := fs.Bool("record-digest", false, "print the paper-grid cell digest for -seed and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "e2ebench: -trace must be 0 or 1")
		return 2
	}
	runtime.GOMAXPROCS(procs)
	ctx := context.Background()
	if *recordDigest {
		d, err := paperGrid().digest(ctx, *seed)
		if err != nil {
			fmt.Fprintln(stderr, "e2ebench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%q: %q\n", fmt.Sprint(*seed), d)
		return 0
	}

	var selected []workload
	for _, w := range paperWorkloads() {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "e2ebench: unknown workload %q (paper-grid, wq-backlog, wq-remote, all)\n", *name)
		return 2
	}
	modes := []bool{*trace == 1}
	if *name == "all" {
		modes = []bool{false, true}
	}
	cat := loadCatalogue()
	fmt.Fprintf(stdout, "# e2ebench seed=%d seconds=%g nproc=%d GOMAXPROCS=%d %s %s/%s\n",
		*seed, *seconds, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	final := line{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, w := range selected {
		for _, tr := range modes {
			var spans *spanLog
			if tr {
				spans = newSpanLog()
			}
			r, err := measure(ctx, w, *seed, *seconds, tr, spans)
			if err == nil {
				err = r.finish(cat, tr)
			}
			if err != nil {
				fmt.Fprintln(stderr, "e2ebench:", err)
				return 1
			}
			r.table(stdout, tr)
			if spans != nil {
				path, err := spans.write(spanDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
				if err != nil {
					fmt.Fprintln(stderr, "e2ebench: spans:", err)
					return 1
				}
				fmt.Fprintf(stdout, "  spans: %s (%d kept, %d dropped)\n", path, len(spans.spans), spans.dropped)
			}
			prefix := ""
			if len(selected) > 1 {
				prefix = w.name + "/"
			}
			l := r.line(prefix)
			final.Correct = final.Correct && l.Correct
			final.Attempted += l.Attempted
			final.Failed += l.Failed
			for k, v := range l.Metrics {
				final.Metrics[k] = v
			}
		}
	}
	enc, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(enc))
	if !final.Correct {
		return 1
	}
	return 0
}
