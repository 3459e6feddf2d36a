package main

import (
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"dynalloc/internal/allocator"
)

// Tiny versions of the three workloads: same code paths, a few hundred tasks.

func tinyGrid(digests map[string]string) *gridConfig {
	return &gridConfig{
		tasks: 40, workloads: []string{"normal", "bimodal"},
		algorithms:  []allocator.Name{allocator.Greedy, allocator.Exhaustive},
		parallelism: 2, digests: digests,
	}
}

func tinyBacklog() *engineConfig {
	return &engineConfig{workflow: "bimodal", tasks: 300, workers: 2, algorithm: allocator.Greedy}
}

func tinyRemote() *engineConfig {
	return &engineConfig{workflow: "bimodal", tasks: 300, workers: 2, clients: 4,
		remote: true, algorithm: allocator.Exhaustive}
}

func TestGridDigestCheck(t *testing.T) {
	ctx := context.Background()
	const seed = 7
	want, err := tinyGrid(nil).digest(ctx, seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		digest string
		ok     bool
	}{
		{"recorded", want, true},
		{"unrecorded", "", true},
		{"corrupted", strings.Repeat("0", len(want)), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			digests := map[string]string{}
			if tc.digest != "" {
				digests["7"] = tc.digest
			}
			g := tinyGrid(digests)
			for _, traced := range []bool{false, true} {
				p, err := g.run(ctx, seed, traced, newSpanLog())
				if err != nil {
					t.Fatal(err)
				}
				if (len(p.problems) == 0) != tc.ok {
					t.Fatalf("traced=%v: problems %q, want ok=%v", traced, p.problems, tc.ok)
				}
				if p.tasks != p.attempted || p.failed != 0 {
					t.Fatalf("traced=%v: %d of %d tasks, %d failed", traced, p.tasks, p.attempted, p.failed)
				}
			}
		})
	}
}

func TestGridTracedPassMustReproduce(t *testing.T) {
	ctx := context.Background()
	g := tinyGrid(nil)
	if _, err := g.run(ctx, 7, false, nil); err != nil {
		t.Fatal(err)
	}
	g.seen[7] = strings.Repeat("f", 64) // as if the untraced pass had differed
	p, err := g.run(ctx, 7, true, newSpanLog())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.problems) != 1 || !strings.Contains(p.problems[0], "differs from the run's first pass") {
		t.Fatalf("problems %q, want one reproduction failure", p.problems)
	}
}

func TestEnginePasses(t *testing.T) {
	ctx := context.Background()
	for name, cfg := range map[string]*engineConfig{"backlog": tinyBacklog(), "remote": tinyRemote()} {
		for _, traced := range []bool{false, true} {
			p, err := cfg.run(ctx, 3, traced, newSpanLog())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if len(p.problems) != 0 || p.failed != 0 || p.tasks != cfg.tasks {
				t.Fatalf("%s traced=%v: problems %q, %d failed, %d of %d tasks", name, traced, p.problems, p.failed, p.tasks, cfg.tasks)
			}
			if traced && cfg.remote {
				if got := p.layers["allocator.allocate_per_task"].V; got != 1 {
					t.Errorf("remote allocate_per_task = %v, want 1 with an empty queue", got)
				}
			}
		}
	}
}

func TestEngineCheckCountsMissingOutcomes(t *testing.T) {
	ctx := context.Background()
	cfg := tinyBacklog()
	var setup pass
	d, err := cfg.setup(ctx, 3, false, nil, &setup)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	done, err := d.runWorkflow(ctx)
	if err != nil {
		t.Fatal(err)
	}
	st := d.m.Stats()

	var p pass
	cfg.check(&p, d, done[:len(done)-1], st)
	if len(p.problems) == 0 || p.failed != 1 {
		t.Fatalf("dropped outcome: problems %q, failed %d; want a problem and 1 failed", p.problems, p.failed)
	}

	var q pass
	done[0].finished = false
	cfg.check(&q, d, done, st)
	if len(q.problems) == 0 || q.failed != 1 {
		t.Fatalf("unfinished task: problems %q, failed %d; want a problem and 1 failed", q.problems, q.failed)
	}
}

// Every catalogued metric of each kind is produced on every workload it
// applies to, with its catalogued unit.
func TestReportsCoverCatalogue(t *testing.T) {
	ctx := context.Background()
	cat := loadCatalogue()
	for _, w := range []workload{
		{"paper-grid", tinyGrid(nil).run},
		{"wq-backlog", tinyBacklog().run},
		{"wq-remote", tinyRemote().run},
	} {
		for _, trace := range []bool{false, true} {
			r, err := measure(ctx, w, 5, 0, trace, newSpanLog())
			if err != nil {
				t.Fatal(err)
			}
			if err := r.finish(cat, trace); err != nil {
				t.Errorf("%s trace=%v: %v", w.name, trace, err)
			}
			if !r.Correct {
				t.Errorf("%s trace=%v: problems %q", w.name, trace, r.Problems)
			}
		}
	}
}

// BENCHMARK.json at the repository root lists exactly the catalogue's
// metrics and workloads.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricSpec            `json:"end_to_end"`
		PerLayer  []metricSpec            `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	cat := loadCatalogue()
	key := func(m metricSpec) string { return m.Name + "|" + m.Unit + "|" + m.Better }
	want := map[string]string{}
	for _, m := range cat.Metrics {
		want[key(m)] = m.Kind
	}
	got := map[string]string{}
	for _, m := range b.EndToEnd {
		got[key(m)] = "end_to_end"
	}
	for _, m := range b.PerLayer {
		got[key(m)] = "per_layer"
	}
	for k, kind := range want {
		if got[k] != kind {
			t.Errorf("catalogue %s (%s) is %q in BENCHMARK.json", k, kind, got[k])
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("BENCHMARK.json lists %s, which the catalogue lacks", k)
		}
	}
	if len(b.Workloads) != len(cat.Workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, catalogue %d", len(b.Workloads), len(cat.Workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := cat.Workloads[w.Name]; !ok {
			t.Errorf("workload %s missing from the catalogue", w.Name)
		}
	}
}
