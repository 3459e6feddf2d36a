package sim

import (
	"fmt"
	"reflect"
	"testing"

	"dynalloc/internal/allocator"
	"dynalloc/internal/opportunistic"
	"dynalloc/internal/resources"
)

// policyOnly exposes only allocator.Policy, hiding the floor extension, so
// the dispatch gate predicts every scanned task.
type policyOnly struct{ allocator.Policy }

// countedAllocator counts real predictions and keeps the floor extension.
type countedAllocator struct {
	*allocator.Allocator
	allocates int
}

func (c *countedAllocator) Allocate(category string, taskID int) resources.Vector {
	c.allocates++
	return c.Allocator.Allocate(category, taskID)
}

// TestGatedDispatchMatchesFullPrediction is the exactness contract of the
// dispatch gate: a run whose allocator exposes the floor extension (gated
// scans skip unplaceable predictions and skip their random draws instead)
// must produce the same Result as the run that predicts every scanned
// task, for every algorithm and placement. The pool is two churning
// workers, so the backlog outlasts exploration and the gate skips
// predictions that draw. The workload runs once with its single category
// and once with three categories interleaved in runs, so a pass mixes
// skipped and real predictions and the skipped draws must be consumed
// mid-pass.
func TestGatedDispatchMatchesFullPrediction(t *testing.T) {
	const seed = 3
	config := func(t *testing.T, place Placement, interleave bool, pol allocator.Policy) Config {
		cfg := goldenConfig(t, seed, place, place == Locality)
		cfg.Pool = opportunistic.Churn{
			Initial: 2, MeanLifetime: 2000, MeanInterval: 1000,
			Horizon: 1e6, KeepLastAlive: true,
		}
		if interleave {
			for i := range cfg.Workflow.Tasks {
				cfg.Workflow.Tasks[i].Category = string(rune('a' + i/5%3))
			}
		}
		cfg.Policy = pol
		return cfg
	}
	for _, interleave := range []bool{false, true} {
		for _, alg := range allocator.ExtendedNames() {
			for _, place := range Placements() {
				t.Run(fmt.Sprintf("interleave=%v/%s/%s", interleave, alg, place), func(t *testing.T) {
					ref := &countedAllocator{Allocator: allocator.MustNew(alg, allocator.Config{Seed: seed + 100})}
					want, err := Run(config(t, place, interleave, policyOnly{ref}))
					if err != nil {
						t.Fatal(err)
					}
					pol := &countedAllocator{Allocator: allocator.MustNew(alg, allocator.Config{Seed: seed + 100})}
					got, err := Run(config(t, place, interleave, pol))
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) || resultFingerprint(got) != resultFingerprint(want) {
						t.Fatalf("gated run diverged: makespan %v vs %v, attempts %d vs %d",
							got.Makespan, want.Makespan, got.Summary().Attempts, want.Summary().Attempts)
					}
					if pol.allocates >= ref.allocates {
						t.Errorf("gate skipped nothing: %d predictions, %d without it", pol.allocates, ref.allocates)
					}
				})
			}
		}
	}
}
