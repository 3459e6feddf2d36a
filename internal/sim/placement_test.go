package sim

import (
	"math"
	"testing"

	"dynalloc/internal/allocator"
	"dynalloc/internal/dispatch"
	"dynalloc/internal/opportunistic"
	"dynalloc/internal/resources"
	"dynalloc/internal/workflow"
)

func TestPlacementParseRoundTrip(t *testing.T) {
	for _, p := range Placements() {
		got, err := ParsePlacement(p.String())
		if err != nil || got != p {
			t.Errorf("round-trip %v: %v %v", p, got, err)
		}
	}
	if _, err := ParsePlacement("nope"); err == nil {
		t.Error("bad placement should fail to parse")
	}
	if Placement(99).String() == "" {
		t.Error("unknown placement should still stringify")
	}
}

func TestPickPolicies(t *testing.T) {
	shape := resources.New(16, 64*1024, 64*1024, resources.Unlimited)
	s := &simulator{}
	mkWorker := func(id int, usedMem float64) *simWorker {
		w := &simWorker{Worker: dispatch.Worker{ID: id, Capacity: shape}}
		s.pool.Join(&w.Worker)
		s.pool.Hold(&w.Worker, resources.New(0, usedMem, 0, 0))
		s.byID = append(s.byID, w)
		return w
	}
	workers := []*simWorker{
		mkWorker(0, 30000), // moderately loaded
		mkWorker(1, 60000), // nearly full
		mkWorker(2, 1000),  // nearly empty
	}
	alloc := resources.New(1, 2000, 100, resources.Unlimited)
	pick := func(p Placement, alloc resources.Vector) *simWorker {
		s.cfg.Place = p
		return s.pickWorker(alloc, 0)
	}

	if w := pick(FirstFit, alloc); w.ID != 0 {
		t.Errorf("first-fit chose %d, want 0", w.ID)
	}
	if w := pick(WorstFit, alloc); w.ID != 2 {
		t.Errorf("worst-fit chose %d, want 2 (most free memory)", w.ID)
	}
	if w := pick(BestFit, alloc); w.ID != 1 {
		t.Errorf("best-fit chose %d, want 1 (tightest fit)", w.ID)
	}

	// Nothing fits: nil.
	huge := resources.New(1, 65000, 100, resources.Unlimited)
	if w := pick(BestFit, huge); w != nil {
		t.Errorf("impossible allocation placed on %d", w.ID)
	}
	// Evicted workers leave the scan set entirely (the simulator removes
	// them from the alive pool), so pick never sees them.
	s.pool.Leave(&workers[2].Worker)
	if w := pick(WorstFit, alloc); w.ID != 0 {
		t.Errorf("worst-fit with evicted worker chose %d, want 0", w.ID)
	}
}

// The robustness claim: the allocator's efficiency is insensitive to the
// placement policy (which only permutes completion order), so AWE across
// policies stays within a few points.
func TestAWERobustAcrossPlacementPolicies(t *testing.T) {
	w, err := workflow.ByName("bimodal", 300, 9)
	if err != nil {
		t.Fatal(err)
	}
	var awes []float64
	for _, p := range Placements() {
		pol := allocator.MustNew(allocator.Exhaustive, allocator.Config{Seed: 10})
		res, err := Run(Config{
			Workflow: w,
			Policy:   pol,
			Pool:     opportunistic.Static{N: 10},
			Place:    p,
		})
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if len(res.Outcomes) != 300 {
			t.Fatalf("%v: %d outcomes", p, len(res.Outcomes))
		}
		awes = append(awes, res.Acc.AWE(resources.Memory))
	}
	lo, hi := awes[0], awes[0]
	for _, a := range awes {
		lo = math.Min(lo, a)
		hi = math.Max(hi, a)
	}
	if hi-lo > 0.10 {
		t.Errorf("AWE spread across placements = %v (%v); allocator not placement-robust", hi-lo, awes)
	}
}
