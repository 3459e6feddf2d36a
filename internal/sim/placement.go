package sim

import (
	"errors"
	"fmt"

	"dynalloc/internal/names"
)

// Placement selects which worker a dispatchable task lands on. The paper's
// Section II-D1 names scheduling-induced ordering (data locality, worker
// capacity, priorities) as a source of internal stochasticity that a robust
// allocator must tolerate; making placement pluggable lets the test suite
// and the robustness experiments vary exactly that.
type Placement int

const (
	// FirstFit places a task on the first alive worker with room — Work
	// Queue's default greedy behaviour.
	FirstFit Placement = iota
	// WorstFit places a task on the worker with the most free memory,
	// spreading load across the pool.
	WorstFit
	// BestFit places a task on the worker whose free memory is tightest,
	// packing the pool densely.
	BestFit
	// Locality places a task on the worker already caching the most of its
	// input data (requires Config.Data); ties and cache-less pools fall
	// back to first-fit order. This is TaskVine's scheduling preference.
	Locality
)

func (p Placement) String() string {
	switch p {
	case FirstFit:
		return "first-fit"
	case WorstFit:
		return "worst-fit"
	case BestFit:
		return "best-fit"
	case Locality:
		return "locality"
	default:
		return fmt.Sprintf("Placement(%d)", int(p))
	}
}

// Placements returns all placement policies.
func Placements() []Placement { return []Placement{FirstFit, WorstFit, BestFit, Locality} }

// ErrUnknownPlacement is returned (wrapped) when a placement name does not
// match any placement policy. Match it with errors.Is; it completes the
// sentinel taxonomy alongside workflow.ErrUnknownWorkflow and
// allocator.ErrUnknownAlgorithm.
var ErrUnknownPlacement = errors.New("sim: unknown placement policy")

// ParsePlacement converts a placement name to a Placement, following the
// shared Names()/Parse() registry contract: the error wraps
// ErrUnknownPlacement and lists the valid names.
func ParsePlacement(s string) (Placement, error) {
	return names.Parse(s, Placements(), Placement.String, ErrUnknownPlacement)
}
