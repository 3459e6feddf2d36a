package allocator

import (
	"math/rand/v2"

	"dynalloc/internal/core"
	"dynalloc/internal/record"
)

// bucketing adapts a core bucketing State (Greedy or Exhaustive) to the
// Estimator interface. This is the thin glue of Figure 3a: the task
// scheduler's allocation requests become Predict/Retry calls and completed
// tasks' resource records become Observe calls.
type bucketing struct {
	state *core.State
}

func newBucketing(alg core.Algorithm) *bucketing {
	return &bucketing{state: core.NewState(alg)}
}

func (b *bucketing) Predict(r *rand.Rand) float64 { return b.state.Predict(r) }

func (b *bucketing) Floor(fallback float64) (float64, int) { return b.state.Floor(fallback) }

func (b *bucketing) Retry(prev float64, r *rand.Rand) float64 { return b.state.Retry(prev, r) }

func (b *bucketing) Observe(rec record.Record) { b.state.Add(rec) }

func (b *bucketing) Len() int { return b.state.Len() }

// Stats exposes the underlying state's recomputation telemetry.
func (b *bucketing) Stats() core.Stats { return b.state.Stats() }
