// Package allocator implements the adaptive resource allocator of the paper:
// a per-task-category, per-resource-kind prediction layer that the task
// scheduler consults at dispatch time. It provides the seven allocation
// algorithms of the evaluation (Section V-A): Whole Machine, Max Seen,
// Min Waste, Max Throughput, Quantized Bucketing, Greedy Bucketing, and
// Exhaustive Bucketing, all behind one Policy interface, plus the
// exploratory-mode machinery shared by every predictive algorithm.
package allocator

import (
	"math"
	"math/rand/v2"

	"dynalloc/internal/record"
)

// Estimator predicts scalar allocations for one resource kind within one
// task category. Implementations are not safe for concurrent use; the
// Allocator serializes access.
type Estimator interface {
	// Predict returns the first-attempt allocation for the next task, or 0
	// when the estimator has no basis for a prediction yet (the exploration
	// wrapper supplies the default in that case).
	Predict(r *rand.Rand) float64
	// Retry returns the allocation after the task exhausted an allocation
	// of prev for this kind. Implementations must return a value strictly
	// greater than prev so escalation always terminates.
	Retry(prev float64, r *rand.Rand) float64
	// Floor returns a lower bound on what Predict can return now, counting
	// a non-positive return as fallback, and the exact number of random
	// draws one Predict call makes. Floor draws nothing and changes no
	// prediction.
	Floor(fallback float64) (lo float64, draws int)
	// Observe records the peak consumption of a completed task.
	Observe(rec record.Record)
	// Len reports how many records have been observed.
	Len() int
}

// explorer implements the exploratory mode of Section V-A: until the inner
// estimator has seen threshold records, every first attempt is allocated the
// fixed initial value and failures escalate by doubling. The bucketing
// algorithms explore conservatively (1 core / 1 GB / 1 GB); the alternative
// algorithms explore with a whole machine (Section V-C).
type explorer struct {
	inner     Estimator
	threshold int
	initial   float64
}

func (e *explorer) exploring() bool { return e.inner.Len() < e.threshold }

func (e *explorer) Predict(r *rand.Rand) float64 {
	if e.exploring() {
		return e.initial
	}
	if v := e.inner.Predict(r); v > 0 {
		return v
	}
	return e.initial
}

func (e *explorer) Floor(float64) (float64, int) {
	if e.exploring() {
		return e.initial, 0
	}
	return e.inner.Floor(e.initial)
}

func (e *explorer) Retry(prev float64, r *rand.Rand) float64 {
	if e.exploring() {
		if prev <= 0 {
			return e.initial
		}
		return prev * 2
	}
	return e.inner.Retry(prev, r)
}

func (e *explorer) Observe(rec record.Record) { e.inner.Observe(rec) }

func (e *explorer) Len() int { return e.inner.Len() }

// orFallback is v, or fallback when v is not positive.
func orFallback(v, fallback float64) float64 {
	if v > 0 {
		return v
	}
	return fallback
}

// minRep returns the smallest of reps, each counted through orFallback, or
// +Inf when reps is empty. NaN representatives are passed over: they never
// fit a worker, so they cannot weaken a lower bound used for placement.
func minRep(reps []float64, fallback float64) float64 {
	lo := math.Inf(1)
	for _, r := range reps {
		if v := orFallback(r, fallback); v < lo {
			lo = v
		}
	}
	return lo
}
