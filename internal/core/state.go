package core

import (
	"math"
	"math/rand/v2"
	"time"

	"dynalloc/internal/record"
)

// Stats exposes the telemetry the paper reports in Table I and Section V-C:
// how often the bucketing state was recomputed, how long the recomputations
// took, and how large the bucket sets grew.
type Stats struct {
	Recomputes    int           // number of bucket recomputations performed
	RecomputeTime time.Duration // cumulative wall time spent recomputing
	Predictions   int           // number of Predict/Retry calls served (Floor is not one)
	LastBuckets   int           // bucket count after the latest recomputation
	MaxBuckets    int           // largest bucket count ever observed
}

// State is the bucketing state for one resource kind of one task category
// (Figure 3a: the bucketing manager maintains a separate state per resource
// type). Records are accumulated as tasks complete; the bucket set is
// recomputed lazily on the next prediction after an update, which realizes
// the batching behaviour described in Section V-C (a sequence of completed
// tasks between two ready tasks costs one recomputation).
//
// The state owns all working memory of the recompute path — the partition
// scratch, the bucket slice, and the cumulative-probability array — and
// reuses it across recomputations, so a warm recompute is allocation-free.
//
// State is not safe for concurrent use; callers serialize access (the
// allocator owns one goroutine-confined state per category and kind).
type State struct {
	alg      Algorithm
	recs     record.List
	buckets  []Bucket
	cum      []float64 // cum[i] = Σ buckets[0..i].Prob, for Predict sampling
	scratch  Scratch
	computed bool // a bucket set exists (distinguishes empty from stale)
	dirty    bool
	stats    Stats
}

// NewState returns an empty bucketing state driven by the given algorithm.
func NewState(alg Algorithm) *State {
	return &State{alg: alg}
}

// Algorithm returns the bucket-finding algorithm driving this state.
func (s *State) Algorithm() Algorithm { return s.alg }

// Add records the peak consumption of a completed task and marks the bucket
// set stale.
func (s *State) Add(r record.Record) {
	s.recs.Add(r)
	s.dirty = true
}

// Len returns the number of accumulated records.
func (s *State) Len() int { return s.recs.Len() }

// Records exposes the underlying record list (read-only use).
func (s *State) Records() *record.List { return &s.recs }

// Stats returns a copy of the state's telemetry counters.
func (s *State) Stats() Stats { return s.stats }

// Buckets returns the current bucket set, recomputing it first if any
// records arrived since the last computation. The returned slice is owned by
// the state and is valid until the first query after the next Add.
func (s *State) Buckets() []Bucket {
	if s.dirty || !s.computed {
		start := time.Now()
		ends := s.alg.Partition(&s.recs, &s.scratch)
		s.buckets, s.cum = appendBucketsCum(s.buckets[:0], s.cum[:0], &s.recs, ends)
		s.stats.RecomputeTime += time.Since(start)
		s.stats.Recomputes++
		s.stats.LastBuckets = len(s.buckets)
		if len(s.buckets) > s.stats.MaxBuckets {
			s.stats.MaxBuckets = len(s.buckets)
		}
		s.computed = true
		s.dirty = false
	}
	return s.buckets
}

// Predict returns the first-attempt allocation for the next task: a bucket
// is sampled in proportion to its probability value and its representative
// value is returned. With no records yet, Predict returns 0 and the caller
// (the allocator's exploratory mode) must supply a default.
func (s *State) Predict(r *rand.Rand) float64 {
	s.stats.Predictions++
	bs := s.Buckets()
	if len(bs) == 0 {
		return 0
	}
	return bs[sampleBucketCum(bs, s.cum, 0, r)].Rep
}

// Floor returns the smallest value Predict can return now, counting a
// non-positive representative (and the empty bucket set's 0) as fallback,
// and the number of random draws one Predict call makes. It recomputes a
// stale bucket set the way Predict would, draws nothing, and is not counted
// in Stats.Predictions.
func (s *State) Floor(fallback float64) (lo float64, draws int) {
	bs := s.Buckets()
	if len(bs) == 0 {
		return fallback, 0
	}
	lo = math.Inf(1)
	for _, b := range bs {
		v := b.Rep
		if v <= 0 {
			v = fallback
		}
		if v < lo { // not min(): a NaN representative never fits a worker
			lo = v
		}
	}
	// pickBucket draws only over a positive probability mass.
	if s.cum[len(s.cum)-1] <= 0 {
		return lo, 0
	}
	return lo, 1
}

// Retry returns the allocation for a task that exhausted a previous
// allocation of prev: only buckets with representative values strictly
// greater than prev are considered, with probabilities renormalized among
// them; when no such bucket exists the previous value is doubled
// (Section IV-A). A non-positive prev falls back to the smallest positive
// step so the doubling chain is always increasing.
func (s *State) Retry(prev float64, r *rand.Rand) float64 {
	s.stats.Predictions++
	bs := s.Buckets()
	from := len(bs)
	for i, b := range bs {
		if b.Rep > prev {
			from = i
			break
		}
	}
	if from == len(bs) {
		if prev <= 0 {
			return 1
		}
		return prev * 2
	}
	return bs[sampleBucketCum(bs, s.cum, from, r)].Rep
}
