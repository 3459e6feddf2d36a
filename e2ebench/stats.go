package main

import (
	"math"
	"sort"
)

// minBeyond is the fewest samples that must lie above a percentile before it
// is reported: a tail figure resting on fewer samples is an anecdote.
const minBeyond = 10

// samples collects one timing distribution.
type samples []float64

// quantile returns the nearest-rank q-quantile (0 < q < 1) of the samples and
// how many samples lie above it. ok is false — and the value must not be
// reported — when fewer than minBeyond samples lie above it.
func (s samples) quantile(q float64) (v float64, beyond int, ok bool) {
	n := len(s)
	if n == 0 {
		return 0, 0, false
	}
	sorted := append(samples(nil), s...)
	sort.Float64s(sorted)
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	beyond = n - 1 - idx
	return sorted[idx], beyond, beyond >= minBeyond
}

// pct reports the q-quantile as a metric value carrying its sample count; a
// refused quantile reads 0 with the count, so the report shows why it is
// missing.
func (s samples) pct(q float64, unit string) value {
	v, _, ok := s.quantile(q)
	if !ok {
		return value{Unit: unit, N: len(s), Refused: true}
	}
	return value{V: v, Unit: unit, N: len(s)}
}

// sum returns the total of the samples.
func (s samples) sum() float64 {
	t := 0.0
	for _, x := range s {
		t += x
	}
	return t
}

// median returns the middle of a handful of per-pass figures (the mean of the
// middle two for an even count). It aggregates repeats, not tail samples, so
// the minBeyond rule does not apply.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// iqm returns the interquartile mean of a handful of per-pass figures: the
// mean of what is left after a quarter (rounded down) is dropped from each
// end. Pass times of the live engine are bimodal — how many results one
// dispatch scan finds depends on timing — and a median jumps between the
// modes with the mix, where a mean moves with it smoothly; the trim keeps
// a pass caught in a host stall from moving it.
func iqm(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := len(s) / 4
	s = s[k : len(s)-k]
	t := 0.0
	for _, x := range s {
		t += x
	}
	return t / float64(len(s))
}
