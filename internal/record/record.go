// Package record stores the resource-consumption records that completed
// tasks report back to the allocator. Every allocation algorithm in the
// paper is a function of such a record list: the bucketing algorithms break
// it into buckets, Max Seen takes its maximum, and the Tovar strategies sweep
// it for a first-allocation value.
//
// A List is append-only and maintains, lazily, a value-sorted view with
// prefix sums of significance, value·significance, time, and value·time, so
// that every range statistic the algorithms need (bucket probabilities,
// significance-weighted means, expected-waste sweeps) is O(1) per query after
// an O(n log n) rebuild.
package record

import (
	"fmt"
	"sort"
)

// Record is one completed task's observation for a single resource kind.
type Record struct {
	TaskID int     // submission identifier of the task
	Value  float64 // peak consumption of the resource during the run
	Sig    float64 // significance; the paper sets it to the task ID (Section V-A)
	Time   float64 // execution time in seconds, used by time-weighted baselines
}

// List accumulates records and serves sorted range statistics.
// The zero value is an empty, ready-to-use list.
//
// Additions between queries are buffered and merged into the sorted view on
// the next rebuild: sorting only the pending batch and merging it keeps the
// per-update cost at O(n + k log k) for k new records instead of re-sorting
// the whole list, which matters when a long workflow recomputes its
// bucketing state after every completed task.
type List struct {
	recs    []Record
	sorted  []Record
	spare   []Record // retired sorted view, reused as the next merge target
	pending []Record
	dirty   bool

	prefixSig    []float64 // prefixSig[i] = Σ sorted[0..i-1].Sig
	prefixValSig []float64 // Σ sorted[k].Value * sorted[k].Sig
	prefixTime   []float64 // Σ sorted[k].Time
	prefixValT   []float64 // Σ sorted[k].Value * sorted[k].Time
}

// Add appends a record. Significance values must be positive for the
// probability weighting to be well defined; non-positive significances are
// clamped to a tiny epsilon so a record never disappears entirely.
func (l *List) Add(r Record) {
	if r.Sig <= 0 {
		r.Sig = 1e-9
	}
	l.recs = append(l.recs, r)
	l.pending = append(l.pending, r)
	l.dirty = true
}

// Len returns the number of records.
func (l *List) Len() int { return len(l.recs) }

// All returns the records in insertion order. The returned slice must not be
// modified.
func (l *List) All() []Record { return l.recs }

// rebuild brings the sorted view up to date. It is small enough to inline
// into the accessors, which the sweeps call once per record.
func (l *List) rebuild() {
	if l.dirty || l.sorted == nil {
		l.merge()
	}
}

// merge folds the pending batch into the sorted view and its prefix sums.
func (l *List) merge() {
	// Sort the pending batch (stable, preserving insertion order among
	// equal values) and merge it with the already-sorted view.
	sort.SliceStable(l.pending, func(i, j int) bool {
		return l.pending[i].Value < l.pending[j].Value
	})
	// firstChanged is the first sorted index whose record moved; prefix sums
	// below it are still valid and are not recomputed.
	firstChanged := len(l.sorted)
	switch {
	case len(l.pending) == 0:
		// First query on an empty list: materialize the (empty) view.
		firstChanged = 0
	case len(l.sorted) == 0:
		l.sorted = append(l.sorted, l.pending...)
		firstChanged = 0
	case l.pending[0].Value >= l.sorted[len(l.sorted)-1].Value:
		// Append fast path: the whole batch lands at or above the current
		// maximum, which is the common case for monotone workload phases.
		// (On ties the merge below would also keep the older records first,
		// so appending matches it exactly.)
		l.sorted = append(l.sorted, l.pending...)
	case len(l.pending) == 1:
		// One record, the common case when every completion is followed by
		// a query: insert it before the first record the merge would not
		// keep ahead of it (the first not <= its value) with one block move.
		r := l.pending[0]
		i := sort.Search(len(l.sorted), func(i int) bool { return !(l.sorted[i].Value <= r.Value) })
		l.sorted = append(l.sorted, Record{})
		copy(l.sorted[i+1:], l.sorted[i:])
		l.sorted[i] = r
		firstChanged = i
	default:
		// Merge into the retired buffer of the previous rebuild rather than
		// a fresh slice; the two views ping-pong so the steady state is
		// allocation-free.
		need := len(l.sorted) + len(l.pending)
		merged := l.spare[:0]
		if cap(merged) < need {
			merged = make([]Record, 0, need+need/4)
		}
		i, j := 0, 0
		for i < len(l.sorted) && j < len(l.pending) {
			// <= keeps earlier-inserted (already sorted) records first on
			// ties, matching a stable sort of the full list.
			if l.sorted[i].Value <= l.pending[j].Value {
				merged = append(merged, l.sorted[i])
				i++
			} else {
				if j == 0 {
					firstChanged = i
				}
				merged = append(merged, l.pending[j])
				j++
			}
		}
		merged = append(merged, l.sorted[i:]...)
		merged = append(merged, l.pending[j:]...)
		l.sorted, l.spare = merged, l.sorted
	}
	l.pending = l.pending[:0]
	n := len(l.sorted)
	if cap(l.prefixSig) < n+1 {
		c := n + 1 + (n+1)/4
		l.prefixSig = make([]float64, n+1, c)
		l.prefixValSig = make([]float64, n+1, c)
		l.prefixTime = make([]float64, n+1, c)
		l.prefixValT = make([]float64, n+1, c)
		firstChanged = 0
	} else {
		l.prefixSig = l.prefixSig[:n+1]
		l.prefixValSig = l.prefixValSig[:n+1]
		l.prefixTime = l.prefixTime[:n+1]
		l.prefixValT = l.prefixValT[:n+1]
	}
	if firstChanged == 0 {
		l.prefixSig[0], l.prefixValSig[0], l.prefixTime[0], l.prefixValT[0] = 0, 0, 0, 0
	}
	for i := firstChanged; i < n; i++ {
		r := l.sorted[i]
		l.prefixSig[i+1] = l.prefixSig[i] + r.Sig
		l.prefixValSig[i+1] = l.prefixValSig[i] + r.Value*r.Sig
		l.prefixTime[i+1] = l.prefixTime[i] + r.Time
		l.prefixValT[i+1] = l.prefixValT[i] + r.Value*r.Time
	}
	l.dirty = false
}

// Sorted returns the records sorted ascending by value. The returned slice
// is owned by the list and must not be modified; it is valid until the next
// Add.
func (l *List) Sorted() []Record {
	l.rebuild()
	return l.sorted
}

// Value returns the value of the i-th record in sorted order.
func (l *List) Value(i int) float64 {
	l.rebuild()
	return l.sorted[i].Value
}

// MaxValue returns the largest value recorded, or 0 for an empty list.
func (l *List) MaxValue() float64 {
	if l.Len() == 0 {
		return 0
	}
	l.rebuild()
	return l.sorted[len(l.sorted)-1].Value
}

// MinValue returns the smallest value recorded, or 0 for an empty list.
func (l *List) MinValue() float64 {
	if l.Len() == 0 {
		return 0
	}
	l.rebuild()
	return l.sorted[0].Value
}

// SigSum returns the total significance of sorted records in [lo, hi]
// (inclusive indices).
func (l *List) SigSum(lo, hi int) float64 {
	l.rebuild()
	l.checkRange(lo, hi)
	return l.prefixSig[hi+1] - l.prefixSig[lo]
}

// TotalSig returns the total significance of all records.
func (l *List) TotalSig() float64 {
	l.rebuild()
	return l.prefixSig[len(l.sorted)]
}

// WeightedMean returns the significance-weighted mean value of sorted
// records in [lo, hi] (inclusive). This is the v_lo / v_hi / v_i estimator
// of Sections IV-B and IV-C.
func (l *List) WeightedMean(lo, hi int) float64 {
	l.rebuild()
	l.checkRange(lo, hi)
	sig := l.prefixSig[hi+1] - l.prefixSig[lo]
	if sig == 0 {
		return 0
	}
	return (l.prefixValSig[hi+1] - l.prefixValSig[lo]) / sig
}

// TimeSum returns the total execution time of sorted records in [lo, hi].
func (l *List) TimeSum(lo, hi int) float64 {
	l.rebuild()
	l.checkRange(lo, hi)
	return l.prefixTime[hi+1] - l.prefixTime[lo]
}

// ValueTimeSum returns Σ value·time over sorted records in [lo, hi]. The
// Tovar baselines use it to evaluate time-weighted expected waste.
func (l *List) ValueTimeSum(lo, hi int) float64 {
	l.rebuild()
	l.checkRange(lo, hi)
	return l.prefixValT[hi+1] - l.prefixValT[lo]
}

// SearchValue returns the index of the last sorted record whose value is
// strictly less than v, or -1 when no record is below v. This implements the
// "map its value to the closest record that has a lower value than it" step
// of the Exhaustive Bucketing combinations optimization (Section IV-D).
func (l *List) SearchValue(v float64) int {
	l.rebuild()
	// sort.Search finds the first index with value >= v.
	i := sort.Search(len(l.sorted), func(i int) bool { return l.sorted[i].Value >= v })
	return i - 1
}

// View is a read-only snapshot of the sorted record list: the sorted records
// and the prefix-sum slices, exposed directly so that tight partition sweeps
// pay no per-access dirty check or range validation. A View is valid until
// the next Add on its List; the slices are owned by the List and must not be
// modified. Unlike the List accessors, View methods do not re-validate
// ranges — callers index within [0, Len()).
type View struct {
	Sorted       []Record
	PrefixSig    []float64
	PrefixValSig []float64
	PrefixTime   []float64
	PrefixValT   []float64
}

// View rebuilds the sorted view if needed and returns a snapshot of it.
func (l *List) View() View {
	l.rebuild()
	return View{
		Sorted:       l.sorted,
		PrefixSig:    l.prefixSig,
		PrefixValSig: l.prefixValSig,
		PrefixTime:   l.prefixTime,
		PrefixValT:   l.prefixValT,
	}
}

// Len returns the number of records in the snapshot.
func (v View) Len() int { return len(v.Sorted) }

// Value returns the value of the i-th record in sorted order.
func (v View) Value(i int) float64 { return v.Sorted[i].Value }

// MaxValue returns the largest value in the snapshot, or 0 when empty.
func (v View) MaxValue() float64 {
	if len(v.Sorted) == 0 {
		return 0
	}
	return v.Sorted[len(v.Sorted)-1].Value
}

// TotalSig returns the total significance of all records.
func (v View) TotalSig() float64 { return v.PrefixSig[len(v.Sorted)] }

// SigSum returns the total significance of sorted records in [lo, hi]
// (inclusive indices).
func (v View) SigSum(lo, hi int) float64 { return v.PrefixSig[hi+1] - v.PrefixSig[lo] }

// WeightedMean returns the significance-weighted mean value of sorted
// records in [lo, hi] (inclusive), or 0 for a zero-significance range —
// bit-identical to List.WeightedMean.
func (v View) WeightedMean(lo, hi int) float64 {
	sig := v.PrefixSig[hi+1] - v.PrefixSig[lo]
	if sig == 0 {
		return 0
	}
	return (v.PrefixValSig[hi+1] - v.PrefixValSig[lo]) / sig
}

// SearchValue returns the index of the last record whose value is strictly
// less than x, or -1 when no record is below x.
func (v View) SearchValue(x float64) int {
	i := sort.Search(len(v.Sorted), func(i int) bool { return v.Sorted[i].Value >= x })
	return i - 1
}

func (l *List) checkRange(lo, hi int) {
	if lo < 0 || hi >= len(l.sorted) || lo > hi {
		panic(fmt.Sprintf("record: range [%d,%d] out of bounds for %d records", lo, hi, len(l.sorted)))
	}
}
