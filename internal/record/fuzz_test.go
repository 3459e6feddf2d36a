package record

import (
	"math"
	"sort"
	"testing"
)

// FuzzRecordListMergeMatchesResort pins the incremental rebuild machinery —
// the pending-batch merge, the append fast path, the double-buffered sorted
// view, and the partial prefix-sum recompute — against the obvious oracle: a
// stable sort of all records from scratch plus freshly summed prefixes.
// The fuzzer drives random Add/query interleavings, including duplicate
// values (stability), monotone runs (the append fast path) and single-record
// batches (the insertion path).
func FuzzRecordListMergeMatchesResort(f *testing.F) {
	f.Add([]byte{1, 2, 3, 0, 4, 5, 0, 6}, uint8(3))
	f.Add([]byte{9, 9, 9, 9, 0, 1, 1, 0, 255, 0}, uint8(1))
	f.Add([]byte{0, 0, 0}, uint8(7))
	// Batches of one (a query after every Add): single-record insertion at
	// the front, between ties, in the middle, and past the maximum.
	f.Add([]byte{5, 3, 8, 3, 1, 9, 3, 21, 6, 17}, uint8(0))
	f.Add([]byte{7, 0, 2, 0, 7, 0, 4, 0, 23, 0, 1}, uint8(4))
	f.Fuzz(func(t *testing.T, vals []byte, mod uint8) {
		l := &List{}
		var oracle []Record
		check := func() {
			t.Helper()
			want := append([]Record(nil), oracle...)
			sort.SliceStable(want, func(i, j int) bool { return want[i].Value < want[j].Value })
			got := l.Sorted()
			if len(got) != len(want) {
				t.Fatalf("sorted length %d, want %d", len(got), len(want))
			}
			var sig, valSig, tm, valT float64
			for i, w := range want {
				if got[i] != w {
					t.Fatalf("sorted[%d] = %+v, want %+v (stability or merge order broken)", i, got[i], w)
				}
				sig += w.Sig
				valSig += w.Value * w.Sig
				tm += w.Time
				valT += w.Value * w.Time
				lo := i / 2 // an arbitrary interior range per position
				if gotSum, wantSum := l.SigSum(lo, i), prefixOracle(want, lo, i, func(r Record) float64 { return r.Sig }); !close(gotSum, wantSum) {
					t.Fatalf("SigSum(%d,%d) = %v, want %v", lo, i, gotSum, wantSum)
				}
			}
			n := len(want)
			if n == 0 {
				return
			}
			if got, want := l.TotalSig(), sig; !close(got, want) {
				t.Fatalf("TotalSig = %v, want %v", got, want)
			}
			if got, want := l.TimeSum(0, n-1), tm; !close(got, want) {
				t.Fatalf("TimeSum = %v, want %v", got, want)
			}
			if got, want := l.ValueTimeSum(0, n-1), valT; !close(got, want) {
				t.Fatalf("ValueTimeSum = %v, want %v", got, want)
			}
			v := l.View()
			if v.Len() != n || v.MaxValue() != want[n-1].Value {
				t.Fatalf("View disagrees with oracle: len %d max %v", v.Len(), v.MaxValue())
			}
		}
		period := int(mod%5) + 1
		for i, b := range vals {
			// Byte 0 forces an interleaved query; other bytes add a record.
			// Values repeat heavily (mod 16) to exercise tie stability, and
			// ascending task IDs double as the paper's significance.
			if b == 0 {
				check()
				continue
			}
			r := Record{
				TaskID: i + 1,
				Value:  float64(b % 16),
				Sig:    float64(i + 1),
				Time:   float64(b%7) + 0.5,
			}
			l.Add(r)
			r.Sig = math.Max(r.Sig, 1e-9) // mirror the Add clamp
			oracle = append(oracle, r)
			if (i+1)%period == 0 {
				check()
			}
		}
		check()
	})
}

// prefixOracle sums f over want[lo..hi] directly.
func prefixOracle(want []Record, lo, hi int, f func(Record) float64) float64 {
	s := 0.0
	for i := lo; i <= hi; i++ {
		s += f(want[i])
	}
	return s
}

// close compares the prefix-sum-derived statistic against the direct sum;
// the two accumulate in different orders, so exact equality is not required
// here (the golden tests pin the production arithmetic bit-exactly).
func close(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b))
}
