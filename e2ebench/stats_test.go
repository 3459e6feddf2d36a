package main

import "testing"

func seq(n int) samples {
	s := make(samples, n)
	for i := range s {
		s[i] = float64(n - i) // descending: quantile must sort
	}
	return s
}

func TestQuantileNearestRank(t *testing.T) {
	s := seq(50)
	v, beyond, ok := s.quantile(0.5)
	if v != 25 || beyond != 25 || !ok {
		t.Fatalf("p50 of 1..50 = %v (%d beyond, ok=%v), want 25 (25 beyond, ok)", v, beyond, ok)
	}
	// p80 has exactly ten samples above it; p81 has nine and is refused.
	if v, beyond, ok := s.quantile(0.8); v != 40 || beyond != 10 || !ok {
		t.Fatalf("p80 of 1..50 = %v (%d beyond, ok=%v), want 40 (10 beyond, ok)", v, beyond, ok)
	}
	if _, beyond, ok := s.quantile(0.81); beyond != 9 || ok {
		t.Fatalf("p81 of 1..50: %d beyond, ok=%v; want 9 beyond, refused", beyond, ok)
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n       int
		refused bool
	}{{0, true}, {1, true}, {999, true}, {1000, false}, {20000, false}} {
		got := seq(tc.n).pct(0.99, "ms")
		if got.Refused != tc.refused || got.N != tc.n || got.Unit != "ms" {
			t.Errorf("p99 of %d samples = %+v, want refused=%v with n=%d", tc.n, got, tc.refused, tc.n)
		}
		if got.Refused && got.V != 0 {
			t.Errorf("refused p99 of %d samples reports %v, want 0", tc.n, got.V)
		}
	}
	if got := seq(1000).pct(0.99, "ms"); got.V != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got.V)
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{{nil, 0}, {[]float64{3}, 3}, {[]float64{5, 1, 3}, 3}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestIQM(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{4, 2}, 3},
		{[]float64{100, 1, 2, 3}, 2.5},           // one dropped from each end
		{[]float64{9, 1, 2, 3, 4, 5, 6, 7}, 4.5}, // two dropped from each end
	} {
		if got := iqm(tc.xs); got != tc.want {
			t.Errorf("iqm(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}
