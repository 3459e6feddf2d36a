package dispatch

import (
	"testing"

	"dynalloc/internal/dist"
	"dynalloc/internal/resources"
)

// BenchmarkPlacementIndex100k probes the capacity index at 100k worker
// slots under a mixed load (uniform fill, so ~1 in 9 workers is too full
// for the probe allocation). Updates and first-fit/worst-fit queries are
// O(log W); best-fit is exact branch-and-bound — its score lower bound
// keeps pointing into subtrees of too-full workers, so under mixed loads
// it degenerates toward the cost of the linear scan it replaced. The
// sub-runs keep those costs separately visible in the trajectory.
func BenchmarkPlacementIndex100k(b *testing.B) {
	const n = 100_000
	shape := resources.PaperWorker()
	ci := newCapIndex(n)
	r := dist.NewRand(7)
	workers := make([]*Worker, n)
	for i := range workers {
		w := newWorker(i, shape)
		w.used = shape.Scale(r.Float64() * 0.95)
		workers[i] = w
		ci.update(i, w)
	}
	alloc := resources.New(3, 12000, 6000, 0)
	b.Run("update", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			slot := int(uint64(i) * 2654435761 % n)
			w := workers[slot]
			w.used = shape.Scale(float64(i%97) / 100)
			ci.update(slot, w)
		}
	})
	probe := func(fit func(resources.Vector) *Worker) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if fit(alloc) == nil {
					b.Fatal("index lost every worker")
				}
			}
		}
	}
	b.Run("first-fit", probe(ci.firstFit))
	b.Run("worst-fit", probe(ci.worstFit))
	b.Run("best-fit", probe(ci.bestFit))
}
