package allocator

import (
	"math/rand/v2"
	"testing"

	"dynalloc/internal/resources"
)

// TestFloorBoundsAllocateAndSkipMatchesDraws pins the two promises a
// dispatcher relies on to skip predictions exactly: no allocation Allocate
// samples is below Floor on any kind, and Skip(draws) leaves the random
// stream where one Allocate call leaves it. Two allocators share a config
// and a randomized history; one predicts, the other floors and skips, and
// their streams must agree after every call. The histories cover exploring
// categories, kinds whose records are all zero, mixed zero and positive
// records, and records past worker capacity.
func TestFloorBoundsAllocateAndSkipMatchesDraws(t *testing.T) {
	configs := []Config{
		{},
		{AllocateTime: true, ExploreCount: 3},
		// A zero exploration value on memory and time: non-positive
		// predictions and the fallback meet the clamp's own fallback.
		{AllocateTime: true, ExploreCount: 5, Exploration: resources.New(2, 0, 512, 0)},
	}
	for _, alg := range ExtendedNames() {
		for seed, base := range configs {
			cfg := base
			cfg.Seed = uint64(seed) + 7
			ref, gated := MustNew(alg, cfg), MustNew(alg, cfg)
			r := rand.New(rand.NewPCG(uint64(seed), 99))
			cats := []string{"zero-disk", "mixed", "wide", "never-observed"}
			for step := 0; step < 80; step++ {
				cat := cats[r.IntN(3)]
				peak := resources.New(1+r.Float64()*4, r.Float64()*8000, r.Float64()*8000, 1+r.Float64()*100)
				switch cat {
				case "zero-disk":
					peak = peak.With(resources.Disk, 0)
				case "mixed":
					if r.IntN(2) == 0 {
						peak = peak.With(resources.Memory, 0)
					}
				case "wide":
					peak = peak.Scale(1 + r.Float64()*20) // past capacity at times
				}
				ref.Observe(cat, step, peak, peak.Get(resources.Time))
				gated.Observe(cat, step, peak, peak.Get(resources.Time))
				for _, c := range cats {
					for i := 0; i < 5; i++ {
						floor, draws := gated.Floor(c)
						got := ref.Allocate(c, step)
						gated.Skip(draws)
						for _, k := range resources.Kinds() {
							if got.Get(k) < floor.Get(k) {
								t.Fatalf("%s cfg %d step %d %s: Allocate %s = %v below Floor %v",
									alg, seed, step, c, k, got.Get(k), floor.Get(k))
							}
						}
						if a, b := ref.rng.Uint64(), gated.rng.Uint64(); a != b {
							t.Fatalf("%s cfg %d step %d %s: Skip(%d) left the stream apart from one Allocate",
								alg, seed, step, c, draws)
						}
					}
				}
			}
		}
	}
}
