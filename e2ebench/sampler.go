package main

import (
	"sort"
	"time"
)

// The benchmark host is shared, and how fast its cores run drifts by a third
// for minutes at a time as other work comes and goes: passes of the same code
// minutes apart take a third longer, with the CPU time growing alike. So while
// a pass runs, a sampler times a fixed kernel every sampleEvery — a pointer
// chase, map lookups and a sort over data it has just loaded into the core's
// caches, so the time is the core's speed then and not the cache state the
// program left — and every time figure of the pass is scaled by how much
// slower than kernelRef the kernel ran (the pass's slowness). The program's
// own speed is what remains; the kernel calls nothing in the module. Raw wall
// throughput and the slowness are reported per layer.

// kernelRef is the kernel's median time on the reference host (2 vCPU Intel
// Xeon, go1.24.0, GOMAXPROCS 1), where slowness reads 1.
const kernelRef = 60 * time.Microsecond

// sampleEvery spaces the samples: a pass of a few seconds gets about a
// hundred, and the sampler takes under 1% of the pass.
const sampleEvery = 50 * time.Millisecond

var (
	kernelPerm   []uint32
	kernelKeys   map[uint32]uint32
	kernelFloats []float64
	kernelWork   []float64
	kernelSink   uint64
)

func init() {
	x := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	// One cycle through every slot (Sattolo's shuffle).
	kernelPerm = make([]uint32, 1<<16)
	for i := range kernelPerm {
		kernelPerm[i] = uint32(i)
	}
	for i := len(kernelPerm) - 1; i > 0; i-- {
		j := int(next() % uint64(i))
		kernelPerm[i], kernelPerm[j] = kernelPerm[j], kernelPerm[i]
	}
	kernelKeys = make(map[uint32]uint32, 2048)
	for i := 0; i < 2048; i++ {
		kernelKeys[uint32(next())] = uint32(i)
	}
	kernelFloats = make([]float64, 256)
	for i := range kernelFloats {
		kernelFloats[i] = float64(next()%1e6) / 7
	}
	kernelWork = make([]float64, len(kernelFloats))
}

// hostKernel chases pointers, looks up a map and sorts, allocating nothing.
func hostKernel() uint64 {
	p := uint32(0)
	for i := 0; i < 3000; i++ {
		p = kernelPerm[p]
	}
	sum := uint64(p)
	k := uint32(1)
	for i := 0; i < 1500; i++ {
		k = k*1664525 + 1013904223
		sum += uint64(kernelKeys[k])
	}
	copy(kernelWork, kernelFloats)
	sort.Float64s(kernelWork)
	return sum + uint64(kernelWork[128])
}

// sampler times hostKernel while a pass runs.
type sampler struct {
	stop  chan struct{}
	done  chan struct{}
	times []float64 // ns
}

func startSampler() *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(sampleEvery)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
			kernelSink += hostKernel() // loads the kernel's data into the caches
			t0 := time.Now()
			kernelSink += hostKernel()
			s.times = append(s.times, float64(time.Since(t0)))
		}
	}()
	return s
}

// finish stops the sampler and returns the pass's slowness: the median kernel
// time over kernelRef, or 1 when the pass ended before the first sample.
func (s *sampler) finish() float64 {
	close(s.stop)
	<-s.done
	if len(s.times) == 0 {
		return 1
	}
	return median(s.times) / float64(kernelRef)
}
