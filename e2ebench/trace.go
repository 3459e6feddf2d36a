package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"dynalloc/internal/allocator"
	"dynalloc/internal/resources"
	"dynalloc/internal/serve"
)

// maxSpans caps the in-memory span log; spans past it are counted, not kept.
const maxSpans = 1 << 18

// span is one traced interval at a layer boundary. Spans of one task share
// its task ID; Parent names the enclosing unit (a grid cell, or "task" for
// the task's own submit-to-outcome span).
type span struct {
	Layer   string  `json:"layer"`
	Name    string  `json:"name"`
	Task    int     `json:"task"`
	Parent  string  `json:"parent,omitempty"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
}

// spanLog keeps a run's spans in memory until the run ends. Times are
// relative to the log's origin.
type spanLog struct {
	origin  time.Time
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

func (l *spanLog) add(layer, name string, task int, parent string, start time.Time, d time.Duration) {
	if l == nil {
		return
	}
	l.mu.Lock()
	if len(l.spans) < maxSpans {
		l.spans = append(l.spans, span{
			Layer: layer, Name: name, Task: task, Parent: parent,
			StartUS: float64(start.Sub(l.origin)) / 1e3,
			DurUS:   float64(d) / 1e3,
		})
	} else {
		l.dropped++
	}
	l.mu.Unlock()
}

// write stores the spans as JSON lines under dir and returns the file path.
func (l *spanLog) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			return "", err
		}
	}
	if l.dropped > 0 {
		fmt.Fprintf(bw, "{\"dropped\":%d}\n", l.dropped)
	}
	if err := bw.Flush(); err != nil {
		return "", err
	}
	return path, f.Close()
}

// probe counts every call through one layer boundary and times a fixed
// 1-in-every sample of them. Timing every call of a hot boundary (Allocate
// under a backlog runs thousands of times per task) would double the run it
// measures, so totals are estimated as mean sampled time × calls.
type probe struct {
	layer, name string
	every       uint64
	spans       *spanLog
	calls       atomic.Uint64
	mu          sync.Mutex
	durs        samples // sampled durations, µs
}

func newProbe(layer, name string, every uint64, spans *spanLog) *probe {
	return &probe{layer: layer, name: name, every: every, spans: spans}
}

// begin counts a call and reports whether this one is timed. The choice
// hashes the call number rather than taking every Nth call: engines call the
// allocator in periodic patterns (a dispatch pass over a queue of fixed
// length opens with the one Allocate that recomputes), which a fixed stride
// could sample in lockstep.
func (p *probe) begin() (time.Time, bool) {
	if mix(p.calls.Add(1))%p.every != 0 {
		return time.Time{}, false
	}
	return time.Now(), true
}

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// clockCost is what an empty timed span reads: the cost of reading the
// clock, subtracted from every sampled duration.
var clockCost = func() time.Duration {
	s := make(samples, 1001)
	for i := range s {
		t0 := time.Now()
		s[i] = float64(time.Since(t0))
	}
	v, _, _ := s.quantile(0.5)
	return time.Duration(v)
}()

func (p *probe) end(t0 time.Time, task int, parent string) {
	d := max(time.Since(t0)-clockCost, 0)
	p.mu.Lock()
	p.durs = append(p.durs, float64(d)/1e3)
	p.mu.Unlock()
	p.spans.add(p.layer, p.name, task, parent, t0, d)
}

// count returns the number of calls seen.
func (p *probe) count() float64 { return float64(p.calls.Load()) }

// maxSampleUS caps a sampled duration when it is extrapolated: a sample that
// spans a preemption or a GC pause would otherwise stand for thousands of
// unsampled calls and swamp the estimate. The slowest genuine call, a
// bucket recompute at the benchmark's history sizes, stays well below it.
const maxSampleUS = 1000

// totalMS returns the wall time spent inside the boundary: the exact sum when
// every call is timed, else the mean capped sample times the call count.
func (p *probe) totalMS() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.durs) == 0 {
		return 0
	}
	if p.every == 1 {
		return p.durs.sum() / 1e3
	}
	sum := 0.0
	for _, d := range p.durs {
		sum += min(d, maxSampleUS)
	}
	return sum / float64(len(p.durs)) * p.count() / 1e3
}

// dist returns the sampled durations in µs.
func (p *probe) dist() samples {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append(samples(nil), p.durs...)
}

// call is one recorded policy call, kept so a remote tenant's stream can be
// replayed into an embedded allocator after the run (see replayCore).
type call struct {
	op       byte // 'a'llocate, 'r'etry, 'o'bserve
	category string
	task     int
	prev     resources.Vector
	exceeded []resources.Kind
	peak     resources.Vector
	runtime  float64
}

// tracedPolicy wraps the policy under test at the allocator boundary: every
// call is counted, a sample is timed into spans, and optionally every call is
// recorded for replay.
type tracedPolicy struct {
	inner                    allocator.Policy
	parent                   string
	allocate, retry, observe *probe
	record                   bool
	mu                       sync.Mutex
	calls                    []call
}

func newTracedPolicy(inner allocator.Policy, parent string, allocEvery uint64, spans *spanLog) *tracedPolicy {
	return &tracedPolicy{
		inner:    inner,
		parent:   parent,
		allocate: newProbe("allocator", "allocate", allocEvery, spans),
		retry:    newProbe("allocator", "retry", 1, spans),
		observe:  newProbe("allocator", "observe", 1, spans),
	}
}

func (t *tracedPolicy) note(c call) {
	if t.record {
		t.mu.Lock()
		t.calls = append(t.calls, c)
		t.mu.Unlock()
	}
}

func (t *tracedPolicy) Allocate(category string, taskID int) resources.Vector {
	t.note(call{op: 'a', category: category, task: taskID})
	t0, timed := t.allocate.begin()
	v := t.inner.Allocate(category, taskID)
	if timed {
		t.allocate.end(t0, taskID, t.parent)
	}
	return v
}

func (t *tracedPolicy) Retry(category string, taskID int, prev resources.Vector, exceeded []resources.Kind) resources.Vector {
	t.note(call{op: 'r', category: category, task: taskID, prev: prev,
		exceeded: append([]resources.Kind(nil), exceeded...)})
	t0, timed := t.retry.begin()
	v := t.inner.Retry(category, taskID, prev, exceeded)
	if timed {
		t.retry.end(t0, taskID, t.parent)
	}
	return v
}

func (t *tracedPolicy) Observe(category string, taskID int, peak resources.Vector, runtime float64) {
	t.note(call{op: 'o', category: category, task: taskID, peak: peak, runtime: runtime})
	t0, timed := t.observe.begin()
	t.inner.Observe(category, taskID, peak, runtime)
	if timed {
		t.observe.end(t0, taskID, t.parent)
	}
}

func (t *tracedPolicy) Name() string { return t.inner.Name() }

// remotePolicy adapts a serve.Client to allocator.Policy, the way a manager
// runs with its allocator behind allocd. An RPC error is counted and answered
// with a whole worker, so the task still runs and the error surfaces in
// failed_frac rather than as a stall.
type remotePolicy struct {
	c                       *serve.Client
	whole                   resources.Vector
	allocates, retries, obs atomic.Int64
	errs                    atomic.Int64
}

func (p *remotePolicy) Allocate(category string, taskID int) resources.Vector {
	p.allocates.Add(1)
	v, err := p.c.Allocate(category, taskID)
	if err != nil {
		p.errs.Add(1)
		return p.whole
	}
	return v
}

func (p *remotePolicy) Retry(category string, taskID int, prev resources.Vector, exceeded []resources.Kind) resources.Vector {
	p.retries.Add(1)
	v, err := p.c.Retry(category, taskID, prev, exceeded)
	if err != nil {
		p.errs.Add(1)
		return p.whole
	}
	return v
}

func (p *remotePolicy) Observe(category string, taskID int, peak resources.Vector, runtime float64) {
	p.obs.Add(1)
	if err := p.c.Observe(category, taskID, peak, runtime); err != nil {
		p.errs.Add(1)
	}
}

func (p *remotePolicy) Name() string { return "remote" }
