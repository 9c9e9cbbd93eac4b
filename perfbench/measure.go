package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"megammap/internal/cluster"
	"megammap/internal/core"
)

// outcome is what one repetition of a workload reports about the
// modelled system. Every value is deterministic for a seed, so all
// repetitions of one run must agree exactly.
type outcome struct {
	sim       map[string]float64 // simulated end-to-end metrics
	layers    map[string]float64 // per-layer counts of the measured phase
	attempted int64
	failed    int64
}

// runner runs one repetition: a fresh setup, then the measured phase,
// then the output check.
type runner func(r *rep) (outcome, error)

// rep times one repetition. The workload calls setupDone when its
// testbed and inputs are ready, begin when the measured window opens
// and end when it closes.
type rep struct {
	traced bool
	tr     *tracer // nil unless traced

	t0, setupEnd, start, stop time.Time
	ms0, ms1                  runtime.MemStats
	heap                      *heapSampler
	heapPeak                  uint64
	before                    map[string]float64

	cpuProf bytes.Buffer
	mem0    memSnapshot
	cpu     attribution
	alloc   attribution
	profErr error
}

func newRep(traced bool) *rep {
	r := &rep{traced: traced, t0: time.Now()}
	if traced {
		r.tr = newTracer()
	}
	return r
}

func (r *rep) setupDone() { r.setupEnd = time.Now() }

// begin opens the measured window: counters, heap and, when traced, the
// CPU and heap profiles start here. A collection first keeps set-up's
// garbage out of the window's GC work (and, traced, publishes every
// earlier allocation to the heap profile).
func (r *rep) begin(c *cluster.Cluster, d *core.DSM) {
	r.before = counters(c, d)
	runtime.GC()
	if r.traced {
		r.mem0 = takeMemSnapshot()
		r.profErr = pprof.StartCPUProfile(&r.cpuProf)
	}
	r.heap = startHeapSampler()
	runtime.ReadMemStats(&r.ms0)
	r.start = time.Now()
}

// end closes the measured window.
func (r *rep) end() {
	r.stop = time.Now()
	runtime.ReadMemStats(&r.ms1)
	r.heapPeak = r.heap.stop()
	if !r.traced || r.profErr != nil {
		return
	}
	pprof.StopCPUProfile()
	runtime.GC()
	r.alloc = attribute(allocSamples(r.mem0, takeMemSnapshot()), false)
	samples, err := parseCPUProfile(r.cpuProf.Bytes())
	if err != nil {
		r.profErr = err
		return
	}
	r.cpu = attribute(samples, true)
}

// layers returns the per-layer counts accumulated since begin.
func (r *rep) layers(c *cluster.Cluster, d *core.DSM) map[string]float64 {
	return layerDelta(r.before, counters(c, d))
}

// host is one repetition's host-side measurements.
type host struct {
	setupS, wallS, allocMB, heapPeakMB, gcCycles float64
}

func (r *rep) host() (host, error) {
	if r.setupEnd.IsZero() || r.start.IsZero() || r.stop.IsZero() {
		return host{}, fmt.Errorf("workload did not mark its setup and measured phases")
	}
	if r.profErr != nil {
		return host{}, fmt.Errorf("profile: %w", r.profErr)
	}
	return host{
		setupS:     r.setupEnd.Sub(r.t0).Seconds(),
		wallS:      r.stop.Sub(r.start).Seconds(),
		allocMB:    float64(r.ms1.TotalAlloc-r.ms0.TotalAlloc) / mb,
		heapPeakMB: float64(r.heapPeak) / mb,
		gcCycles:   float64(r.ms1.NumGC - r.ms0.NumGC),
	}, nil
}

// heapSampler tracks the peak of live-and-unswept heap object bytes on
// a 1 ms host tick.
type heapSampler struct {
	quit, done chan struct{}
	peak       uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			select {
			case <-h.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak, including one final reading.
func (h *heapSampler) stop() uint64 {
	close(h.quit)
	<-h.done
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	return max(h.peak, s[0].Value.Uint64())
}
