package main

import (
	"bytes"
	"math"
	"runtime"
	"runtime/pprof"
	"slices"
	"testing"
	"time"
)

func TestBucketOf(t *testing.T) {
	for _, tc := range []struct {
		frames []string
		cpu    bool
		want   string
	}{
		{[]string{"runtime.memmove", "megammap/internal/core.(*Vector[go.shape.struct {}]).GetRange"}, true, "core"},
		{[]string{"hash/crc32.Update", "megammap/internal/hermes.(*Hermes).Get", "megammap/internal/core.(*Runtime).exec"}, true, "hermes"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, true, "gc"},
		{[]string{"runtime.mallocgc", "runtime.gcAssistAlloc", "megammap/internal/core.(*Vector[go.shape.int32]).commitPage"}, true, "gc"},
		{[]string{"runtime.futex", "runtime.gopark", "runtime.chanrecv", "megammap/internal/vtime.(*Proc).park"}, true, "sched"},
		{[]string{"megammap/internal/vtime.(*Engine).transfer", "megammap/internal/vtime.(*Proc).Sleep"}, true, "vtime"},
		{[]string{"megammap/internal/apps/kmeans.accumulate", "megammap/internal/apps/kmeans.Mega"}, true, "apps"},
		{[]string{"megammap/internal/experiments.Fig8"}, true, "other"},
		{[]string{"main.run", "main.main"}, true, "bench"},
		{[]string{"runtime.sysmon", "runtime.mstart"}, true, "other"},
		{nil, true, "other"},
		// Allocation stacks ignore the CPU-only gc and sched rules.
		{[]string{"runtime.mallocgc", "runtime.newproc", "megammap/internal/vtime.(*Engine).spawn"}, false, "vtime"},
	} {
		if got := bucketOf(tc.frames, tc.cpu); got != tc.want {
			t.Errorf("bucketOf(%q, cpu=%v) = %q, want %q", tc.frames, tc.cpu, got, tc.want)
		}
	}
}

// checkPartition asserts that the attribution is a partition of the
// samples: every sample in exactly one named bucket, buckets summing to
// the total, the total equal to the samples' own sum.
func checkPartition(t *testing.T, samples []stackSample, cpu bool) attribution {
	t.Helper()
	names := allocBuckets
	if cpu {
		names = cpuBuckets
	}
	var sum float64
	for _, s := range samples {
		sum += s.value
		if b := bucketOf(s.frames, cpu); !slices.Contains(names, b) {
			t.Errorf("sample %q landed in unnamed bucket %q", s.frames, b)
		}
	}
	a := attribute(samples, cpu)
	var buckets float64
	for b, v := range a.buckets {
		if !slices.Contains(names, b) {
			t.Errorf("attribution has unnamed bucket %q", b)
		}
		buckets += v
	}
	if !near(a.total, sum) || !near(buckets, a.total) {
		t.Errorf("buckets sum to %v, total %v, samples sum to %v", buckets, a.total, sum)
	}
	for v, x := range a.views {
		if x > a.total*(1+1e-9) {
			t.Errorf("view %s = %v exceeds the total %v", v, x, a.total)
		}
	}
	return a
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

var sink []byte

//go:noinline
func burnCPU(d time.Duration) (x uint64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1e5; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

//go:noinline
func allocPages(n, size int) {
	for i := 0; i < n; i++ {
		sink = make([]byte, size)
	}
}

func TestCPUProfileAttribution(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	x := burnCPU(400 * time.Millisecond)
	pprof.StopCPUProfile()
	_ = x
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("profile holds no samples")
	}
	a := checkPartition(t, samples, true)
	if a.buckets["bench"] < a.total/2 {
		t.Errorf("bench bucket %v of %v: the burn loop should dominate", a.buckets["bench"], a.total)
	}
}

func TestAllocProfileAttribution(t *testing.T) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1 // record every allocation: the sums are exact
	runtime.GC()
	before := takeMemSnapshot()
	const n, size = 256, 32 << 10
	allocPages(n, size)
	runtime.GC()
	samples := allocSamples(before, takeMemSnapshot())
	a := checkPartition(t, samples, false)
	if got := a.buckets["bench"]; got < n*size {
		t.Errorf("bench bucket holds %v bytes, want at least the %d allocated", got, n*size)
	}
}
