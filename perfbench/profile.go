package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"strings"
)

// Host time and allocation are attributed to the repository's modules.
// A sample goes to the module of its first (leaf-most) frame inside the
// repository; standard-library and runtime frames are skipped, so a
// memmove or a map insert counts against the module that called it.
// CPU samples under garbage collection go to "gc" and samples under
// goroutine park/handoff go to "sched", ahead of any module. The rest
// go to "other". Every sample lands in exactly one bucket.
var modules = []string{
	"apps", "blob", "cluster", "control", "core", "datagen", "device", "faults",
	"hermes", "mpi", "simnet", "stager", "telemetry", "tenant", "vtime",
}

// cpuBuckets and allocBuckets list every bucket name, in report order.
var (
	allocBuckets = append(slices.Clone(modules), "bench", "other")
	cpuBuckets   = append([]string{"gc", "sched"}, allocBuckets...)
)

// Allocation views that cut across buckets: bytes allocated anywhere
// below these core functions (the commit-with-retain copy and the
// read-modify-write stage-in), whatever module made the call to malloc.
var allocViews = map[string]string{
	"core.commit_page":   ").commitPage",
	"core.stage_in_data": "core.(*Runtime).stageInData",
}

// gcFrames and schedFrames mark runtime functions that put a CPU sample
// under garbage collection and under goroutine park/handoff.
var (
	gcFrames = []string{
		"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain",
		"runtime.gcStart", "runtime.gcMarkDone", "runtime.gcMarkTermination",
		"runtime.markroot", "runtime.scanobject", "runtime.bgsweep",
		"runtime.bgscavenge", "runtime.sweepone", "runtime.wbBufFlush",
		"runtime.(*sweepLocked).sweep", "runtime.(*gcWork)", "runtime.gcenable",
	}
	schedFrames = []string{
		"runtime.gopark", "runtime.goparkunlock", "runtime.park_m", "runtime.schedule",
		"runtime.findRunnable", "runtime.mcall", "runtime.goready", "runtime.ready",
		"runtime.chansend", "runtime.chanrecv", "runtime.selectgo", "runtime.stopm",
		"runtime.startm", "runtime.wakep", "runtime.goexit0", "runtime.newproc",
		"runtime.notesleep", "runtime.notewakeup",
	}
)

// moduleOf maps a function name to its repository module, or "" for a
// frame outside the repository. The benchmark is package main, named by
// its import path in test binaries.
func moduleOf(fn string) string {
	if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "megammap/perfbench.") {
		return "bench"
	}
	rest, ok := strings.CutPrefix(fn, "megammap/internal/")
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	for _, m := range modules {
		if m == rest {
			return m
		}
	}
	return "other"
}

func hasFrame(frames, marks []string) bool {
	for _, f := range frames {
		for _, m := range marks {
			if strings.HasPrefix(f, m) {
				return true
			}
		}
	}
	return false
}

// bucketOf names the bucket of one stack, leaf frame first. cpu selects
// the CPU rules (gc and sched ahead of modules).
func bucketOf(frames []string, cpu bool) string {
	if cpu && hasFrame(frames, gcFrames) {
		return "gc"
	}
	if cpu && hasFrame(frames, schedFrames) {
		return "sched"
	}
	for _, f := range frames {
		if m := moduleOf(f); m != "" {
			return m
		}
	}
	return "other"
}

// stackSample is one profile sample: frames leaf first and its value
// (CPU nanoseconds or allocated bytes).
type stackSample struct {
	frames []string
	value  float64
}

// attribution sums samples into buckets and views.
type attribution struct {
	total   float64
	buckets map[string]float64
	views   map[string]float64
}

func attribute(samples []stackSample, cpu bool) attribution {
	a := attribution{buckets: map[string]float64{}, views: map[string]float64{}}
	for _, s := range samples {
		a.total += s.value
		a.buckets[bucketOf(s.frames, cpu)] += s.value
		if cpu {
			continue
		}
		for view, mark := range allocViews {
			for _, f := range s.frames {
				if strings.HasPrefix(f, "megammap/internal/") && strings.Contains(f, mark) {
					a.views[view] += s.value
					break
				}
			}
		}
	}
	return a
}

// memSnapshot is the cumulative heap profile keyed by call stack.
type memSnapshot map[[32]uintptr]runtime.MemProfileRecord

// takeMemSnapshot reads the heap profile. The caller runs runtime.GC
// first so the profile covers every allocation made so far.
func takeMemSnapshot() memSnapshot {
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			break
		}
	}
	snap := make(memSnapshot, n)
	for _, r := range recs[:n] {
		snap[r.Stack0] = r
	}
	return snap
}

// allocSamples returns the allocations made between two snapshots,
// scaled for the heap profiler's sampling the way pprof scales them.
func allocSamples(before, after memSnapshot) []stackSample {
	rate := float64(runtime.MemProfileRate)
	var out []stackSample
	for stk, r := range after {
		prev := before[stk]
		objs := float64(r.AllocObjects - prev.AllocObjects)
		size := float64(r.AllocBytes - prev.AllocBytes)
		if objs <= 0 || size <= 0 {
			continue
		}
		if rate > 1 {
			size /= 1 - math.Exp(-size/objs/rate)
		}
		out = append(out, stackSample{frames: framesOf(r.Stack()), value: size})
	}
	return out
}

// framesOf symbolizes a call stack, inlined calls included, leaf first.
func framesOf(pcs []uintptr) []string {
	var out []string
	frames := runtime.CallersFrames(pcs)
	for {
		f, more := frames.Next()
		if f.Function != "" {
			out = append(out, f.Function)
		}
		if !more {
			return out
		}
	}
}

// parseCPUProfile decodes a gzipped pprof CPU profile (profile.proto)
// into samples of CPU nanoseconds.
func parseCPUProfile(data []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type rawSample struct{ locs, vals []uint64 }
	var (
		strs      []string
		types     []uint64 // sample_type[i].type, string index
		samples   []rawSample
		locLines  = map[uint64][]uint64{} // location id -> function ids, leaf first
		funcNames = map[uint64]uint64{}   // function id -> name string index
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					types = append(types, v)
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					s.vals = appendPacked(s.vals, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	col := -1
	for i, t := range types {
		if t < uint64(len(strs)) && strs[t] == "cpu" {
			col = i
		}
	}
	if col < 0 {
		return nil, errors.New("cpu profile: no cpu sample type")
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if col >= len(s.vals) {
			return nil, errors.New("cpu profile: sample without a cpu value")
		}
		var frames []string
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				if name := funcNames[fn]; name < uint64(len(strs)) {
					frames = append(frames, strs[name])
				}
			}
		}
		out = append(out, stackSample{frames: frames, value: float64(s.vals[col])})
	}
	return out, nil
}

// eachField walks the fields of one protobuf message. Varint fields
// arrive in v, length-delimited ones in b; fixed-width fields are
// skipped (profile.proto uses none that matter here).
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(msg); n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(msg) < w {
				return errors.New("short fixed field")
			}
			msg = msg[w:]
			continue
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field given either one value
// (unpacked encoding) or a packed run.
func appendPacked(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			break
		}
		dst, packed = append(dst, x), packed[n:]
	}
	return dst
}
