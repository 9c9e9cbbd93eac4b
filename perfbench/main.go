// Command perfbench is the repository benchmark. It runs one workload
// (ooc-dbscan, ooc-kmeans or kv-serve) through the library's
// constructors, repeating set-up and measured phase for --seconds, checks
// every output, and prints one JSON line of metrics: end-to-end metrics
// by default, per-layer metrics from a profiled and traced run with
// --trace 1. Run it as
//
//	bash perfbench/run.sh --workload ooc-kmeans --seed 1 --seconds 20 --trace 0
//
// from the repository root. METRICS.md defines every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

var workloads = []struct {
	name    string
	prepare func(seed int64) (runner, error)
}{
	{"ooc-dbscan", prepareDBSCAN},
	{"ooc-kmeans", prepareKMeans},
	{"kv-serve", prepareKV},
}

// metricDef names one reported metric. kind is "host" (what the
// simulator costs to run), "sim" (what the modelled system would take;
// deterministic per seed) or "count" (a deterministic layer count).
type metricDef struct{ name, unit, kind string }

var endToEnd = []metricDef{
	{"wall_s", "s", "host"},
	{"setup_s", "s", "host"},
	{"alloc_mb", "MB", "host"},
	{"heap_peak_mb", "MB", "host"},
	{"events_per_s", "1/s", "host"},
	{"sim_s", "s", "sim"},
	{"sim_p50_ms", "ms", "sim"},
	{"sim_p99_ms", "ms", "sim"},
	{"goodput_ops", "1/s", "sim"},
	{"ok_ratio", "ratio", "sim"},
}

// perLayer lists every --trace 1 metric.
var perLayer = func() []metricDef {
	var out []metricDef
	add := func(kind, unit string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{n, unit, kind})
		}
	}
	add("host", "s", "cpu.total_s")
	for _, b := range cpuBuckets {
		add("host", "s", "cpu."+b+"_s")
	}
	add("host", "MB", "alloc.total_mb")
	for _, b := range allocBuckets {
		add("host", "MB", "alloc."+b+"_mb")
	}
	add("host", "MB", "alloc.core.commit_page_mb", "alloc.core.stage_in_data_mb")
	add("host", "count", "runtime.gc_cycles")
	add("host", "ns", "vtime.host_ns_per_event")
	add("host", "s", "trace.wall_s", "trace.overhead_s")
	add("count", "count", "vtime.events", "core.faults", "core.prefetches", "core.evictions",
		"core.fill_hits", "core.fill_waste")
	add("count", "ratio", "core.fill_hit_ratio")
	add("count", "count", "core.coalesced_reads", "core.control_ticks", "health.probes",
		"hermes.md_lookups", "hermes.blobs_moved")
	add("count", "MB", "hermes.mb_moved")
	for _, t := range tierNames {
		p := "device." + t + "."
		add("count", "count", p+"read_ops", p+"write_ops")
		add("count", "MB", p+"read_mb", p+"write_mb")
		add("sim", "s", p+"busy_s")
		add("count", "MB", p+"peak_mb")
	}
	add("count", "count", "stager.pfs_read_ops")
	add("count", "MB", "stager.pfs_read_mb", "stager.pfs_write_mb")
	add("sim", "s", "stager.pfs_busy_s")
	add("count", "count", "simnet.msgs")
	add("count", "MB", "simnet.mb")
	add("sim", "s", "simnet.busy_s")
	for _, c := range []string{"latency", "batch"} {
		p := "tenant." + c + "."
		add("count", "count", p+"admitted", p+"shed", p+"completed")
		add("sim", "ms", p+"queue_wait_p99_ms", p+"service_p99_ms")
	}
	return out
}()

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "ooc-dbscan, ooc-kmeans or kv-serve")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 20, "how long to repeat set-up and measured phase")
	trace := fs.Int("trace", 0, "1 = report per-layer metrics from profiled, traced repetitions")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var prepare func(int64) (runner, error)
	for _, w := range workloads {
		if w.name == *name {
			prepare = w.prepare
		}
	}
	if prepare == nil || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, trace %d, seconds %v)\n", *name, *trace, *seconds)
		return 2
	}
	// One process, at most nproc (capped at 2) Ps: the simulator runs one
	// virtual-time proc at a time, and the cap keeps GC parallelism
	// comparable across machines.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	spans := ""
	if *trace == 1 {
		spans = filepath.Join(".bench_build", "perfbench", "spans", fmt.Sprintf("%s-seed%d.json", *name, *seed))
	}
	res, err := measure(prepare, *seed, time.Duration(*seconds*float64(time.Second)), spans, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench %s seed %d: %v\n", *name, *seed, err)
		writeResult(stdout, false, res.attempted, res.failed, nil, nil)
		return 1
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
		fmt.Fprintf(stdout, "spans of the last traced repetition: %s\n", spans)
	}
	kinds := map[string]string{}
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "perfbench: metric %s missing or not finite (%v)\n", d.name, v)
			return 1
		}
		kinds[d.name] = d.kind
		fmt.Fprintf(stdout, "%-34s %-5s %-6s %.6g\n", d.name, d.kind, d.unit, v)
	}
	// Marshal cannot fail on strings, integers and finite floats.
	meta, _ := json.Marshal(map[string]any{"workload": *name, "seed": *seed, "repetitions": res.reps, "traced_repetitions": res.tracedReps, "kinds": kinds})
	fmt.Fprintln(stdout, string(meta))
	writeResult(stdout, true, res.attempted, res.failed, defs, res.metrics)
	return 0
}

// writeResult prints the final result line. Every value is finite (run
// checks), so marshalling cannot fail.
func writeResult(w io.Writer, correct bool, attempted, failed int64, defs []metricDef, values map[string]float64) {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]metric{}
	for _, d := range defs {
		ms[d.name] = metric{values[d.name], d.unit}
	}
	b, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, attempted, failed, ms})
	fmt.Fprintln(w, string(b))
}

type result struct {
	metrics           map[string]float64
	attempted, failed int64
	reps, tracedReps  int
}

// measure prepares the workload's reference outputs once, then repeats
// set-up and measured phase until the time is up (at least three times).
// With a spans path it traces: it alternates untraced and traced
// repetitions (at least four) so the tracing overhead is measured in one
// process, and writes each traced repetition's spans there. Each
// repetition's host figures go to log. Host metrics
// are medians over repetitions; simulated metrics and layer counts must
// repeat exactly.
func measure(prepare func(int64) (runner, error), seed int64, dur time.Duration, spans string, log io.Writer) (result, error) {
	var res result
	trace := spans != ""
	runRep, err := prepare(seed)
	if err != nil {
		return res, err
	}
	minReps := 3
	if trace {
		minReps = 4
	}
	var (
		outs            []outcome
		untraced, tracd []host
		cpus, allocs    []attribution
		events          []float64
	)
	deadline := time.Now().Add(dur)
	for i := 0; i < minReps || time.Now().Before(deadline); i++ {
		runtime.GC() // start every repetition from a collected heap
		r := newRep(trace && i%2 == 1)
		o, err := runRep(r)
		res.attempted += o.attempted
		res.failed += o.failed
		if err != nil {
			return res, fmt.Errorf("repetition %d: %w", i+1, err)
		}
		h, err := r.host()
		if err != nil {
			return res, err
		}
		if len(outs) > 0 {
			if err := sameOutcome(outs[0], o); err != nil {
				return res, fmt.Errorf("repetition %d replayed differently: %w", i+1, err)
			}
		}
		outs = append(outs, o)
		events = append(events, o.layers["vtime.events"]/h.wallS)
		fmt.Fprintf(log, "repetition %d traced=%v: setup %.3fs wall %.3fs alloc %.1fMB heap peak %.1fMB gc %v\n",
			i+1, r.traced, h.setupS, h.wallS, h.allocMB, h.heapPeakMB, h.gcCycles)
		if r.traced {
			tracd = append(tracd, h)
			cpus, allocs = append(cpus, r.cpu), append(allocs, r.alloc)
			if err := r.tr.write(spans); err != nil {
				return res, fmt.Errorf("write spans: %w", err)
			}
		} else {
			untraced = append(untraced, h)
		}
	}
	res.reps, res.tracedReps = len(outs), len(tracd)
	m := map[string]float64{}
	res.metrics = m
	if !trace {
		m["wall_s"] = medianOf(untraced, func(h host) float64 { return h.wallS })
		m["setup_s"] = medianOf(untraced, func(h host) float64 { return h.setupS })
		m["alloc_mb"] = medianOf(untraced, func(h host) float64 { return h.allocMB })
		m["heap_peak_mb"] = medianOf(untraced, func(h host) float64 { return h.heapPeakMB })
		m["events_per_s"] = median(events)
		for k, v := range outs[0].sim {
			m[k] = v
		}
		return res, nil
	}
	for k, v := range outs[0].layers {
		m[k] = v
	}
	// Metrics a workload has no layer for (tenants on an out-of-core
	// run) read zero.
	for _, d := range perLayer {
		if _, ok := m[d.name]; !ok && d.kind != "host" {
			m[d.name] = 0
		}
	}
	wall := medianOf(untraced, func(h host) float64 { return h.wallS })
	m["trace.wall_s"] = medianOf(tracd, func(h host) float64 { return h.wallS })
	m["trace.overhead_s"] = m["trace.wall_s"] - wall
	m["runtime.gc_cycles"] = medianOf(untraced, func(h host) float64 { return h.gcCycles })
	m["vtime.host_ns_per_event"] = wall * 1e9 / m["vtime.events"]
	m["cpu.total_s"] = medianOf(cpus, func(a attribution) float64 { return a.total / 1e9 })
	for _, b := range cpuBuckets {
		m["cpu."+b+"_s"] = medianOf(cpus, func(a attribution) float64 { return a.buckets[b] / 1e9 })
	}
	m["alloc.total_mb"] = medianOf(allocs, func(a attribution) float64 { return a.total / mb })
	for _, b := range allocBuckets {
		m["alloc."+b+"_mb"] = medianOf(allocs, func(a attribution) float64 { return a.buckets[b] / mb })
	}
	for v := range allocViews {
		m["alloc."+v+"_mb"] = medianOf(allocs, func(a attribution) float64 { return a.views[v] / mb })
	}
	return res, nil
}

// sameOutcome reports a simulated metric or layer count that differs
// between two repetitions of one seed.
func sameOutcome(a, b outcome) error {
	if a.attempted != b.attempted || a.failed != b.failed {
		return fmt.Errorf("attempted/failed %d/%d vs %d/%d", a.attempted, a.failed, b.attempted, b.failed)
	}
	for _, pair := range [][2]map[string]float64{{a.sim, b.sim}, {a.layers, b.layers}} {
		if len(pair[0]) != len(pair[1]) {
			return fmt.Errorf("%d metrics vs %d", len(pair[0]), len(pair[1]))
		}
		for k, v := range pair[0] {
			if w, ok := pair[1][k]; !ok || v != w {
				return fmt.Errorf("%s: %v vs %v", k, v, w)
			}
		}
	}
	return nil
}

func medianOf[T any](xs []T, f func(T) float64) float64 {
	vs := make([]float64, len(xs))
	for i, x := range xs {
		vs[i] = f(x)
	}
	return median(vs)
}

// median is the middle value (mean of the middle two for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
