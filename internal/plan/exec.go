package plan

import (
	"fmt"

	"megammap/internal/apps/bfs"
	"megammap/internal/apps/kmeans"
	"megammap/internal/cluster"
	"megammap/internal/config"
	"megammap/internal/core"
	"megammap/internal/datagen"
	"megammap/internal/device"
	"megammap/internal/experiments"
	"megammap/internal/faults"
	"megammap/internal/mpi"
	"megammap/internal/simnet"
	"megammap/internal/stager"
	"megammap/internal/vtime"
)

// runKMeansCell executes one kmeans fault-plane cell (the failover, mttr
// and control plans). The fault axis selects a declared spec ("none" =
// fault-free); the governor axis swaps fixed repair pacing for the AIMD
// governor.
func (p *Plan) runKMeansCell(cell Cell, ref **refRun) (CellResult, error) {
	w := p.Workload
	cfg := kmeans.Config{
		K: w.K, MaxIter: w.MaxIter,
		CostPerDist: experiments.ScaleCost(w.CostPerDist),
	}
	nodes := p.Nodes
	ranks := nodes * p.Procs
	total := p.BytesPerNode * int64(nodes)
	n := experiments.ParticlesFor(total)

	var fp *faults.Plan
	fname, _ := cell.Get("fault")
	faulted := fname != "" && fname != "none"
	if faulted {
		fs := p.Faults[fname]
		if fs.derived() && *ref == nil {
			return CellResult{}, fmt.Errorf("%w: no clean cell ran before %s", ErrFaultTimeline, cell.ID())
		}
		if fs.derived() {
			fp = fs.build((*ref).genEnd, (*ref).runtime)
		} else {
			fp = fs.build(0, 0)
		}
	}
	var mod func(*core.Config)
	if g, ok := cell.Get("governor"); ok && g == "adaptive" {
		mod = experiments.AdaptiveRepairConfig
	}

	out, err := experiments.RunKMeansFaultCell(cfg, fp, nodes, ranks, n, total, mod)
	if err != nil {
		return CellResult{}, err
	}
	if !faulted && *ref == nil {
		*ref = &refRun{genEnd: out.GenEnd, runtime: out.Runtime, digest: digestOf(out.Result)}
	}

	cr := newCellResult(cell)
	cr.Metrics["runtime_s"] = out.Runtime.Seconds()
	cr.Metrics["slowdown"] = float64(out.Runtime) / float64((*ref).runtime)
	mttr := 0.0
	if out.RedundancyOK {
		mttr = out.MTTR.Seconds()
	}
	cr.Metrics["mttr_s"] = mttr
	cr.Digests["result"] = digestOf(out.Result)
	cr.Digests["checksum_match"] = boolDigest(digestOf(out.Result) == (*ref).digest)
	cr.Digests["redundancy_restored"] = boolDigest(out.RedundancyOK)
	cr.Digests["under_replicated"] = int64(out.UnderReplicated)
	cr.Digests["page_repairs"] = out.PageRepairs
	for _, ct := range out.Counters {
		cr.Digests["fault."+ct.Name] = ct.Value
	}
	return cr, nil
}

// runScrubCell executes one checksummed grayscott cell: scrub=off is the
// baseline, fixed sweeps every 10ms, adaptive hands the pace to the
// incremental cursor governor.
func (p *Plan) runScrubCell(cell Cell, ref **refRun) (CellResult, error) {
	mode, _ := cell.Get("scrub")
	var sweep vtime.Duration
	var mod func(*core.Config)
	switch mode {
	case "fixed":
		sweep = 10 * vtime.Millisecond
	case "adaptive":
		sweep = 10 * vtime.Millisecond
		mod = experiments.AdaptiveScrubConfig
	}
	ranks := p.Nodes * p.Procs
	out, err := experiments.RunScrubCell(p.Nodes, ranks, p.BytesPerNode, p.Workload.Steps, sweep, mod)
	if err != nil {
		return CellResult{}, err
	}
	if mode == "off" && *ref == nil {
		*ref = &refRun{runtime: out.Runtime}
	}
	if *ref == nil {
		return CellResult{}, fmt.Errorf("%w: no scrub=off cell ran before %s", ErrFaultTimeline, cell.ID())
	}

	cr := newCellResult(cell)
	cr.Metrics["runtime_s"] = out.Runtime.Seconds()
	cr.Metrics["slowdown"] = float64(out.Runtime) / float64((*ref).runtime)
	cr.Digests["scrub_sweeps"] = out.ScrubSweeps
	cr.Digests["scrub_pages"] = out.ScrubPages
	cr.Digests["max_sweep"] = out.MaxSweep
	cr.Digests["cycles"] = out.Cycles
	return cr, nil
}

// bfsTestbed is the BFS cells' cluster shape: a small DRAM tier backed
// by NVMe, so a bounded edge pcache actually pages.
func bfsTestbed(nodes int) cluster.Spec {
	return cluster.Spec{
		Nodes:    nodes,
		CoresPer: 8,
		DRAMPer:  64 * device.MB,
		Tiers: []cluster.TierSpec{
			{Name: "dram", Profile: device.DRAMProfile(4 * device.MB)},
			{Name: "nvme", Profile: device.NVMeProfile(32 * device.MB)},
		},
		Link: simnet.RoCE40(),
		PFS:  device.PFSProfile(4 * device.GB),
	}
}

const (
	bfsOffsetsURL = "file:///data/graph.offsets"
	bfsEdgesURL   = "file:///data/graph.edges"
)

// runBFSCell stages a deterministic skewed graph on a fresh cluster and
// runs the distributed BFS. The hints axis toggles the plan's policy
// hints; the bound axis caps the edge vector's pcache.
func (p *Plan) runBFSCell(cell Cell, ref **refRun) (CellResult, error) {
	c := cluster.New(bfsTestbed(p.Nodes))
	g := datagen.NewGraph(datagen.DefaultGraphSpec(p.Vertices, p.Workload.Seed))
	var genErr error
	c.Engine.Spawn("graphgen", func(proc *vtime.Proc) {
		st := stager.New(c)
		ob, err := st.Open(bfsOffsetsURL)
		if err != nil {
			genErr = err
			return
		}
		eb, err := st.Open(bfsEdgesURL)
		if err != nil {
			genErr = err
			return
		}
		genErr = g.WriteTo(proc, ob, eb, 0)
	})
	if err := c.Engine.Run(); err != nil {
		return CellResult{}, err
	}
	if genErr != nil {
		return CellResult{}, genErr
	}

	cc := core.DefaultConfig()
	cc.Tiers = []string{"dram", "nvme"}
	cc.DefaultPageSize = 4 << 10
	if hv, ok := cell.Get("hints"); ok && hv == "on" {
		cc.Hints = p.Hints
	}
	var bound int64
	if bv, ok := cell.Get("bound"); ok {
		if err := config.ParseSize(bv, &bound); err != nil {
			return CellResult{}, err
		}
	}

	d := core.New(c, cc)
	ranks := p.Nodes * p.Procs
	w := mpi.NewWorld(c, ranks)
	start := c.Engine.Now()
	var res bfs.Result
	var end vtime.Duration
	err := w.Run(func(r *mpi.Rank) {
		out, err := bfs.Mega(r, d, bfs.Config{
			OffsetsURL: bfsOffsetsURL,
			EdgesURL:   bfsEdgesURL,
			Source:     p.Workload.Source,
			BoundBytes: bound,
		})
		if err != nil {
			r.Fail(err)
			return
		}
		if r.Rank() == 0 {
			res = out
			end = r.Proc().Now()
			if err := d.Shutdown(r.Proc()); err != nil {
				r.Fail(err)
			}
		}
	})
	if err != nil {
		return CellResult{}, err
	}
	if *ref == nil {
		*ref = &refRun{runtime: end - start, digest: digestOf(res)}
	}

	cr := newCellResult(cell)
	cr.Metrics["runtime_s"] = (end - start).Seconds()
	cr.Metrics["slowdown"] = float64(end-start) / float64((*ref).runtime)
	cr.Digests["result"] = digestOf(res)
	cr.Digests["checksum_match"] = boolDigest(digestOf(res) == (*ref).digest)
	cr.Digests["visited"] = res.Visited
	cr.Digests["levels"] = res.Levels
	cr.Digests["sum_dist"] = res.SumDist
	cr.Digests["digest"] = res.Digest
	f, pf, ev := d.Stats()
	cr.Digests["faults"] = f
	cr.Digests["prefetches"] = pf
	cr.Digests["evictions"] = ev
	hits, waste := d.PrefetchFillStats()
	cr.Digests["fill_hits"] = hits
	cr.Digests["fill_waste"] = waste
	return cr, nil
}

// runTenantsCell executes one multi-tenant serving cell. The isolation
// axis toggles the QoS machinery (quotas, placement bias, fairness
// governor); plan fields map onto the cell shape — bytes_per_node is
// the pooled pcache budget, workload.steps the serving horizon in
// virtual milliseconds, workload.seed the traffic seed. Latency percentiles are exact
// (digests): the whole serving phase is deterministic.
func (p *Plan) runTenantsCell(cell Cell) (CellResult, error) {
	iso, _ := cell.Get("isolation")
	horizon := vtime.Duration(p.Workload.Steps) * vtime.Millisecond
	out, err := experiments.RunTenantsCell(p.Nodes, p.BytesPerNode, horizon, p.Workload.Seed, iso == "on", nil)
	if err != nil {
		return CellResult{}, err
	}
	cr := newCellResult(cell)
	cr.Metrics["runtime_s"] = out.Runtime.Seconds()
	cr.Metrics["agg_tput_ops_s"] = float64(out.AggOps) / out.Runtime.Seconds()
	cr.Digests["agg_ops"] = out.AggOps
	for _, to := range out.PerTenant {
		cr.Digests[to.Name+".p50_ns"] = to.P50
		cr.Digests[to.Name+".p99_ns"] = to.P99
		cr.Digests[to.Name+".p999_ns"] = to.P999
		cr.Digests[to.Name+".ops"] = to.Ops
		cr.Digests[to.Name+".shed"] = to.Shed
		cr.Digests[to.Name+".errs"] = to.Errs
		cr.Digests[to.Name+".faults"] = to.Faults
		cr.Digests[to.Name+".evictions"] = to.Evictions
	}
	return cr, nil
}

// runGrayCell executes one gray-failure resilience cell. The resilience
// axis toggles the health plane (hedged reads, quarantine-aware
// placement); plan fields map onto the cell shape — bytes_per_node is
// the DRAM scache tier, workload.steps the serving horizon in virtual
// milliseconds, workload.seed the traffic seed. The scripted straggler
// schedule is experiments.GrayFaultPlan. Latency percentiles and all
// hedge/quarantine counters are exact (digests): the whole serving
// phase, including the mid-run crash and revive, is deterministic.
func (p *Plan) runGrayCell(cell Cell) (CellResult, error) {
	res, _ := cell.Get("resilience")
	horizon := vtime.Duration(p.Workload.Steps) * vtime.Millisecond
	out, err := experiments.RunGrayCell(p.Nodes, p.BytesPerNode, horizon, p.Workload.Seed, res == "on", experiments.GrayFaultPlan())
	if err != nil {
		return CellResult{}, err
	}
	cr := newCellResult(cell)
	cr.Metrics["runtime_s"] = out.Runtime.Seconds()
	cr.Metrics["tput_ops_s"] = float64(out.Ops) / out.Runtime.Seconds()
	cr.Digests["p50_ns"] = out.P50
	cr.Digests["p99_ns"] = out.P99
	cr.Digests["p999_ns"] = out.P999
	cr.Digests["ops"] = out.Ops
	cr.Digests["errs"] = out.Errs
	cr.Digests["hedge_launched"] = out.HedgeLaunched
	cr.Digests["hedge_won"] = out.HedgeWon
	cr.Digests["hedge_wasted"] = out.HedgeWasted
	cr.Digests["quar_entered"] = out.QuarEntered
	cr.Digests["quar_exited"] = out.QuarExited
	cr.Digests["probes"] = out.Probes
	cr.Digests["retries"] = out.Retries
	cr.Digests["read_bytes"] = out.BytesRead
	return cr, nil
}

// runDisaggCell executes one disaggregated-memory ablation cell. The
// workload axis picks the app (kmeans or bfs), the topology axis the
// cluster shape (local = uniform tiered nodes, disagg = compute nodes
// plus fabric-attached memory pools under the spill-vs-pool governor).
// Disaggregated cells run the scripted pool-node crash+revive of
// experiments.DisaggFaultPlan; plan fields map onto the cell shape —
// bytes_per_node sizes the kmeans dataset, vertices the bfs graph,
// workload.seed the graph seed. Everything but the
// runtime is exact (digests): the whole run, including the pool crash
// and the governor's bias flips, is deterministic.
func (p *Plan) runDisaggCell(cell Cell) (CellResult, error) {
	w, _ := cell.Get("workload")
	topo, _ := cell.Get("topology")
	dis := topo == "disagg"
	var fp *faults.Plan
	if dis {
		fp = experiments.DisaggFaultPlan(p.Nodes)
	}
	out, err := experiments.RunDisaggCell(w, p.Nodes, p.Procs, p.BytesPerNode, p.Vertices, p.Workload.Seed, dis, fp)
	if err != nil {
		return CellResult{}, err
	}
	cr := newCellResult(cell)
	cr.Metrics["runtime_s"] = out.Runtime.Seconds()
	cr.Digests["ops"] = out.Ops
	cr.Digests["p50_ns"] = out.P50
	cr.Digests["p99_ns"] = out.P99
	cr.Digests["pool_reads"] = out.PoolReads
	cr.Digests["reads"] = out.Reads
	cr.Digests["pool_placed"] = out.PoolPlaced
	cr.Digests["pool_peak"] = out.PoolUsedPeak
	cr.Digests["spill_bytes"] = out.SpillBytes
	cr.Digests["bias_flips"] = out.BiasFlips
	cr.Digests["digest"] = out.Digest
	return cr, nil
}

func newCellResult(cell Cell) CellResult {
	return CellResult{Cell: cell.ID(), Metrics: map[string]float64{}, Digests: map[string]int64{}}
}

func boolDigest(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
