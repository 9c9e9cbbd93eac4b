package experiments

import (
	"fmt"

	"megammap/internal/apps/grayscott"
	"megammap/internal/apps/kmeans"
	"megammap/internal/apps/rf"
	"megammap/internal/core"
	"megammap/internal/device"
	"megammap/internal/mpi"
	"megammap/internal/stats"
	"megammap/internal/vtime"
)

// Ablations isolate the design choices DESIGN.md calls out: each runs a
// memory-constrained workload with one mechanism toggled and reports the
// runtime impact.

// ablationKMeans runs bounded KMeans under the given DSM config and
// returns its measurement plus fault counters.
func ablationKMeans(prof Profile, cfg core.Config, bound int64) (measured, int64, int64, error) {
	nodes := 2
	ranks := nodes * prof.ProcsPerNode
	total := prof.Fig8BytesPerNode * int64(nodes)
	c := newCluster(testbedSpec(nodes, total/2))
	ptsURL, _, err := genParticles(c, ParticlesFor(total), 8, false)
	if err != nil {
		return measured{}, 0, 0, err
	}
	d := core.New(c, cfg)
	m, err := runWorld(c, d, ranks, func(r *mpi.Rank) error {
		_, err := kmeans.Mega(r, d, kmeans.Config{
			DatasetURL: ptsURL, K: 8, MaxIter: 4, BoundBytes: bound,
			CostPerDist: ScaleCost(3 * vtime.Nanosecond),
			InitSpan:    total / 24 / int64(ranks),
		})
		return err
	})
	if err != nil {
		return measured{}, 0, 0, err
	}
	faults, prefetches, _ := d.Stats()
	return m, faults, prefetches, nil
}

// AblationPrefetch compares the transaction-informed prefetcher against
// no prefetching on an out-of-core KMeans scan.
func AblationPrefetch(prof Profile) (*stats.Table, error) {
	t := stats.NewTable("ablation-prefetch",
		"prefetch", "runtime_s", "sync_faults", "async_fills")
	bound := prof.Fig8BytesPerNode / int64(prof.ProcsPerNode) / 4
	for _, disable := range []bool{false, true} {
		cfg := tieredConfig()
		cfg.DisablePrefetch = disable
		m, faults, fills, err := ablationKMeans(prof, cfg, bound)
		if err != nil {
			return nil, fmt.Errorf("ablation prefetch=%v: %w", !disable, err)
		}
		t.Add(!disable, m.Runtime.Seconds(), faults, fills)
	}
	return t, nil
}

// AblationWorkerSplit compares the low/high-latency worker split against
// one merged pool under a mixed small/large task stream.
func AblationWorkerSplit(prof Profile) (*stats.Table, error) {
	t := stats.NewTable("ablation-worker-split", "split", "runtime_s")
	bound := prof.Fig8BytesPerNode / int64(prof.ProcsPerNode) / 4
	for _, disable := range []bool{false, true} {
		cfg := tieredConfig()
		cfg.DisableWorkerSplit = disable
		m, _, _, err := ablationKMeans(prof, cfg, bound)
		if err != nil {
			return nil, fmt.Errorf("ablation split=%v: %w", !disable, err)
		}
		t.Add(!disable, m.Runtime.Seconds())
	}
	return t, nil
}

// AblationPartialPaging compares dirty-region commits against whole-page
// commits on Gray-Scott, whose slab-boundary pages are written partially
// by two ranks.
func AblationPartialPaging(prof Profile) (*stats.Table, error) {
	t := stats.NewTable("ablation-partial-paging",
		"partial_paging", "runtime_s", "scache_write_mb")
	nodes := 2
	ranks := nodes * prof.ProcsPerNode
	l := gsSideFor(prof.Fig8BytesPerNode * int64(nodes) / 2)
	for _, disable := range []bool{false, true} {
		cfg := tieredConfig()
		cfg.DisablePartialPaging = disable
		c := newCluster(testbedSpec(nodes, prof.Fig8BytesPerNode))
		d := core.New(c, cfg)
		m, err := runWorld(c, d, ranks, func(r *mpi.Rank) error {
			_, err := grayscott.Mega(r, d, grayscott.Config{
				L: l, Steps: 3, CostPerCell: ScaleCost(36 * vtime.Nanosecond),
				BoundBytes: prof.Fig8BytesPerNode / int64(prof.ProcsPerNode) / 4,
			})
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("ablation partial=%v: %w", !disable, err)
		}
		// Whole-page commits rewrite entire pages into the scache; count
		// device write bytes across every tier.
		var written int64
		for _, n := range c.Nodes {
			for _, dev := range n.Devices {
				_, _, _, bw := dev.Stats()
				written += bw
			}
		}
		t.Add(!disable, m.Runtime.Seconds(), float64(written)/float64(device.MB))
	}
	return t, nil
}

// AblationPageSize sweeps the vector page size on bounded KMeans (the
// paper's configurable-paging motivation: too small pays per-page
// overheads, too large amplifies I/O).
func AblationPageSize(prof Profile) (*stats.Table, error) {
	t := stats.NewTable("ablation-page-size", "page_kb", "runtime_s", "sync_faults", "async_fills")
	bound := prof.Fig8BytesPerNode / int64(prof.ProcsPerNode) / 4
	for _, ps := range []int64{12 << 10, 48 << 10, 192 << 10} {
		cfg := tieredConfig()
		cfg.DefaultPageSize = ps
		m, faults, fills, err := ablationKMeans(prof, cfg, bound)
		if err != nil {
			return nil, fmt.Errorf("ablation pagesize=%d: %w", ps, err)
		}
		t.Add(ps>>10, m.Runtime.Seconds(), faults, fills)
	}
	return t, nil
}

// AblationCoherence compares read-only global replication against
// replication disabled on a refault-heavy multi-node read phase.
func AblationCoherence(prof Profile) (*stats.Table, error) {
	t := stats.NewTable("ablation-coherence", "replication", "runtime_s", "net_bytes_mb")
	nodes := 4
	ranks := nodes * prof.ProcsPerNode
	total := prof.Fig8BytesPerNode * int64(nodes)
	for _, disable := range []bool{false, true} {
		cfg := tieredConfig()
		cfg.DisableReplication = disable
		c := newCluster(testbedSpec(nodes, total))
		ptsURL, _, err := genParticles(c, ParticlesFor(total), 8, false)
		if err != nil {
			return nil, err
		}
		d := core.New(c, cfg)
		m, err := runWorld(c, d, ranks, func(r *mpi.Rank) error {
			// Global read-only scans with a pcache too small to retain the
			// dataset: every rank refaults every page each iteration.
			cl := d.NewClient(r.Proc(), r.Node().ID)
			pts, err := core.Open[particle](cl, ptsURL, particleCodec{})
			if err != nil {
				return err
			}
			pts.BoundMemory(total / int64(ranks) / 4)
			n := pts.Len()
			buf := make([]particle, 512)
			for pass := 0; pass < 2; pass++ {
				pts.SeqTxBegin(0, n, core.ReadOnly|core.Global)
				for off := int64(0); off < n; off += int64(len(buf)) {
					m := int64(len(buf))
					if m > n-off {
						m = n - off
					}
					pts.GetRange(off, buf[:m])
				}
				pts.TxEnd()
				r.Barrier()
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("ablation replication=%v: %w", !disable, err)
		}
		_, bytes := c.Fabric.Stats()
		t.Add(!disable, m.Runtime.Seconds(), float64(bytes)/float64(device.MB))
	}
	return t, nil
}

// AblationBagOrder compares Random Forest's sorted-index bag scan against
// fetching the bag in raw permutation order on a half-spilled partition.
// DESIGN.md documents why the sorted scan is the faithful reproduction of
// the paper's per-page fault cost; this ablation quantifies the penalty
// of the naive order (one page fetch per sample instead of per page).
func AblationBagOrder(prof Profile) (*stats.Table, error) {
	t := stats.NewTable("ablation-bag-order",
		"sorted", "runtime_s", "sync_faults", "async_fills")
	nodes := 2
	ranks := nodes * prof.ProcsPerNode
	total := prof.Fig8BytesPerNode * int64(nodes)
	bound := total / int64(ranks) / 2 // half the partition spills
	for _, unsorted := range []bool{false, true} {
		c := newCluster(testbedSpec(nodes, total))
		ptsURL, labURL, err := genParticles(c, ParticlesFor(total), 8, true)
		if err != nil {
			return nil, err
		}
		d := core.New(c, tieredConfig())
		m, err := runWorld(c, d, ranks, func(r *mpi.Rank) error {
			_, err := rf.Mega(r, d, rf.Config{
				DatasetURL: ptsURL, LabelURL: labURL, Classes: 8, Seed: 5,
				BoundBytes: bound, CostPerSample: ScaleCost(20 * vtime.Nanosecond),
				UnsortedBag: unsorted,
			})
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("ablation sorted=%v: %w", !unsorted, err)
		}
		faults, fills, _ := d.Stats()
		t.Add(!unsorted, m.Runtime.Seconds(), faults, fills)
	}
	return t, nil
}
