package experiments

import (
	"errors"
	"fmt"

	"megammap/internal/apps/grayscott"
	"megammap/internal/cluster"
	"megammap/internal/core"
	"megammap/internal/device"
	"megammap/internal/mpi"
	"megammap/internal/stager"
	"megammap/internal/stats"
	"megammap/internal/vtime"
)

// Fig6 reproduces the dataset-resolution study (paper Fig. 6): Gray-Scott
// at increasing grid side L on a fixed cluster. The MPI variant holds two
// grid copies in DRAM and is killed by the OOM killer once they exceed
// physical memory; MegaMmap bounds its pcache and spills to NVMe, so the
// largest resolutions remain feasible and science can continue. Rows
// report runtime (or "OOM"), dataset size, and peak memory.
func Fig6(prof Profile) (*stats.Table, error) {
	t := stats.NewTable("fig6-resolution",
		"L", "dataset_mb", "variant", "runtime_s", "mem_mb", "status")
	nodes := prof.Fig6Nodes
	ranks := nodes * prof.ProcsPerNode

	// Physical DRAM is sized so the MPI variant dies partway through the
	// sweep, as the paper's 48 GB nodes did after L=2688: two grid copies
	// per node at the middle L just fit (10% headroom for halos/buffers).
	mid := prof.Fig6Ls[(len(prof.Fig6Ls)-1)/2]
	gridAt := func(l int) int64 { return int64(l) * int64(l) * int64(l) * grayscott.CellSize }
	// 60% headroom: enough for MPI's halo buffers at the crossover L (the
	// OOM point stays between mid and the next L, since the grid grows
	// ~60% per step of the sweep) and for MegaMmap's pcache working-set
	// floors at the top of the sweep.
	dram := 2 * gridAt(mid) / int64(nodes) * 8 / 5

	for _, l := range prof.Fig6Ls {
		// The resolution study produces data: the final grid persists to
		// the PFS each step (the paper's simulation-output workflow), so
		// the MPI variant pays synchronous output I/O that MegaMmap's
		// staging engine overlaps with computation.
		cfg := grayscott.Config{
			L: l, Steps: prof.Fig6Steps, PlotGap: prof.Fig6Steps,
			CkptURL:     "file:///out/gs-fig6.bin",
			CostPerCell: ScaleCost(36 * vtime.Nanosecond),
		}
		datasetMB := float64(gridAt(l)) / float64(device.MB)

		// MegaMmap: bounded pcache, tiered scache over the same DRAM.
		spec := testbedSpec(nodes, dram*3/4)
		spec.DRAMPer = dram
		c := newCluster(spec)
		d := core.New(c, tieredConfig())
		mcfg := cfg
		// Three vectors (two grids + checkpoint) per rank share the node's
		// DRAM for their pcaches.
		mcfg.BoundBytes = dram / int64(prof.ProcsPerNode) / 4
		m, err := runWorld(c, d, ranks, func(r *mpi.Rank) error {
			_, err := grayscott.Mega(r, d, mcfg)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("fig6 megammap L=%d: %w", l, err)
		}
		t.Add(l, datasetMB, "megammap", m.Runtime.Seconds(), m.PeakMemMB, "ok")

		// MPI: plain in-memory slabs on identical hardware.
		specP := testbedSpec(nodes, dram*3/4)
		specP.DRAMPer = dram
		cp := newCluster(specP)
		st := stager.New(cp)
		mp, err := runWorld(cp, nil, ranks, func(r *mpi.Rank) error {
			_, err := grayscott.MPI(r, st, cfg)
			return err
		})
		switch {
		case err == nil:
			t.Add(l, datasetMB, "mpi", mp.Runtime.Seconds(), mp.PeakMemMB, "ok")
		case isOOM(err):
			t.Add(l, datasetMB, "mpi", "", peakMemFromSpec(specP), "OOM")
		default:
			return nil, fmt.Errorf("fig6 mpi L=%d: %w", l, err)
		}
	}
	return t, nil
}

func isOOM(err error) bool {
	var oom *cluster.ErrOOM
	return errors.As(err, &oom)
}

// peakMemFromSpec reports the DRAM the killed job was bounded by.
func peakMemFromSpec(spec cluster.Spec) float64 {
	return float64(spec.DRAMPer) / float64(device.MB)
}
