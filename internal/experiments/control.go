package experiments

import (
	"megammap/internal/apps/grayscott"
	"megammap/internal/control"
	"megammap/internal/core"
	"megammap/internal/mpi"
	"megammap/internal/vtime"
)

// AdaptiveRepairConfig switches repair pacing from the fixed period to
// the AIMD governor, with the other governors off so the ablation
// isolates one control loop.
func AdaptiveRepairConfig(cfg *core.Config) {
	cfg.RepairPeriod = 0
	cc := control.Default()
	cc.Scrub, cc.Prefetch, cc.Evict = false, false, false
	cfg.Control = cc
}

// AdaptiveScrubConfig replaces fixed full sweeps with the incremental
// cursor governor (only the scrub loop enabled). The utilization target
// sits below the stencil's own fabric load (~0.45 of aggregate NIC
// capacity), so the governor must yield to the foreground and scrub in
// small windows rather than matching the fixed mode's full sweeps.
func AdaptiveScrubConfig(cfg *core.Config) {
	cc := control.Default()
	cc.Repair, cc.Prefetch, cc.Evict = false, false, false
	cc.TargetUtil = 0.3
	cfg.Control = cc
}

// ScrubCellOut reports one Gray-Scott scrub run.
type ScrubCellOut struct {
	Runtime     vtime.Duration
	ScrubSweeps int64
	ScrubPages  int64
	MaxSweep    int64
	Cycles      int64
}

// RunScrubCell executes one Gray-Scott run with checksummed pages on a
// fresh testbed whose grid fills half of the nodes' bytesPerNode DRAM
// tiers. sweep is the fixed ScrubPeriod (0 = scrubbing off) and mod,
// when non-nil, edits the DSM config (AdaptiveScrubConfig installs the
// cursor governor this way).
func RunScrubCell(nodes, ranks int, bytesPerNode int64, steps int, sweep vtime.Duration, mod func(*core.Config)) (ScrubCellOut, error) {
	total := bytesPerNode * int64(nodes)
	c := newCluster(testbedSpec(nodes, bytesPerNode))
	ccfg := tieredConfig()
	ccfg.ChecksumPages = true
	ccfg.ScrubPeriod = sweep
	// Small pages push the checksummed page set past ScrubMax, so a
	// fixed sweep visibly exceeds the budget the governor honours.
	ccfg.DefaultPageSize = 12 << 10 // divisible by 16B cells
	if mod != nil {
		mod(&ccfg)
	}
	d := core.New(c, ccfg)
	m, err := runWorld(c, d, ranks, func(r *mpi.Rank) error {
		_, err := grayscott.Mega(r, d, grayscott.Config{
			L: gsSideFor(total / 2), Steps: steps,
			BoundBytes:  total / int64(ranks),
			CostPerCell: ScaleCost(36 * vtime.Nanosecond),
		})
		return err
	})
	if err != nil {
		return ScrubCellOut{}, err
	}
	sweeps, pages, maxSweep, cycles := d.ScrubStats()
	return ScrubCellOut{
		Runtime:     m.Runtime,
		ScrubSweeps: sweeps,
		ScrubPages:  pages,
		MaxSweep:    maxSweep,
		Cycles:      cycles,
	}, nil
}
