package experiments

import (
	"fmt"

	"megammap/internal/apps/grayscott"
	"megammap/internal/cluster"
	"megammap/internal/core"
	"megammap/internal/device"
	"megammap/internal/mpi"
	"megammap/internal/simnet"
	"megammap/internal/stats"
	"megammap/internal/vtime"
)

// DMSHConfig is one Fig. 7 storage composition. Capacities are per node;
// the paper's labels (48D-48H, ...) are preserved, with each "GB" mapped
// to the profile's unit.
type DMSHConfig struct {
	Label string
	DRAM  int64
	NVMe  int64
	SSD   int64
	HDD   int64
}

// Fig7Configs returns the paper's four DMSH compositions with each of the
// paper's GB figures mapped to unit bytes.
func Fig7Configs(unit int64) []DMSHConfig {
	return []DMSHConfig{
		{Label: "48D-48H", DRAM: 48 * unit, HDD: 48 * unit},
		{Label: "48D-16N-32S", DRAM: 48 * unit, NVMe: 16 * unit, SSD: 32 * unit},
		{Label: "48D-32N-16S", DRAM: 48 * unit, NVMe: 32 * unit, SSD: 16 * unit},
		{Label: "48D-48N", DRAM: 48 * unit, NVMe: 48 * unit},
	}
}

// fig7Unit maps the paper's "GB" to profile-scale bytes: the grid (two
// working copies) must overflow DRAM into the composition's storage tier,
// reproducing the paper's 96 GB/node dataset against 48 GB DRAM.
func fig7Unit(prof Profile) int64 {
	grid := int64(prof.Fig7L) * int64(prof.Fig7L) * int64(prof.Fig7L) * 16
	// Two grid copies fill ~90% of DRAM+secondary (48+48 units per node).
	return grid * 2 * 10 / 9 / int64(prof.Fig7Nodes) / 96
}

// Fig7 reproduces the persistent tiered-memory study (paper Fig. 7):
// write-intensive Gray-Scott with checkpointing every step, run over the
// four DMSH compositions. Faster tiers absorb the grid overflow and the
// asynchronous staging engine persists checkpoints in the background;
// rows also report the per-node storage cost in the paper's $/GB terms.
func Fig7(prof Profile) (*stats.Table, error) {
	t := stats.NewTable("fig7-tiering",
		"config", "runtime_s", "mem_mb", "cost_usd_per_node", "checkpoints")
	nodes := prof.Fig7Nodes
	ranks := nodes * prof.ProcsPerNode
	for _, dc := range Fig7Configs(fig7Unit(prof)) {
		cfg := grayscott.Config{
			L: prof.Fig7L, Steps: prof.Fig7Steps, PlotGap: 1,
			CkptURL:     "file:///out/gs-fig7.bin",
			BoundBytes:  dc.DRAM / int64(prof.ProcsPerNode) / 4,
			CostPerCell: ScaleCost(36 * vtime.Nanosecond),
		}
		spec := fig7Spec(nodes, dc)
		c := newCluster(spec)
		d := core.New(c, fig7CoreConfig(dc))
		var ckpts int
		m, err := runWorld(c, d, ranks, func(r *mpi.Rank) error {
			res, err := grayscott.Mega(r, d, cfg)
			if err == nil && r.Rank() == 0 {
				ckpts = res.Checkpoints
			}
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("fig7 %s: %w", dc.Label, err)
		}
		t.Add(dc.Label, m.Runtime.Seconds(), m.PeakMemMB, fig7Cost(dc), ckpts)
	}
	return t, nil
}

// fig7Spec builds a testbed with exactly the composition's tiers.
func fig7Spec(nodes int, dc DMSHConfig) cluster.Spec {
	var tiers []cluster.TierSpec
	tiers = append(tiers, cluster.TierSpec{Name: "dram", Profile: scaleDev(device.DRAMProfile(dc.DRAM))})
	if dc.NVMe > 0 {
		tiers = append(tiers, cluster.TierSpec{Name: "nvme", Profile: scaleDev(device.NVMeProfile(dc.NVMe))})
	}
	if dc.SSD > 0 {
		tiers = append(tiers, cluster.TierSpec{Name: "ssd", Profile: scaleDev(device.SSDProfile(dc.SSD))})
	}
	if dc.HDD > 0 {
		tiers = append(tiers, cluster.TierSpec{Name: "hdd", Profile: scaleDev(device.HDDProfile(dc.HDD))})
	}
	return cluster.Spec{
		Nodes:     nodes,
		CoresPer:  48,
		DRAMPer:   dc.DRAM + 16*device.MB,
		Tiers:     tiers,
		Link:      scaleLink(simnet.RoCE40()),
		PFS:       scaleDev(device.PFSProfile(64 * device.GB)),
		PFSFanout: 8,
	}
}

func fig7CoreConfig(dc DMSHConfig) core.Config {
	cfg := tieredConfig()
	var tiers []string
	tiers = append(tiers, "dram")
	if dc.NVMe > 0 {
		tiers = append(tiers, "nvme")
	}
	if dc.SSD > 0 {
		tiers = append(tiers, "ssd")
	}
	if dc.HDD > 0 {
		tiers = append(tiers, "hdd")
	}
	cfg.Tiers = tiers
	return cfg
}

// fig7Cost prices the composition's storage (excluding DRAM, as the
// paper's $/GB comparison does) at the paper's nominal capacities: the
// labels carry the GB figures, so price them directly.
func fig7Cost(dc DMSHConfig) float64 {
	unit := dc.DRAM / 48 // bytes per paper-GB
	gb := func(scaled int64) float64 { return float64(scaled / unit) }
	return gb(dc.NVMe)*0.08 + gb(dc.SSD)*0.04 + gb(dc.HDD)*0.02
}
