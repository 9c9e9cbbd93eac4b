package main

import (
	"megammap/internal/cluster"
	"megammap/internal/core"
	"megammap/internal/datagen"
	"megammap/internal/device"
	"megammap/internal/simnet"
	"megammap/internal/stager"
	"megammap/internal/vtime"
)

// scaleShift is the repository's capacity scale (paper bytes >> 10):
// bandwidths are divided and per-element compute costs multiplied by
// the same factor, so virtual durations come out at full-system size.
const scaleShift = 10

func scaleCost(d vtime.Duration) vtime.Duration { return d << scaleShift }

func scaleDev(p device.Profile) device.Profile {
	p.ReadBW /= float64(int64(1) << scaleShift)
	p.WriteBW /= float64(int64(1) << scaleShift)
	return p
}

// testbed is the scaled four-tier cluster the paper's evaluation uses:
// per-node DRAM plus NVMe/SSD/HDD scache tiers, RoCE fabric and a
// shared PFS. dramTier sizes the scache DRAM tier of every node.
func testbed(nodes int, dramTier int64) *cluster.Cluster {
	link := simnet.RoCE40()
	link.Bandwidth /= float64(int64(1) << scaleShift)
	return cluster.New(cluster.Spec{
		Nodes:    nodes,
		CoresPer: 48,
		DRAMPer:  48 * device.MB,
		Tiers: []cluster.TierSpec{
			{Name: "dram", Profile: scaleDev(device.DRAMProfile(dramTier))},
			{Name: "nvme", Profile: scaleDev(device.NVMeProfile(128 * device.MB))},
			{Name: "ssd", Profile: scaleDev(device.SSDProfile(256 * device.MB))},
			{Name: "hdd", Profile: scaleDev(device.HDDProfile(1024 * device.MB))},
		},
		Link:      link,
		PFS:       scaleDev(device.PFSProfile(64 * device.GB)),
		PFSFanout: 8,
	})
}

// tierNames lists the scache tiers of the testbed, fastest first.
var tierNames = []string{"dram", "nvme", "ssd", "hdd"}

// tieredConfig is the DSM configuration of the out-of-core runs: all
// four tiers, 48 KB pages (divisible by 24-byte particles), and the
// evaluation's worker split.
func tieredConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Tiers = tierNames
	cfg.DefaultPageSize = 48 << 10
	cfg.WorkersLowLat = 4
	cfg.WorkersHighLat = 8
	return cfg
}

// stageParticles writes a clustered particle dataset to the cluster's
// PFS through the stager, charging its write time on the engine.
func stageParticles(c *cluster.Cluster, url string, spec datagen.Spec) error {
	var genErr error
	c.Engine.Spawn("datagen", func(p *vtime.Proc) {
		b, err := stager.New(c).Open(url)
		if err != nil {
			genErr = err
			return
		}
		_, genErr = datagen.New(spec).WriteTo(p, b, 0)
	})
	if err := c.Engine.Run(); err != nil {
		return err
	}
	return genErr
}

// reap runs the engine on after DSM.Shutdown until every daemon has
// seen the stop and exited. Engine.Run returns once the application
// procs finish, leaving daemon goroutines parked mid-sleep; they keep
// the whole cluster reachable, so without this each repetition would
// leak its testbed into the next one's heap.
func reap(c *cluster.Cluster) error {
	c.Engine.Spawn("reap", func(p *vtime.Proc) { p.Sleep(vtime.Second) })
	return c.Engine.Run()
}
