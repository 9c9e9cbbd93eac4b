package experiments

import (
	"fmt"
	"math"

	"megammap/internal/apps/dbscan"
	"megammap/internal/apps/grayscott"
	"megammap/internal/apps/kmeans"
	"megammap/internal/apps/rf"
	"megammap/internal/cluster"
	"megammap/internal/core"
	"megammap/internal/datagen"
	"megammap/internal/mpi"
	"megammap/internal/simnet"
	"megammap/internal/sparklike"
	"megammap/internal/stager"
	"megammap/internal/stats"
	"megammap/internal/vtime"
)

// Fig5 reproduces the weak-scaling study (paper Fig. 5): KMeans and
// Random Forest against the Spark-model baseline, DBSCAN and Gray-Scott
// against MPI, with per-node dataset size fixed while nodes grow. All
// datasets fit in memory; MegaMmap runs with no optimizations and a
// DRAM-only scache.
func Fig5(prof Profile) (*stats.Table, error) {
	t := stats.NewTable("fig5-weak-scaling",
		"app", "variant", "nodes", "procs", "runtime_s", "mem_mb")
	for _, nodes := range prof.Fig5Nodes {
		ranks := nodes * prof.ProcsPerNode
		if err := fig5KMeans(prof, t, nodes, ranks); err != nil {
			return nil, fmt.Errorf("fig5 kmeans @%d: %w", nodes, err)
		}
		if err := fig5RF(prof, t, nodes, ranks); err != nil {
			return nil, fmt.Errorf("fig5 rf @%d: %w", nodes, err)
		}
		if err := fig5DBSCAN(prof, t, nodes, ranks); err != nil {
			return nil, fmt.Errorf("fig5 dbscan @%d: %w", nodes, err)
		}
		if err := fig5GrayScott(prof, t, nodes, ranks); err != nil {
			return nil, fmt.Errorf("fig5 grayscott @%d: %w", nodes, err)
		}
	}
	return t, nil
}

// fig5DRAMTier sizes the scache DRAM tier to hold the whole dataset with
// slack (the in-memory regime).
func fig5DRAMTier(totalBytes int64, nodes int) int64 {
	per := totalBytes/int64(nodes)*3 + 4<<20
	return per
}

// ParticlesFor converts dataset bytes to a particle count.
func ParticlesFor(bytes int64) int { return int(bytes / datagen.ParticleSize) }

func fig5KMeans(prof Profile, t *stats.Table, nodes, ranks int) error {
	total := prof.Fig5BytesPerNode * int64(nodes)
	n := ParticlesFor(total)
	cfg := kmeans.Config{
		K: 8, MaxIter: 4,
		CostPerDist: ScaleCost(3 * vtime.Nanosecond),
		InitSpan:    total / datagen.ParticleSize / int64(ranks),
	}

	// MegaMmap.
	c := newCluster(testbedSpec(nodes, fig5DRAMTier(total, nodes)))
	ptsURL, _, err := genParticles(c, n, cfg.K, false)
	if err != nil {
		return err
	}
	d := core.New(c, inMemoryConfig())
	mcfg := cfg
	mcfg.DatasetURL = ptsURL
	// The pcache holds most of the partition; the scache DRAM tier holds
	// the staged dataset (the paper's in-memory regime).
	mcfg.BoundBytes = total / int64(ranks) * 3 / 4
	m, err := runWorld(c, d, ranks, func(r *mpi.Rank) error {
		_, err := kmeans.Mega(r, d, mcfg)
		return err
	})
	if err != nil {
		return err
	}
	t.Add("kmeans", "megammap", nodes, ranks, m.Runtime.Seconds(), m.PeakMemMB)

	// Spark model.
	cs := newCluster(testbedSpec(nodes, fig5DRAMTier(total, nodes)))
	ptsURL, _, err = genParticles(cs, n, cfg.K, false)
	if err != nil {
		return err
	}
	s := sparklike.NewSession(cs, sparkConfig(prof))
	scfg := cfg
	scfg.DatasetURL = ptsURL
	ms, err := runSpark(cs, func(p *vtime.Proc) error {
		_, err := kmeans.Spark(p, s, stager.New(cs), scfg)
		s.Close()
		return err
	})
	if err != nil {
		return err
	}
	t.Add("kmeans", "spark", nodes, ranks, ms.Runtime.Seconds(), ms.PeakMemMB)
	return nil
}

func fig5RF(prof Profile, t *stats.Table, nodes, ranks int) error {
	total := prof.Fig5RFBytes * int64(nodes)
	n := ParticlesFor(total)
	cfg := rf.Config{Classes: 8, MaxDepth: 10, Seed: 9, CostPerSample: ScaleCost(20 * vtime.Nanosecond)}

	c := newCluster(testbedSpec(nodes, fig5DRAMTier(total, nodes)))
	ptsURL, labURL, err := genParticles(c, n, cfg.Classes, true)
	if err != nil {
		return err
	}
	d := core.New(c, inMemoryConfig())
	mcfg := cfg
	mcfg.DatasetURL, mcfg.LabelURL = ptsURL, labURL
	// Bags draw from the rank's own partition (sorted-index bagging);
	// bound the pcache at twice the partition so the scan stays cached
	// without letting per-rank residency grow with node count.
	mcfg.BoundBytes = total / int64(ranks) * 2
	m, err := runWorld(c, d, ranks, func(r *mpi.Rank) error {
		_, err := rf.Mega(r, d, mcfg)
		return err
	})
	if err != nil {
		return err
	}
	t.Add("rf", "megammap", nodes, ranks, m.Runtime.Seconds(), m.PeakMemMB)

	cs := newCluster(testbedSpec(nodes, fig5DRAMTier(total, nodes)))
	ptsURL, labURL, err = genParticles(cs, n, cfg.Classes, true)
	if err != nil {
		return err
	}
	s := sparklike.NewSession(cs, sparkConfig(prof))
	scfg := cfg
	scfg.DatasetURL, scfg.LabelURL = ptsURL, labURL
	ms, err := runSpark(cs, func(p *vtime.Proc) error {
		_, err := rf.Spark(p, s, stager.New(cs), scfg)
		s.Close()
		return err
	})
	if err != nil {
		return err
	}
	t.Add("rf", "spark", nodes, ranks, ms.Runtime.Seconds(), ms.PeakMemMB)
	return nil
}

func fig5DBSCAN(prof Profile, t *stats.Table, nodes, ranks int) error {
	total := prof.Fig5BytesPerNode * int64(nodes)
	n := ParticlesFor(total)
	cfg := dbscan.Config{Eps: 8, MinPts: 64, CostPerPoint: ScaleCost(8 * vtime.Nanosecond)}

	c := newCluster(testbedSpec(nodes, fig5DRAMTier(total, nodes)))
	ptsURL, _, err := genParticles(c, n, 8, false)
	if err != nil {
		return err
	}
	d := core.New(c, inMemoryConfig())
	mcfg := cfg
	mcfg.DatasetURL = ptsURL
	m, err := runWorld(c, d, ranks, func(r *mpi.Rank) error {
		_, err := dbscan.Mega(r, d, mcfg)
		return err
	})
	if err != nil {
		return err
	}
	t.Add("dbscan", "megammap", nodes, ranks, m.Runtime.Seconds(), m.PeakMemMB)

	cp := newCluster(testbedSpec(nodes, fig5DRAMTier(total, nodes)))
	ptsURL, _, err = genParticles(cp, n, 8, false)
	if err != nil {
		return err
	}
	pcfg := cfg
	pcfg.DatasetURL = ptsURL
	st := stager.New(cp)
	mp, err := runWorld(cp, nil, ranks, func(r *mpi.Rank) error {
		_, err := dbscan.MPI(r, st, pcfg)
		return err
	})
	if err != nil {
		return err
	}
	t.Add("dbscan", "mpi", nodes, ranks, mp.Runtime.Seconds(), mp.PeakMemMB)
	return nil
}

// gsSideFor returns the grid side L whose grid occupies about totalBytes.
func gsSideFor(totalBytes int64) int {
	l := int(math.Cbrt(float64(totalBytes / grayscott.CellSize)))
	if l%2 == 1 {
		l--
	}
	if l < 8 {
		l = 8
	}
	return l
}

func fig5GrayScott(prof Profile, t *stats.Table, nodes, ranks int) error {
	total := prof.Fig5GSBytes * int64(nodes)
	cfg := grayscott.Config{
		L: gsSideFor(total), Steps: 4, PlotGap: 0,
		CostPerCell: ScaleCost(36 * vtime.Nanosecond),
	}

	c := newCluster(testbedSpec(nodes, fig5DRAMTier(total*2, nodes)))
	d := core.New(c, inMemoryConfig())
	m, err := runWorld(c, d, ranks, func(r *mpi.Rank) error {
		_, err := grayscott.Mega(r, d, cfg)
		return err
	})
	if err != nil {
		return err
	}
	t.Add("grayscott", "megammap", nodes, ranks, m.Runtime.Seconds(), m.PeakMemMB)

	cp := newCluster(testbedSpec(nodes, fig5DRAMTier(total*2, nodes)))
	st := stager.New(cp)
	mp, err := runWorld(cp, nil, ranks, func(r *mpi.Rank) error {
		_, err := grayscott.MPI(r, st, cfg)
		return err
	})
	if err != nil {
		return err
	}
	t.Add("grayscott", "mpi", nodes, ranks, mp.Runtime.Seconds(), mp.PeakMemMB)
	return nil
}

// sparkConfig sizes the Spark-model session to the profile: the scaled
// TCP fabric and three resident copies at load (raw partition bytes,
// deserialized objects, cached RDD — the paper's 3-4x footprint).
func sparkConfig(prof Profile) sparklike.Config {
	cfg := sparklike.DefaultConfig()
	cfg.TasksPerNode = prof.ProcsPerNode
	cfg.CopiesOnLoad = 3
	cfg.Link = scaleLink(simnet.TCP10())
	return cfg
}

// runSpark measures a driver-side body on the cluster's engine.
func runSpark(c *cluster.Cluster, body func(p *vtime.Proc) error) (measured, error) {
	start := c.Engine.Now()
	var end vtime.Duration
	var bodyErr error
	c.Engine.Spawn("spark-driver", func(p *vtime.Proc) {
		bodyErr = body(p)
		end = p.Now()
	})
	if err := c.Engine.Run(); err != nil {
		return measured{}, err
	}
	if bodyErr != nil {
		return measured{}, bodyErr
	}
	return measured{Runtime: end - start, PeakMemMB: peakMemMB(c)}, nil
}
