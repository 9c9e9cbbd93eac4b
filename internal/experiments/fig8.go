package experiments

import (
	"fmt"

	"megammap/internal/apps/dbscan"
	"megammap/internal/apps/grayscott"
	"megammap/internal/apps/kmeans"
	"megammap/internal/apps/rf"
	"megammap/internal/cluster"
	"megammap/internal/core"
	"megammap/internal/mpi"
	"megammap/internal/stats"
	"megammap/internal/vtime"
)

// fig8One runs the Fig. 8 sweep for a single app (diagnostics).
func fig8One(prof Profile, app string) (*stats.Table, error) {
	return fig8Impl(prof, app)
}

// Fig8 reproduces the DRAM-scaling study (paper Fig. 8): each MegaMmap
// application runs with a sweep of per-rank memory bounds, overflowing
// into NVMe. Transaction-informed prefetching and asynchronous eviction
// keep performance near the full-DRAM point down to roughly half the
// memory; starving the pcache further brings synchronous fault stalls.
func Fig8(prof Profile) (*stats.Table, error) {
	return fig8Impl(prof, "")
}

func fig8Impl(prof Profile, only string) (*stats.Table, error) {
	t := stats.NewTable("fig8-dram-scaling",
		"app", "dram_frac", "bound_kb_per_rank", "runtime_s", "faults", "prefetches")
	nodes := prof.Fig8Nodes
	ranks := nodes * prof.ProcsPerNode
	total := prof.Fig8BytesPerNode * int64(nodes)
	perRankFull := total / int64(ranks) * 2 // full-DRAM bound: whole partition cached

	type appRun struct {
		name string
		run  func(c *cluster.Cluster, d *core.DSM, bound int64, ptsURL, labURL string) error
	}
	apps := []appRun{
		{name: "kmeans", run: func(c *cluster.Cluster, d *core.DSM, bound int64, ptsURL, _ string) error {
			_, err := runWorld(c, d, ranks, func(r *mpi.Rank) error {
				_, err := kmeans.Mega(r, d, kmeans.Config{
					DatasetURL: ptsURL, K: 8, MaxIter: 4, BoundBytes: bound,
					CostPerDist: ScaleCost(3 * vtime.Nanosecond),
					InitSpan:    total / 24 / int64(ranks),
				})
				return err
			})
			return err
		}},
		{name: "dbscan", run: func(c *cluster.Cluster, d *core.DSM, bound int64, ptsURL, _ string) error {
			_, err := runWorld(c, d, ranks, func(r *mpi.Rank) error {
				_, err := dbscan.Mega(r, d, dbscan.Config{
					DatasetURL: ptsURL, Eps: 8, MinPts: 64, BoundBytes: bound,
					CostPerPoint: ScaleCost(8 * vtime.Nanosecond),
				})
				return err
			})
			return err
		}},
		{name: "rf", run: func(c *cluster.Cluster, d *core.DSM, bound int64, ptsURL, labURL string) error {
			_, err := runWorld(c, d, ranks, func(r *mpi.Rank) error {
				_, err := rf.Mega(r, d, rf.Config{
					DatasetURL: ptsURL, LabelURL: labURL, Classes: 8, Seed: 5,
					BoundBytes: bound, CostPerSample: ScaleCost(20 * vtime.Nanosecond),
				})
				return err
			})
			return err
		}},
		{name: "grayscott", run: func(c *cluster.Cluster, d *core.DSM, bound int64, _, _ string) error {
			l := gsSideFor(total / 2)
			_, err := runWorld(c, d, ranks, func(r *mpi.Rank) error {
				_, err := grayscott.Mega(r, d, grayscott.Config{
					L: l, Steps: 3, BoundBytes: bound,
					CostPerCell: ScaleCost(36 * vtime.Nanosecond),
				})
				return err
			})
			return err
		}},
	}

	for _, app := range apps {
		if only != "" && app.name != only {
			continue
		}
		for _, frac := range prof.Fig8Fracs {
			bound := int64(float64(perRankFull) * frac)
			if bound < 96<<10 {
				bound = 96 << 10 // two pages minimum
			}
			// The scache DRAM tier shrinks with the same fraction; the
			// overflow lands in NVMe (the paper's setting).
			dramTier := int64(float64(prof.Fig8BytesPerNode) * frac)
			if dramTier < 512<<10 {
				dramTier = 512 << 10
			}
			c := newCluster(testbedSpec(nodes, dramTier))
			ptsURL, labURL := "", ""
			if app.name != "grayscott" {
				n := ParticlesFor(total)
				var err error
				ptsURL, labURL, err = genParticles(c, n, 8, app.name == "rf")
				if err != nil {
					return nil, err
				}
			}
			d := core.New(c, tieredConfig())
			start := c.Engine.Now()
			if err := app.run(c, d, bound, ptsURL, labURL); err != nil {
				return nil, fmt.Errorf("fig8 %s frac=%.3f: %w", app.name, frac, err)
			}
			faults, prefetches, _ := d.Stats()
			t.Add(app.name, frac, bound>>10, (c.Engine.Now() - start).Seconds(), faults, prefetches)
		}
	}
	return t, nil
}
