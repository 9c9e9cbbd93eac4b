package core_test

// Buffer-ownership regression suite. Every page image the DSM creates
// (fault reads, commit snapshots, read-modify-write and checksum scratch)
// comes from one pool and goes back to it, so a path that keeps using a
// buffer after returning it would silently share bytes with the buffer's
// next owner. With the pool's poison hook on, a returned buffer is
// overwritten at once, and each run here must reproduce its unpoisoned
// twin exactly: results, persisted bytes, fault counters, end time.

import (
	"reflect"
	"testing"

	"megammap/internal/apps/dbscan"
	"megammap/internal/cluster"
	"megammap/internal/core"
	"megammap/internal/datagen"
	"megammap/internal/device"
	"megammap/internal/mpi"
	"megammap/internal/simnet"
	"megammap/internal/stager"
	"megammap/internal/vtime"
)

type dbscanRun struct {
	mega, mpi dbscan.Result
	assign    []byte // Mega's persisted per-point cluster ids
	end       vtime.Duration
}

// runDBSCAN runs DBSCAN out of core (scache DRAM tier and pcache bound
// far below the dataset, so child-vector commits spill and re-stage) and
// the MPI reference on the same dataset.
func runDBSCAN(t *testing.T) dbscanRun {
	t.Helper()
	spec := cluster.Spec{
		Nodes:    2,
		CoresPer: 8,
		DRAMPer:  64 * device.MB,
		Tiers: []cluster.TierSpec{
			{Name: "dram", Profile: device.DRAMProfile(128 * device.KB)},
			{Name: "nvme", Profile: device.NVMeProfile(32 * device.MB)},
		},
		Link: simnet.RoCE40(),
		PFS:  device.PFSProfile(device.GB),
	}
	const url, out = "pq:///data/db.parquet:pts", "file:///out/db.bin"
	stage := func(c *cluster.Cluster) {
		g := datagen.New(datagen.DefaultSpec(6000, 3, 42))
		c.Engine.Spawn("datagen", func(p *vtime.Proc) {
			b, err := stager.New(c).Open(url)
			if err == nil {
				_, err = g.WriteTo(p, b, 0)
			}
			if err != nil {
				t.Error(err)
			}
		})
		if err := c.Engine.Run(); err != nil {
			t.Fatal(err)
		}
	}
	var run dbscanRun

	c := cluster.New(spec)
	stage(c)
	cfg := core.DefaultConfig()
	cfg.Tiers = []string{"dram", "nvme"}
	cfg.DefaultPageSize = 12 << 10
	d := core.New(c, cfg)
	err := mpi.NewWorld(c, 4).Run(func(r *mpi.Rank) {
		res, err := dbscan.Mega(r, d, dbscan.Config{DatasetURL: url, AssignURL: out, BoundBytes: 24 << 10})
		if err != nil {
			r.Fail(err)
			return
		}
		if r.Rank() == 0 {
			run.mega = res
			if err := d.Shutdown(r.Proc()); err != nil {
				r.Fail(err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	run.end = c.Engine.Now()
	run.assign, _ = c.PFSPeek("/out/db.bin")

	c = cluster.New(spec)
	stage(c)
	st := stager.New(c)
	err = mpi.NewWorld(c, 4).Run(func(r *mpi.Rank) {
		res, err := dbscan.MPI(r, st, dbscan.Config{DatasetURL: url})
		if err != nil {
			r.Fail(err)
			return
		}
		if r.Rank() == 0 {
			run.mpi = res
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return run
}

func TestPoisonedPoolDBSCANMegaMatchesMPI(t *testing.T) {
	plain := runDBSCAN(t)
	core.PoisonFreedBuffers(t)
	pois := runDBSCAN(t)
	if pois.mega != pois.mpi {
		t.Errorf("poisoned pool: mega %+v vs mpi %+v", pois.mega, pois.mpi)
	}
	if len(plain.assign) != 6000*4 {
		t.Fatalf("assignment file = %d bytes, want %d", len(plain.assign), 6000*4)
	}
	if !reflect.DeepEqual(plain, pois) {
		t.Errorf("poisoned pool changed the run:\nplain    %+v end %v\npoisoned %+v end %v",
			plain.mega, plain.end, pois.mega, pois.end)
	}
}

func TestPoisonedPoolKVStoreMatchesModel(t *testing.T) {
	// Checksummed pages with one backup each, under device errors and a
	// two-page pcache bound: every commit takes the checksum path's
	// pageImage scratch, and evictions refault constantly.
	mod := func(cfg *core.Config) { cfg.ChecksumPages = true }
	plain := runChaosKVCfg(t, dropPlan(5), 1, mod, 24<<10)
	core.PoisonFreedBuffers(t)
	pois := runChaosKVCfg(t, dropPlan(5), 1, mod, 24<<10)
	if plain.err != nil || pois.err != nil {
		t.Fatalf("errs: %v / %v", plain.err, pois.err)
	}
	if pois.mismatch != 0 {
		t.Errorf("poisoned pool: %d reads diverged from the model", pois.mismatch)
	}
	if !reflect.DeepEqual(plain, pois) {
		t.Errorf("poisoned pool changed the run:\nplain    %+v\npoisoned %+v", plain, pois)
	}
}

func TestPoisonedPoolChaosReplay(t *testing.T) {
	plain := runChaosKMeans(t, dropPlan(99), 1)
	core.PoisonFreedBuffers(t)
	pois := runChaosKMeans(t, dropPlan(99), 1)
	if plain.err != nil || pois.err != nil {
		t.Fatalf("errs: %v / %v", plain.err, pois.err)
	}
	if !reflect.DeepEqual(plain, pois) {
		t.Errorf("poisoned pool changed the replay:\nplain    %+v\npoisoned %+v", plain, pois)
	}
}
