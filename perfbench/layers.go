package main

import (
	"math"
	"sort"
	"strings"

	"megammap/internal/cluster"
	"megammap/internal/core"
)

const mb = float64(1 << 20)

// counters reads every cumulative per-layer count from the library's
// public Stats-style accessors. Keys ending in peak_mb are levels; all
// others are cumulative and reported as measured-phase deltas.
func counters(c *cluster.Cluster, d *core.DSM) map[string]float64 {
	m := make(map[string]float64, 64)
	m["vtime.events"] = float64(c.Engine.Events())

	faults, prefetches, evictions := d.Stats()
	hits, waste := d.PrefetchFillStats()
	m["core.faults"] = float64(faults)
	m["core.prefetches"] = float64(prefetches)
	m["core.evictions"] = float64(evictions)
	m["core.fill_hits"] = float64(hits)
	m["core.fill_waste"] = float64(waste)
	m["core.coalesced_reads"] = float64(d.CoalescedReads())
	m["core.control_ticks"] = float64(d.ControlTicks())
	m["health.probes"] = float64(d.HealthProbes())

	lookups, moved, movedBytes := d.Hermes().Stats()
	m["hermes.md_lookups"] = float64(lookups)
	m["hermes.blobs_moved"] = float64(moved)
	m["hermes.mb_moved"] = float64(movedBytes) / mb

	for _, tier := range tierNames {
		pre := "device." + tier + "."
		for _, n := range c.Nodes {
			dev := n.Devices[tier]
			if dev == nil {
				continue
			}
			rOps, wOps, rB, wB := dev.Stats()
			m[pre+"read_ops"] += float64(rOps)
			m[pre+"write_ops"] += float64(wOps)
			m[pre+"read_mb"] += float64(rB) / mb
			m[pre+"write_mb"] += float64(wB) / mb
			m[pre+"busy_s"] += dev.Busy().Seconds()
			m[pre+"peak_mb"] += float64(dev.Peak()) / mb
		}
	}

	rOps, _, rB, wB := c.PFS.Stats()
	m["stager.pfs_read_ops"] = float64(rOps)
	m["stager.pfs_read_mb"] = float64(rB) / mb
	m["stager.pfs_write_mb"] = float64(wB) / mb
	m["stager.pfs_busy_s"] = c.PFS.Busy().Seconds()

	msgs, bytes := c.Fabric.Stats()
	m["simnet.msgs"] = float64(msgs)
	m["simnet.mb"] = float64(bytes) / mb
	m["simnet.busy_s"] = c.Fabric.BusyTime().Seconds()
	return m
}

// layerDelta is after minus before for cumulative counters, plus the
// ratios derived from them.
func layerDelta(before, after map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(after)+1)
	for k, v := range after {
		if strings.HasSuffix(k, "peak_mb") { // a level, not a cumulative count
			out[k] = v
		} else {
			out[k] = v - before[k]
		}
	}
	if att := out["core.fill_hits"] + out["core.fill_waste"]; att > 0 {
		out["core.fill_hit_ratio"] = out["core.fill_hits"] / att
	} else {
		out["core.fill_hit_ratio"] = 0
	}
	return out
}

// percentile is the nearest-rank q-quantile of xs (0 for no samples).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}
