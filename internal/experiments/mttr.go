package experiments

import (
	"megammap/internal/apps/kmeans"
	"megammap/internal/core"
	"megammap/internal/datagen"
	"megammap/internal/faults"
	"megammap/internal/mpi"
	"megammap/internal/vtime"
)

// KMeansCellOut reports one KMeans fault-plane run: the measured
// runtime, the virtual time at which dataset generation finished (fault
// schedules are derived relative to it), the workload result, and the
// repair-plane and injector counters.
type KMeansCellOut struct {
	Runtime         vtime.Duration
	GenEnd          vtime.Duration
	Result          kmeans.Result
	Counters        []faults.Counter
	MTTR            vtime.Duration // redundancy lost -> repair queue drained
	RedundancyOK    bool           // a redundancy window opened and closed
	UnderReplicated int            // under-replicated gauge at run end
	PageRepairs     int64
}

// RunKMeansFaultCell executes one KMeans run on a fresh testbed,
// optionally under a fault plan (absolute virtual times; dataset
// generation precedes the workload), with one backup replica per scache
// page and the anti-entropy repair daemon active. mod, when non-nil,
// edits the DSM config before construction (AdaptiveRepairConfig swaps
// fixed repair pacing for the AIMD governor this way).
func RunKMeansFaultCell(cfg kmeans.Config, plan *faults.Plan, nodes, ranks, n int, total int64, mod func(*core.Config)) (KMeansCellOut, error) {
	c := newCluster(testbedSpec(nodes, fig5DRAMTier(total, nodes)))
	ptsURL, _, err := genParticles(c, n, cfg.K, false)
	if err != nil {
		return KMeansCellOut{}, err
	}
	out := KMeansCellOut{GenEnd: c.Engine.Now()}
	var inj *faults.Injector
	if plan != nil {
		inj = c.InstallFaults(*plan)
	}
	ccfg := inMemoryConfig()
	ccfg.Replicas = 1
	if mod != nil {
		mod(&ccfg)
	}
	d := core.New(c, ccfg)
	cfg.DatasetURL = ptsURL
	cfg.InitSpan = total / datagen.ParticleSize / int64(ranks)
	cfg.BoundBytes = total / int64(ranks) * 3 / 4
	m, err := runWorld(c, d, ranks, func(r *mpi.Rank) error {
		res, err := kmeans.Mega(r, d, cfg)
		if r.Rank() == 0 {
			out.Result = res
		}
		return err
	})
	if err != nil {
		return KMeansCellOut{}, err
	}
	out.Runtime = m.Runtime
	h := d.Hermes()
	out.UnderReplicated = h.UnderReplicated()
	out.PageRepairs = d.PageRepairs()
	if lost, restored, ok := h.RedundancyWindow(); ok {
		out.MTTR = restored - lost
		out.RedundancyOK = true
	}
	out.Counters = inj.Counters()
	return out, nil
}
