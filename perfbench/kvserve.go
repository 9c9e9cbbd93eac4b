package main

import (
	"fmt"
	"math/rand"

	"megammap/internal/apps/kvstore"
	"megammap/internal/control"
	"megammap/internal/core"
	"megammap/internal/datagen"
	"megammap/internal/device"
	"megammap/internal/tenant"
	"megammap/internal/vtime"
)

// The kv-serve testbed: three tenants each own a kvstore over the DSM
// of a 4-node cluster with one backup replica per page, page checksums,
// and the DSM's control and health governors on. Traffic is open loop
// (Poisson arrivals on virtual time) at an offered load below
// saturation. Prefill runs in setup; the warm-up window is excluded
// from every statistic; the measured window is a fixed virtual horizon
// of arrivals, drained to completion.
const (
	kvNodes    = 4
	kvPageSize = 128 * kvstore.SlotSize
	kvPool     = 384 * device.KB // scache DRAM tier per node; pooled pcache budget
	kvWarmup   = 100 * vtime.Millisecond
	kvHorizon  = 60 * vtime.Second
)

// kvRoster is the tenant mix: one latency-class tenant with a skewed
// hot set and two write-heavy batch tenants with larger tables.
func kvRoster() []tenant.Spec {
	return []tenant.Spec{
		{Name: "lat", Class: tenant.Latency, Rate: 1500, Poisson: true,
			ZipfS: 1.2, Keys: 2048, WriteFrac: 0.05, MaxInFlight: 4, QueueDepth: 64},
		{Name: "batch-a", Class: tenant.Batch, Rate: 300, Poisson: true,
			ZipfS: 1.05, Keys: 8192, WriteFrac: 0.5, MaxInFlight: 4, QueueDepth: 128},
		{Name: "batch-b", Class: tenant.Batch, Rate: 300, Poisson: true,
			ZipfS: 1.05, Keys: 8192, WriteFrac: 0.5, MaxInFlight: 4, QueueDepth: 128},
	}
}

// kvReq is one admitted request waiting in its tenant's queue.
type kvReq struct {
	id    uint64
	at    vtime.Duration // scheduled arrival; latency counts from here
	key   uint64
	write bool
}

// kvClass accumulates one QoS class's measured-window request records.
type kvClass struct {
	wait, service []float64 // ms
}

func prepareKV(seed int64) (runner, error) {
	specs := kvRoster()
	if err := (tenant.Config{Tenants: specs}).Validate(); err != nil {
		return nil, err
	}
	return func(r *rep) (outcome, error) { return runKV(r, specs, seed) }, nil
}

func openStore(cl *core.Client, ts tenant.Spec) (*kvstore.Store, error) {
	bias := -1.0
	if ts.Class == tenant.Latency {
		bias = 1
	}
	return kvstore.Open(cl, "kv/"+ts.Name, ts.Keys*2,
		core.WithPageSize(kvPageSize), core.WithTenant("kv/"+ts.Name, bias))
}

func runKV(r *rep, specs []tenant.Spec, seed int64) (outcome, error) {
	sp := r.tr.begin("setup.cluster", 0, 0)
	c := testbed(kvNodes, kvPool)
	cfg := tieredConfig()
	cfg.DefaultPageSize = kvPageSize
	cfg.Replicas = 1
	cfg.ChecksumPages = true
	cfg.Control = control.Default()
	cfg.Health = control.DefaultHealth()
	d := core.New(c, cfg)
	r.tr.end(sp, c.Engine.Now())

	n := len(specs)
	quota := kvPool / int64(n) // each tenant's static share of the pcache pool
	// shadow[i][key] is the last acknowledged value of the tenant's key.
	shadow := make([][]int64, n)
	var failure error // the engine serializes procs: plain writes are safe
	fail := func(err error) {
		if failure == nil {
			failure = err
		}
	}

	sp = r.tr.begin("setup.prefill", 0, c.Engine.Now())
	for i, ts := range specs {
		shadow[i] = make([]int64, ts.Keys)
		c.Engine.Spawn("prefill/"+ts.Name, func(p *vtime.Proc) {
			cl := d.NewClient(p, i%kvNodes)
			st, err := openStore(cl, ts)
			if err != nil {
				fail(err)
				return
			}
			st.BoundMemory(quota)
			for k := int64(0); k < ts.Keys; k++ {
				if err := st.Put(uint64(k), k); err != nil {
					fail(fmt.Errorf("prefill %s key %d: %w", ts.Name, k, err))
					return
				}
				shadow[i][k] = k
			}
			cl.Drain()
		})
	}
	if err := c.Engine.Run(); err != nil {
		return outcome{}, err
	}
	if failure != nil {
		return outcome{}, failure
	}
	r.tr.end(sp, c.Engine.Now())
	r.setupDone()

	start := c.Engine.Now()
	win := start + kvWarmup // measured window opens; arrivals stop at win+kvHorizon
	adms := make([]*tenant.Admission, n)
	var (
		attempted, completed, failed int64
		latencies                    []float64 // latency tenant, ms from scheduled arrival
		lastDone                     vtime.Duration
		classes                      = map[tenant.Class]*kvClass{tenant.Latency: {}, tenant.Batch: {}}
		admAt                        = make([][3]int64, n) // admitted, shed, completed at window open
	)
	c.Engine.Spawn("window", func(p *vtime.Proc) {
		p.Sleep(kvWarmup)
		for i, a := range adms {
			admAt[i] = [3]int64{a.Admitted(), a.Shed(), a.Completed()}
		}
		r.begin(c, d)
	})
	for i, ts := range specs {
		adms[i] = tenant.NewAdmission(ts.Name, ts.MaxInFlight, ts.QueueDepth)
		q := vtime.NewChan[kvReq](ts.QueueDepth + 1)
		tseed := seed*1_000_003 + int64(i)*7919
		c.Engine.Spawn("arrivals/"+ts.Name, func(p *vtime.Proc) {
			arr := datagen.NewArrivals(datagen.ArrivalSpec{Rate: ts.Rate, Poisson: ts.Poisson, Seed: tseed})
			zipf := datagen.NewZipf(datagen.ZipfSpec{Keys: ts.Keys, S: ts.ZipfS, Seed: tseed + 1})
			coin := rand.New(rand.NewSource(tseed + 2))
			for seq := uint64(1); ; seq++ {
				at := start + arr.Next()
				if at > win+kvHorizon {
					break
				}
				p.Sleep(at - p.Now())
				measured := at >= win
				if measured {
					attempted++
				}
				write := coin.Float64() < ts.WriteFrac
				key := uint64(zipf.Next())
				if adms[i].Arrive() != nil {
					if measured {
						failed++
					}
					continue
				}
				q.Send(p, kvReq{id: uint64(i)<<48 | seq, at: at, key: key, write: write})
			}
			q.Close()
		})
		var writes int64
		for w := 0; w < ts.MaxInFlight; w++ {
			c.Engine.Spawn(fmt.Sprintf("worker/%s/%d", ts.Name, w), func(p *vtime.Proc) {
				cl := d.NewClient(p, i%kvNodes)
				st, err := openStore(cl, ts)
				if err != nil {
					fail(err)
					return
				}
				st.BoundMemory(quota / int64(ts.MaxInFlight))
				for {
					req, ok := q.Recv(p)
					if !ok {
						break
					}
					qs := r.tr.beginTenant("kv.queue_wait", ts.Name, req.id, req.at)
					for !adms[i].Dispatch() {
						p.Sleep(20 * vtime.Microsecond)
					}
					disp := p.Now()
					r.tr.end(qs, disp)
					ss := r.tr.beginTenant("kv.service", ts.Name, req.id, disp)
					ok = true
					if req.write {
						writes++
						val := int64(i+1)<<40 | writes
						if err := st.Put(req.key, val); err != nil {
							ok = false
						} else {
							shadow[i][req.key] = val
						}
					} else if v, found := st.Get(req.key); !found || v != shadow[i][req.key] {
						fail(fmt.Errorf("kv %s: get(%d) = %d, %v; last acknowledged write is %d",
							ts.Name, req.key, v, found, shadow[i][req.key]))
						ok = false
					}
					done := p.Now()
					r.tr.end(ss, done)
					adms[i].Complete()
					if req.at < win {
						continue
					}
					lastDone = max(lastDone, done)
					if !ok {
						failed++
						continue
					}
					completed++
					cls := classes[ts.Class]
					cls.wait = append(cls.wait, (disp - req.at).Milliseconds())
					cls.service = append(cls.service, (done - disp).Milliseconds())
					if ts.Class == tenant.Latency {
						latencies = append(latencies, (done - req.at).Milliseconds())
					}
				}
				cl.Drain()
			})
		}
	}
	runErr := c.Engine.Run()
	r.end()
	if runErr != nil {
		return outcome{}, runErr
	}
	if failure != nil {
		return outcome{}, failure
	}
	layers := r.layers(c, d)

	sp = r.tr.begin("dsm.shutdown", 0, c.Engine.Now())
	var shutErr error
	c.Engine.Spawn("shutdown", func(p *vtime.Proc) { shutErr = d.Shutdown(p) })
	if err := c.Engine.Run(); err != nil {
		return outcome{}, err
	}
	r.tr.end(sp, c.Engine.Now())
	if shutErr != nil {
		return outcome{}, fmt.Errorf("shutdown: %w", shutErr)
	}
	if bad := d.CheckInvariants(); len(bad) > 0 {
		return outcome{}, fmt.Errorf("DSM invariants: %v", bad)
	}
	if err := reap(c); err != nil {
		return outcome{}, err
	}
	if attempted == 0 || completed == 0 {
		return outcome{}, fmt.Errorf("kv-serve measured no requests")
	}

	for i, ts := range specs {
		pre := "tenant." + ts.Class.String() + "."
		layers[pre+"admitted"] += float64(adms[i].Admitted() - admAt[i][0])
		layers[pre+"shed"] += float64(adms[i].Shed() - admAt[i][1])
		layers[pre+"completed"] += float64(adms[i].Completed() - admAt[i][2])
	}
	for cl, rec := range classes {
		pre := "tenant." + cl.String() + "."
		layers[pre+"queue_wait_p99_ms"] = percentile(rec.wait, 0.99)
		layers[pre+"service_p99_ms"] = percentile(rec.service, 0.99)
	}
	simS := (lastDone - win).Seconds()
	return outcome{
		sim: map[string]float64{
			"sim_s":       simS,
			"sim_p50_ms":  percentile(latencies, 0.50),
			"sim_p99_ms":  percentile(latencies, 0.99),
			"goodput_ops": float64(completed) / simS,
			"ok_ratio":    float64(completed) / float64(attempted),
		},
		layers:    layers,
		attempted: attempted,
		failed:    failed,
	}, nil
}
