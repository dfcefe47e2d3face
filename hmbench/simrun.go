package main

import (
	"math/rand"
	"time"

	"hetsim/internal/experiments"
	"hetsim/internal/telemetry"
	"hetsim/internal/tlb"
	"hetsim/internal/topology"
	"hetsim/internal/workloads"
)

// namedRC is a run config with the label used in messages and reference
// digests.
type namedRC struct {
	name string
	rc   experiments.RunConfig
}

// simRunConfigs returns sim-run's seven full-fidelity configs in an order
// drawn from seed: bandwidth-bound (lbm, stencil), latency-bound (bfs) and
// skewed (xsbench, needle) workloads under LOCAL, INTERLEAVE and BW-AWARE,
// per-SM TLBs, and the gh200 and cxl-expansion pool topologies.
func simRunConfigs(seed int64, shrink int) ([]namedRC, error) {
	gh200, err := topology.Preset("gh200")
	if err != nil {
		return nil, err
	}
	cxl, err := topology.Preset("cxl-expansion")
	if err != nil {
		return nil, err
	}
	tlbCfg := tlb.DefaultConfig()
	cfgs := []namedRC{
		{"lbm/BW-AWARE", experiments.RunConfig{Workload: "lbm", Policy: experiments.BWAwarePolicy}},
		{"xsbench/BW-AWARE", experiments.RunConfig{Workload: "xsbench", Policy: experiments.BWAwarePolicy}},
		{"bfs/LOCAL", experiments.RunConfig{Workload: "bfs", Policy: experiments.LocalPolicy}},
		{"stencil/INTERLEAVE", experiments.RunConfig{Workload: "stencil", Policy: experiments.InterleavePolicy}},
		{"xsbench/BW-AWARE/tlb", experiments.RunConfig{Workload: "xsbench", Policy: experiments.BWAwarePolicy, TLB: &tlbCfg}},
		{"lbm/BW-AWARE/gh200", experiments.RunConfig{Workload: "lbm", Policy: experiments.BWAwarePolicy, Mem: gh200.MemsysConfig()}},
		{"needle/BW-AWARE/cxl-expansion", experiments.RunConfig{Workload: "needle", Policy: experiments.BWAwarePolicy, Mem: cxl.MemsysConfig()}},
	}
	ds := workloads.Train()
	ds.Seed = seed
	for i := range cfgs {
		cfgs[i].rc.Dataset = ds
		cfgs[i].rc.Seed = seed
		cfgs[i].rc.Shrink = shrink
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(cfgs), func(i, j int) { cfgs[i], cfgs[j] = cfgs[j], cfgs[i] })
	return cfgs, nil
}

// runSimRun times back-to-back full-fidelity experiments.Run calls on one
// goroutine, with no result cache.
func runSimRun(o options, r *report) error {
	var cfgs []namedRC
	err := timeSetup(r, func() error {
		var err error
		if cfgs, err = simRunConfigs(o.seed, 1); err != nil {
			return err
		}
		// Warm the heap and the code paths on the same configs at 1/8
		// length, so the first timed run does not pay for them.
		warm, err := simRunConfigs(o.seed, 8)
		if err != nil {
			return err
		}
		for _, c := range warm {
			if _, err := experiments.Run(c.rc); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	var lat latencies
	var cycles, accesses uint64
	pass := func() error {
		cycles, accesses = 0, 0
		lat.group()
		for _, c := range cfgs {
			r.attempted++
			t0 := time.Now()
			res, err := experiments.Run(c.rc)
			d := time.Since(t0)
			if err != nil {
				r.fail("%s: %v", c.name, err)
				continue
			}
			lat.addReq(float64(d.Microseconds()) / 1000)
			lat.addJob(d.Seconds())
			cycles += uint64(res.Cycles)
			accesses += res.Accesses
			r.pin(c.name, digest(res))
		}
		return nil
	}
	passes, err := runPasses(o.budget, pass)
	if err != nil {
		return err
	}
	wall := passMedians(r, passes)
	setRates(r, passes, float64(cycles), float64(accesses), float64(len(cfgs)))
	lat.report(r)
	if !o.trace {
		return nil
	}

	// Traced pass: the same runs through an isolated executor under a
	// telemetry parent, so every run gets a span carrying its simulator
	// counters, while a CPU profile attributes host time to packages.
	rec := telemetry.NewRecorder()
	rec.SetEnabled(true)
	root := rec.Trace("").Start(nil, "sim-run")
	exec := experiments.NewIsolatedExecutor(1).WithSpan(root)
	var totals simTotals
	gc := readGC()
	t0 := time.Now()
	err = profileShares(r, func() error {
		for _, c := range cfgs {
			r.attempted++
			res, err := exec.Run(c.rc)
			if err != nil {
				r.fail("%s (traced): %v", c.name, err)
				continue
			}
			r.pin(c.name, digest(res))
			totals.add(res)
		}
		return nil
	})
	traced := time.Since(t0)
	root.End()
	setGC(r, gc)
	if err != nil {
		return err
	}
	totals.report(r)
	setSpanLayers(r, rec.Records(), traced, 1)
	st := exec.Stats()
	r.set("pool.runs", float64(st.Runs))
	r.set("pool.cache_hits", float64(st.CacheHits))
	if st.CacheHits != 0 {
		r.fail("traced pass: %d result-cache hits, want 0", st.CacheHits)
	}
	r.set("bench.trace_overhead_frac", traced.Seconds()/wall-1)
	rcs := make([]experiments.RunConfig, len(cfgs))
	for i, c := range cfgs {
		rcs[i] = c.rc
	}
	return setBuildMS(r, rcs)
}
