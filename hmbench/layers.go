package main

import (
	"strings"
	"time"

	"hetsim/internal/core"
	"hetsim/internal/experiments"
	"hetsim/internal/gpurt"
	"hetsim/internal/memsys"
	"hetsim/internal/metrics"
	"hetsim/internal/telemetry"
	"hetsim/internal/vm"
)

// simTotals sums the simulated counters of a set of results: the exact
// [C] per-layer metrics of gpu, tlb, memsys, cache, dram, core and
// migrate. Every field comes from experiments.Result, so the totals repeat
// exactly for a given seed.
type simTotals struct {
	cycles, accesses uint64
	latencySum       float64
	latency          metrics.Histogram
	boAccesses       uint64
	l2Hits, dramR    uint64
	dramW            uint64
	warps            int
	memRequests      uint64
	l1Hits, l1Misses uint64
	tlbMisses        uint64
	pagesPlaced      int
	fallbacks        int
	epochs, promos   int
	demos, wbStalls  int
	migratedPages    uint64
}

func (t *simTotals) add(res experiments.Result) {
	t.cycles += uint64(res.Cycles)
	t.accesses += res.Accesses
	t.latencySum += float64(res.Mem.TotalLatency)
	t.latency.Merge(&res.Mem.Latency)
	t.boAccesses += res.Mem.PerZone[vm.ZoneBO].Accesses
	for _, z := range res.Mem.PerZone {
		t.l2Hits += z.L2Hits
		t.dramR += z.DRAMReads
		t.dramW += z.DRAMWrites
	}
	g := res.GPUStats
	t.warps += g.WarpsCompleted
	t.memRequests += g.MemRequests
	t.l1Hits += g.L1Hits
	t.l1Misses += g.L1Misses
	t.tlbMisses += g.TLBMisses
	t.pagesPlaced += res.Place.Total
	t.fallbacks += res.Place.Fallbacks
	m := res.Migration
	t.epochs += m.Epochs
	t.promos += m.Promotions
	t.demos += m.Demotions
	t.wbStalls += m.WriteBackStalls
	t.migratedPages += res.Mem.MigratedPages
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (t *simTotals) report(r *report) {
	r.set("gpu.warps", float64(t.warps))
	r.set("gpu.mem_requests", float64(t.memRequests))
	r.set("gpu.l1_hit_rate", ratio(float64(t.l1Hits), float64(t.l1Hits+t.l1Misses)))
	r.set("tlb.misses", float64(t.tlbMisses))
	r.set("memsys.accesses", float64(t.accesses))
	r.set("memsys.avg_latency_cycles", ratio(t.latencySum, float64(t.accesses)))
	r.set("memsys.p99_latency_cycles", float64(t.latency.Percentile(0.99)))
	r.set("memsys.bo_served_frac", ratio(float64(t.boAccesses), float64(t.accesses)))
	r.set("cache.l2_hit_rate", ratio(float64(t.l2Hits), float64(t.accesses)))
	r.set("dram.reads", float64(t.dramR))
	r.set("dram.writes", float64(t.dramW))
	r.set("core.pages_placed", float64(t.pagesPlaced))
	r.set("core.fallbacks", float64(t.fallbacks))
	r.set("migrate.epochs", float64(t.epochs))
	r.set("migrate.promotions", float64(t.promos))
	r.set("migrate.demotions", float64(t.demos))
	r.set("migrate.pages", float64(t.migratedPages))
	r.set("migrate.writeback_stalls", float64(t.wbStalls))
}

// runSpans folds the "run" spans an executor records under a telemetry
// parent: the simulator counters experiments.Run attaches to each (events
// fired, MSHR stalls and high-water mark, per-channel bus utilization) and
// the spans' host durations.
type runSpans struct {
	events   float64
	busyUS   float64
	durMS    []float64
	mshrFull float64
	mshrPeak float64
	busUtil  float64
}

func foldRunSpans(recs []telemetry.SpanRecord) runSpans {
	var s runSpans
	for _, rec := range recs {
		if rec.Name != "run" || rec.Attrs["sim.events"] == nil {
			continue
		}
		s.events += num(rec.Attrs["sim.events"])
		s.busyUS += float64(rec.DurUS)
		s.durMS = append(s.durMS, float64(rec.DurUS)/1000)
		s.mshrFull += num(rec.Attrs["stall.mshr_full"])
		s.mshrPeak = max(s.mshrPeak, num(rec.Attrs["mshr.peak"]))
		for k, v := range rec.Attrs {
			if strings.HasPrefix(k, "bw.") && strings.HasSuffix(k, "_util") {
				s.busUtil = max(s.busUtil, num(v))
			}
		}
	}
	return s
}

func (s runSpans) report(r *report) {
	r.set("sim.events", s.events)
	r.set("sim.ns_per_event", ratio(s.busyUS*1000, s.events))
	r.set("cache.mshr_full_stalls", s.mshrFull)
	r.set("cache.mshr_peak", s.mshrPeak)
	r.set("dram.bus_util_max", s.busUtil)
	r.set("pool.run_ms_p50", median(s.durMS))
}

// num converts a span attribute (set as an integer or float) to float64.
func num(v any) float64 {
	switch x := v.(type) {
	case int:
		return float64(x)
	case int64:
		return float64(x)
	case uint64:
		return float64(x)
	case float64:
		return x
	default:
		return 0
	}
}

// newRuntime returns a first-touch GPU runtime over an unconstrained
// two-pool address space: enough for workloads.Spec.Allocate to hand out
// the virtual ranges Programs needs, without placing any page.
func newRuntime() *gpurt.Runtime {
	space := vm.NewSpace(vm.DefaultPageSize, []vm.ZoneConfig{
		{Name: "bo", CapacityPages: vm.Unlimited},
		{Name: "co", CapacityPages: vm.Unlimited},
	})
	placer := core.NewPlacer(space, core.Local{Zone: vm.ZoneBO}, experiments.SBITFor(memsys.Table1Config()))
	return gpurt.NewFirstTouch(space, placer)
}

// setSpanLayers reports the per-layer metrics read from an executor's
// spans: the simulator counters on "run" spans, the pool's busy fraction
// (run-span time over wall x workers) and experiments.serial_frac, the
// share of wall time spent outside "sweep" spans.
func setSpanLayers(r *report, recs []telemetry.SpanRecord, wall time.Duration, workers int) {
	rs := foldRunSpans(recs)
	rs.report(r)
	r.set("pool.busy_frac", rs.busyUS/1e6/(wall.Seconds()*float64(workers)))
	var sweepUS float64
	for _, rec := range recs {
		if rec.Name == "sweep" {
			sweepUS += float64(rec.DurUS)
		}
	}
	r.set("experiments.serial_frac", 1-sweepUS/1e6/wall.Seconds())
}
