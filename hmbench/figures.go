package main

import (
	"sync"
	"time"

	"hetsim/internal/experiments"
	"hetsim/internal/telemetry"
	"hetsim/internal/workloads"
)

// figureIDs are the capacity-constrained half of the paper, rendered by
// the figures workload: profiling, oracle and annotated placement at 10%
// capacity (fig10) and online migration on the paper's system (figmig)
// and on every topology preset (figmigtopo).
var figureIDs = []string{"fig10", "figmig", "figmigtopo"}

const figuresShrink = 4

// resultLog is a result-cache backend that stores nothing: the pool asks
// it for every config that misses the in-memory tier just before running
// the config, and hands it every result it ran. It lets the benchmark time
// and check each executed simulation of a figure without tracing.
type resultLog struct {
	mu    sync.Mutex
	start map[string]time.Time
	runs  []loggedRun
}

type loggedRun struct {
	key string
	dur time.Duration
	res experiments.Result
}

func newResultLog() *resultLog { return &resultLog{start: map[string]time.Time{}} }

// Get records when the pool began filling key, and always misses.
func (l *resultLog) Get(key string) (experiments.Result, bool) {
	now := time.Now()
	l.mu.Lock()
	l.start[key] = now
	l.mu.Unlock()
	return experiments.Result{}, false
}

// Put records one executed simulation.
func (l *resultLog) Put(key string, res experiments.Result) {
	now := time.Now()
	l.mu.Lock()
	l.runs = append(l.runs, loggedRun{key: key, dur: now.Sub(l.start[key]), res: res})
	l.mu.Unlock()
}

// figuresPass is what one rendering of figureIDs did.
type figuresPass struct {
	runs, cacheHits int
	cycles          uint64
	accesses        uint64
	log             *resultLog
}

// renderFigures renders figureIDs once at shrink through a fresh result
// cache, so nothing carries over from an earlier pass. span, when non-nil,
// becomes each figure's telemetry parent. Figure renders count as
// requests, executed simulations as jobs, in a new group of lat.
func renderFigures(o options, ds workloads.Dataset, r *report, span func() *telemetry.Span, lat *latencies) figuresPass {
	lat.group()
	log := newResultLog()
	cache := experiments.NewResultCache()
	cache.SetBackend(log)
	fp := figuresPass{log: log}
	for _, id := range figureIDs {
		fn, _ := experiments.ByID(id)
		opts := experiments.Options{Shrink: figuresShrink, Workers: o.workers, Dataset: ds, Cache: cache}
		if span != nil {
			opts.Span = span()
		}
		r.attempted++
		t0 := time.Now()
		fig, err := fn(opts)
		d := time.Since(t0)
		opts.Span.End()
		if err != nil {
			r.fail("%s: %v", id, err)
			continue
		}
		lat.addReq(float64(d.Microseconds()) / 1000)
		fp.runs += fig.Sweep.Runs
		fp.cacheHits += fig.Sweep.CacheHits
		r.pin("figure/"+id+"/csv", digestBytes([]byte(fig.Table.CSV())))
		checkHeadline(r, fig)
	}
	for _, lr := range log.runs {
		r.attempted++
		lat.addJob(lr.dur.Seconds())
		fp.cycles += uint64(lr.res.Cycles)
		fp.accesses += lr.res.Accesses
		r.pin("run/"+lr.key[:16], digest(lr.res))
	}
	if len(log.runs) != fp.runs {
		r.fail("figures: %d simulations reached the cache backend, sweeps report %d", len(log.runs), fp.runs)
	}
	return fp
}

// checkHeadline asserts the paper orderings the rendered figures support:
// annotated placement at least matches BW-AWARE at 10% capacity (figmig),
// and the oracle beats BW-AWARE on every topology (figmigtopo).
func checkHeadline(r *report, fig experiments.Figure) {
	switch fig.ID {
	case "figmig":
		if v := fig.Headline["annotated_vs_bwaware"]; !(v >= 1) {
			r.fail("figmig: annotated_vs_bwaware = %.4f, want >= 1", v)
		}
	case "figmigtopo":
		for _, p := range []string{"k40-ddr4", "gh200", "cxl-expansion"} {
			if v := fig.Headline["oracle_vs_bwaware_"+p]; !(v > 1) {
				r.fail("figmigtopo: oracle_vs_bwaware_%s = %.4f, want > 1", p, v)
			}
		}
	}
}

// runFigures renders figureIDs repeatedly with Workers = nproc, each pass
// through a fresh result cache.
func runFigures(o options, r *report) error {
	ds := workloads.Train()
	ds.Seed = o.seed
	err := timeSetup(r, func() error {
		// Warm the heap and the figure code paths on a small render.
		fn, _ := experiments.ByID("fig10")
		_, err := fn(experiments.Options{
			Shrink: 16, Workers: o.workers, Dataset: ds,
			Workloads: []string{"bfs", "needle"}, Cache: experiments.NewResultCache(),
		})
		return err
	})
	if err != nil {
		return err
	}

	var lat latencies
	var first *figuresPass
	check := func(fp figuresPass, pass string) {
		if first == nil {
			first = &fp
			return
		}
		if fp.runs != first.runs || fp.cacheHits != first.cacheHits {
			r.fail("%s: %d runs + %d cache hits, first pass had %d + %d",
				pass, fp.runs, fp.cacheHits, first.runs, first.cacheHits)
		}
	}
	passes, err := runPasses(o.budget, func() error {
		check(renderFigures(o, ds, r, nil, &lat), "untraced pass")
		return nil
	})
	if err != nil {
		return err
	}
	wall := passMedians(r, passes)
	setRates(r, passes, float64(first.cycles), float64(first.accesses), float64(first.runs))
	lat.report(r)
	if !o.trace {
		return nil
	}

	rec := telemetry.NewRecorder()
	rec.SetEnabled(true)
	tr := rec.Trace("")
	var fp figuresPass
	var tlat latencies
	gc := readGC()
	t0 := time.Now()
	err = profileShares(r, func() error {
		fp = renderFigures(o, ds, r, func() *telemetry.Span { return tr.Start(nil, "figure") }, &tlat)
		return nil
	})
	traced := time.Since(t0)
	setGC(r, gc)
	if err != nil {
		return err
	}
	check(fp, "traced pass")
	var totals simTotals
	for _, lr := range fp.log.runs {
		totals.add(lr.res)
	}
	totals.report(r)
	setSpanLayers(r, rec.Records(), traced, o.workers)
	r.set("pool.runs", float64(fp.runs))
	r.set("pool.cache_hits", float64(fp.cacheHits))
	r.set("bench.trace_overhead_frac", traced.Seconds()/wall-1)
	var rcs []experiments.RunConfig
	for _, wl := range workloads.Names() {
		rcs = append(rcs, experiments.RunConfig{Workload: wl, Dataset: ds, Shrink: figuresShrink})
	}
	return setBuildMS(r, rcs)
}
