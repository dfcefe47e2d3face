// Command hmbench is hetsim's end-to-end benchmark. One invocation runs one
// named workload and prints every end-to-end metric (--trace 0) or every
// per-layer metric (--trace 1) by name and unit, after checking that the
// simulator's outputs are correct and deterministic.
//
//	hmbench --workload sim-run|figures|serve-mixed --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 42, "failed": 0, "metrics": {"wall_s": {"value": 3.1, "unit": "s"}, ...}}
//
// The program is driven only through public package functions
// (experiments.Run, experiments.ByID, executors with telemetry spans,
// serve.New(...).Handler()) and reads the statistics those already expose;
// it adds no instrumentation to the simulator. See README.md for the
// workloads, the metrics and which layer each per-layer metric attributes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

// defaultSeed is the seed whose outputs are pinned by reference.json.
const defaultSeed = 1

type metricDef struct{ name, unit string }

// endToEnd lists the metrics printed with --trace 0, in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"sim_cycles_per_s", "cycles/s"},
	{"sim_accesses_per_s", "accesses/s"},
	{"runs_per_s", "runs/s"},
	{"alloc_mb", "MB"},
	{"rss_peak_mb", "MB"},
	{"req_p50_ms", "ms"},
	{"job_p50_s", "s"},
	{"job_tail_s", "s"},
}

// perLayer lists the metrics printed with --trace 1, in BENCHMARK.json
// order. A layer that does no work on a workload reports 0.
var perLayer = []metricDef{
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.cpu_share", "frac"},
	{"gpu.warps", "count"},
	{"gpu.mem_requests", "count"},
	{"gpu.l1_hit_rate", "frac"},
	{"gpu.cpu_share", "frac"},
	{"tlb.misses", "count"},
	{"tlb.cpu_share", "frac"},
	{"memsys.accesses", "count"},
	{"memsys.avg_latency_cycles", "cycles"},
	{"memsys.p99_latency_cycles", "cycles"},
	{"memsys.bo_served_frac", "frac"},
	{"memsys.cpu_share", "frac"},
	{"cache.l2_hit_rate", "frac"},
	{"cache.mshr_full_stalls", "count"},
	{"cache.mshr_peak", "count"},
	{"cache.cpu_share", "frac"},
	{"dram.reads", "count"},
	{"dram.writes", "count"},
	{"dram.bus_util_max", "frac"},
	{"dram.cpu_share", "frac"},
	{"workloads.build_ms", "ms"},
	{"workloads.cpu_share", "frac"},
	{"workloads.rng_cpu_share", "frac"},
	{"core.pages_placed", "count"},
	{"core.fallbacks", "count"},
	{"core.cpu_share", "frac"},
	{"vm.cpu_share", "frac"},
	{"gpurt.cpu_share", "frac"},
	{"profiler.cpu_share", "frac"},
	{"migrate.epochs", "count"},
	{"migrate.promotions", "count"},
	{"migrate.demotions", "count"},
	{"migrate.pages", "count"},
	{"migrate.writeback_stalls", "count"},
	{"migrate.cpu_share", "frac"},
	{"pool.runs", "count"},
	{"pool.cache_hits", "count"},
	{"pool.busy_frac", "frac"},
	{"pool.run_ms_p50", "ms"},
	{"pool.cpu_share", "frac"},
	{"experiments.serial_frac", "frac"},
	{"experiments.cpu_share", "frac"},
	{"serve.req_p99_ms", "ms"},
	{"serve.queue_wait_ms_p50", "ms"},
	{"serve.exec_ms_p50", "ms"},
	{"serve.jobs_deduped", "count"},
	{"serve.disk_hits", "count"},
	{"serve.http_requests", "count"},
	{"serve.cpu_share", "frac"},
	{"serve.encode_cpu_share", "frac"},
	{"runtime.gc_cpu_frac", "frac"},
	{"runtime.gc_cycles", "count"},
	{"bench.gen_late_p99_ms", "ms"},
	{"bench.trace_overhead_frac", "frac"},
	{"bench.error_frac", "frac"},
}

// options are the command-line inputs every workload receives.
type options struct {
	seed    int64
	budget  time.Duration // how long the untraced passes measure
	trace   bool
	workers int // worker goroutines and connections: the host's CPU count
	update  bool
}

// report collects one invocation's operation counts, check failures and
// metric values. fail and pin may be called from several goroutines.
type report struct {
	mu        sync.Mutex
	attempted int
	failures  []string
	values    map[string]float64
	notes     []string
	digests   map[string]string // output digests checked against reference.json
}

func newReport() *report {
	return &report{values: map[string]float64{}, digests: map[string]string{}}
}

// fail records a failed operation or output check.
func (r *report) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// pin records an output digest that must repeat on every run of the
// default seed (see checkReference).
func (r *report) pin(label, digest string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.digests[label]; ok && old != digest {
		r.failures = append(r.failures, label+": output differs between passes")
		return
	}
	r.digests[label] = digest
}

// runners are the workloads by name.
var runners = map[string]func(o options, r *report) error{
	"sim-run":     runSimRun,
	"figures":     runFigures,
	"serve-mixed": runServeMixed,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: sim-run, figures or serve-mixed")
		seed    = flag.Int64("seed", defaultSeed, "workload seed: inputs, arrival schedule and config choice derive from it")
		seconds = flag.Int("seconds", 10, "seconds the untraced passes measure")
		trace   = flag.Int("trace", 0, "0: print end-to-end metrics; 1: run an extra traced pass and print per-layer metrics")
		update  = flag.Bool("update-reference", false, "rewrite this workload's reference digests (default seed only)")
	)
	flag.Parse()
	run, ok := runners[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: hmbench --workload sim-run|figures|serve-mixed --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if *update && *seed != defaultSeed {
		fmt.Fprintf(os.Stderr, "hmbench: -update-reference needs the default seed %d\n", defaultSeed)
		os.Exit(2)
	}
	o := options{
		seed:    *seed,
		budget:  time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		workers: nproc(),
		update:  *update,
	}
	r := newReport()
	if err := run(o, r); err != nil {
		fmt.Fprintf(os.Stderr, "hmbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if err := checkReference(*name, o, r); err != nil {
		fmt.Fprintf(os.Stderr, "hmbench: %v\n", err)
		os.Exit(1)
	}
	if err := emit(os.Stdout, *name, o, r); err != nil {
		fmt.Fprintf(os.Stderr, "hmbench: %v\n", err)
		os.Exit(1)
	}
}

// emit prints the human-readable report and then, as the last line, the
// JSON result.
func emit(f *os.File, name string, o options, r *report) error {
	defs := endToEnd
	if o.trace {
		defs = perLayer
		if r.attempted > 0 {
			r.set("bench.error_frac", float64(len(r.failures))/float64(r.attempted))
		}
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Attempted: r.attempted, Metrics: map[string]value{}}
	fmt.Fprintf(f, "workload %s seed %d trace %v workers %d\n", name, o.seed, o.trace, o.workers)
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok && !o.trace {
			return fmt.Errorf("%s: end-to-end metric %s was not measured", name, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.fail("metric %s is %v", d.name, v)
			v = 0
		}
		out.Metrics[d.name] = value{Value: v, Unit: d.unit}
		fmt.Fprintf(f, "  %-28s %14.6g %s\n", d.name, v, d.unit)
	}
	for _, n := range r.notes {
		fmt.Fprintln(f, "  note:", n)
	}
	for _, msg := range r.failures {
		fmt.Fprintln(f, "  FAILED:", msg)
	}
	out.Correct, out.Failed = len(r.failures) == 0, len(r.failures)
	fmt.Fprintf(f, "  error_frac %d/%d\n", len(r.failures), r.attempted)
	if out.Attempted < 1 {
		return fmt.Errorf("%s: no operation attempted", name)
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(f, string(b))
	return err
}

// sortedKeys returns m's keys in order, for deterministic output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
