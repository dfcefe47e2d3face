package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"hetsim/internal/experiments"
	"hetsim/internal/workloads"
)

// setupReps is how often each workload sets up; setup_s is the median.
const setupReps = 5

func nproc() int { return runtime.NumCPU() }

// median returns the middle of xs (the mean of the middle two for an
// even count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (p in (0,100]).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// tail returns the highest percentile of xs that still has at least ten
// samples beyond it, and that percentile. With fewer than twenty samples
// that percentile would fall below the median; tail then reports the
// maximum as the 100th.
func tail(xs []float64) (value, pct float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	k := n - 10 // 1-based rank with n-k = 10 samples above it
	if 2*k < n {
		return s[n-1], 100
	}
	return s[k-1], 100 * float64(k) / float64(n)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// passSample is what one measured pass cost on the host.
type passSample struct {
	wall  time.Duration
	alloc uint64  // bytes allocated (runtime.MemStats.TotalAlloc delta)
	rss   float64 // peak resident set size during the pass, bytes
}

// measure times fn and reports the bytes it allocated and the process's
// peak resident set size while it ran: the kernel's high-water mark
// (VmHWM), reset to the current size just before fn.
func measure(fn func() error) (passSample, error) {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return passSample{}, fmt.Errorf("resetting the peak RSS: %w", err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	err := fn()
	wall := time.Since(t0)
	runtime.ReadMemStats(&after)
	rss, rerr := peakResident()
	return passSample{wall: wall, alloc: after.TotalAlloc - before.TotalAlloc, rss: rss}, errors.Join(err, rerr)
}

// peakResident reads the process's peak resident set size, in bytes, from
// the VmHWM line of /proc/self/status.
func peakResident() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb * 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// runPasses runs pass at least twice, and again while another pass of the
// last one's length still fits in budget.
func runPasses(budget time.Duration, pass func() error) ([]passSample, error) {
	var out []passSample
	t0 := time.Now()
	for len(out) < 2 || time.Since(t0)+out[len(out)-1].wall <= budget {
		ps, err := measure(pass)
		if err != nil {
			return out, err
		}
		out = append(out, ps)
	}
	return out, nil
}

// passMedians reports the per-pass medians of wall time, allocation and
// peak resident set size.
func passMedians(r *report, ps []passSample) (wall float64) {
	walls := make([]float64, len(ps))
	allocs := make([]float64, len(ps))
	rss := make([]float64, len(ps))
	for i, p := range ps {
		walls[i] = p.wall.Seconds()
		allocs[i] = float64(p.alloc) / 1e6
		rss[i] = p.rss / 1e6
	}
	r.set("wall_s", median(walls))
	r.set("alloc_mb", median(allocs))
	r.set("rss_peak_mb", median(rss))
	r.note("%d passes, wall %s s", len(ps), fmtList(walls))
	return median(walls)
}

// timeSetup runs setup setupReps times and reports the median as setup_s.
func timeSetup(r *report, setup func() error) error {
	var ts []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if err := setup(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	r.set("setup_s", median(ts))
	r.note("set-up %s s", fmtList(ts))
	return nil
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return strings.Join(parts, " ")
}

// digest is the hex SHA-256 of v's JSON encoding. experiments.Result
// encodes every simulated field (cycles, per-zone counters, the full
// latency histogram, page counts, placement and migration stats) and no
// host-side timing, so equal digests mean identical simulations.
func digest(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		// Results are plain data; an unencodable one is a bug.
		panic(fmt.Sprintf("hmbench: encoding %T: %v", v, err))
	}
	return digestBytes(b)
}

func digestBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// gcSnapshot samples the runtime's cumulative GC CPU time, total used CPU
// time and GC cycle count.
type gcSnapshot struct {
	gcCPU, usedCPU float64
	cycles         uint64
}

func readGC() gcSnapshot {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return gcSnapshot{
		gcCPU:   s[0].Value.Float64(),
		usedCPU: s[1].Value.Float64() - s[2].Value.Float64(),
		cycles:  s[3].Value.Uint64(),
	}
}

// setGC reports the GC's share of the CPU this process used since a, and
// the GC cycles completed.
func setGC(r *report, a gcSnapshot) {
	b := readGC()
	if used := b.usedCPU - a.usedCPU; used > 0 {
		r.set("runtime.gc_cpu_frac", (b.gcCPU-a.gcCPU)/used)
	}
	r.set("runtime.gc_cycles", float64(b.cycles-a.cycles))
}

// setBuildMS reports workloads.build_ms: the host time to build every
// distinct workload input the workload simulates — workloads.Build,
// Shrink, Allocate and Programs, the per-run set-up experiments.Run
// repeats — median of three repetitions.
func setBuildMS(r *report, rcs []experiments.RunConfig) error {
	var ts []float64
	for rep := 0; rep < 3; rep++ {
		seen := map[string]bool{}
		t0 := time.Now()
		for _, rc := range rcs {
			id := fmt.Sprintf("%s/%d/%d", rc.Workload, rc.Dataset.Seed, rc.Shrink)
			if seen[id] {
				continue
			}
			seen[id] = true
			if err := buildInputs(rc.Workload, rc.Dataset, rc.Shrink); err != nil {
				return err
			}
		}
		ts = append(ts, float64(time.Since(t0).Microseconds())/1000)
	}
	r.set("workloads.build_ms", median(ts))
	return nil
}

func buildInputs(name string, ds workloads.Dataset, shrink int) error {
	spec, err := workloads.Build(name, ds)
	if err != nil {
		return err
	}
	spec.Shrink(shrink)
	allocs, err := spec.Allocate(newRuntime(), nil)
	if err != nil {
		return err
	}
	if len(spec.Programs(allocs)) == 0 {
		return fmt.Errorf("%s: no warp programs", name)
	}
	return nil
}

// setRates reports simulated cycles, accesses and executed runs per host
// second, as medians over passes that each did the given amount of work.
func setRates(r *report, passes []passSample, cycles, accesses, runs float64) {
	var c, a, n []float64
	for _, p := range passes {
		s := p.wall.Seconds()
		c = append(c, cycles/s)
		a = append(a, accesses/s)
		n = append(n, runs/s)
	}
	r.set("sim_cycles_per_s", median(c))
	r.set("sim_accesses_per_s", median(a))
	r.set("runs_per_s", median(n))
}

// latencies collects request (ms) and job (s) latencies. Jobs come in
// groups, one per pass, and their tail is read per group and reported as
// the median over groups, so one disturbed pass does not set it and the
// samples behind it do not depend on how many passes the host fits in the
// budget.
type latencies struct {
	req []float64
	job [][]float64
}

// group starts a new group of jobs; jobs go to the latest one.
func (l *latencies) group() { l.job = append(l.job, nil) }

func (l *latencies) addReq(ms float64) { l.req = append(l.req, ms) }
func (l *latencies) addJob(s float64)  { l.job[len(l.job)-1] = append(l.job[len(l.job)-1], s) }

// report sets req_p50_ms and job_p50_s (medians of all samples) and
// job_tail_s (median over groups of the highest percentile with at least
// ten samples beyond it; see tail). Empty groups are skipped.
func (l *latencies) report(r *report) {
	var job, tails, pcts []float64
	for _, g := range l.job {
		job = append(job, g...)
		if len(g) > 0 {
			v, p := tail(g)
			tails = append(tails, v)
			pcts = append(pcts, p)
		}
	}
	r.set("req_p50_ms", median(l.req))
	r.set("job_p50_s", median(job))
	r.set("job_tail_s", median(tails))
	r.note("%d requests; job_tail_s is the median over %d groups of the p%.1f of about %d jobs",
		len(l.req), len(tails), median(pcts), len(job)/max(1, len(tails)))
}
