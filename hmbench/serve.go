package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"hetsim/internal/experiments"
	"hetsim/internal/metrics"
	"hetsim/internal/serve"
	"hetsim/internal/telemetry"
	"hetsim/internal/workloads"
)

// The serve-mixed traffic: an open loop of cached figure reads and
// uncached run submissions at fixed rates.
const (
	readsPerSec = 300
	jobsPerSec  = 3
	jobShrink   = 8
	pollEvery   = 20 * time.Millisecond
	// jobTimeout bounds how long a submitted run may take to finish.
	jobTimeout = 60 * time.Second
)

// figureRead is one cached figure the generator reads.
type figureRead struct {
	id        string
	shrink    int
	workloads []string
}

func (f figureRead) path() string {
	p := "/v1/figures/" + f.id
	if f.shrink > 0 {
		p += "?shrink=" + strconv.Itoa(f.shrink) + "&workloads=" + strings.Join(f.workloads, ",")
	}
	return p
}

// figureReads mixes a table without simulations, two figures of the
// paper and the all-topology sweep, warmed into the daemon's cache during
// set-up.
var figureReads = []figureRead{
	{id: "table1"},
	{id: "fig3", shrink: 16, workloads: []string{"bfs", "lbm"}},
	{id: "fig10", shrink: 16, workloads: []string{"bfs", "needle"}},
	{id: "figtopo", shrink: 16, workloads: []string{"xsbench"}},
}

// jobConfigs are the run submissions, cycled through in a seed-drawn
// rotation: simulations of the sim-run workloads at 1/8 length, one of
// them capacity constrained.
func jobConfigs(seed int64) []experiments.RunConfig {
	ds := workloads.Train()
	ds.Seed = seed
	cfgs := []experiments.RunConfig{
		{Workload: "bfs", Policy: experiments.LocalPolicy},
		{Workload: "xsbench", Policy: experiments.BWAwarePolicy},
		{Workload: "needle", Policy: experiments.BWAwarePolicy, BOCapacityFrac: 0.1},
		{Workload: "stencil", Policy: experiments.InterleavePolicy},
		{Workload: "lbm", Policy: experiments.BWAwarePolicy},
		{Workload: "mummergpu", Policy: experiments.BWAwarePolicy},
	}
	for i := range cfgs {
		cfgs[i].Dataset = ds
		cfgs[i].Shrink = jobShrink
	}
	return cfgs
}

// daemon is an in-process hmserved on a loopback port with a temporary
// disk cache, and the load generator's HTTP client (at most nproc
// connections).
type daemon struct {
	srv    *serve.Server
	hs     *http.Server
	served chan error
	rec    *telemetry.Recorder
	dir    string
	base   string
	client *http.Client
	bodies map[string][]byte // warmed figure bodies by path
}

func startDaemon(workers int) (*daemon, error) {
	tmp := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmp, "serve-cache-")
	if err != nil {
		return nil, err
	}
	d := &daemon{dir: dir, rec: telemetry.NewRecorder(), served: make(chan error, 1), bodies: map[string][]byte{}}
	d.srv, err = serve.New(serve.Config{
		CacheDir:   dir,
		SimWorkers: workers,
		Logger:     slog.New(slog.NewJSONHandler(io.Discard, nil)),
		Telemetry:  d.rec,
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.srv.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	d.base = "http://" + ln.Addr().String()
	d.hs = &http.Server{Handler: d.srv.Handler()}
	go func() { d.served <- d.hs.Serve(ln) }()
	d.client = &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers, DisableCompression: true},
		Timeout:   30 * time.Second,
	}
	return d, nil
}

// stop shuts the HTTP server and the daemon down, waits for both, and
// removes the disk cache.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	err = errors.Join(err, d.srv.Shutdown(ctx))
	d.srv.Close()
	d.client.CloseIdleConnections()
	return errors.Join(err, os.RemoveAll(d.dir))
}

// warm renders every figure read through the daemon, so later reads are
// served from its cache.
func (d *daemon) warm() error {
	for _, f := range figureReads {
		body, status, err := d.do(http.MethodGet, f.path(), nil)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("GET %s: status %d: %s", f.path(), status, body)
		}
		d.bodies[f.path()] = body
	}
	return nil
}

func (d *daemon) do(method, path string, body []byte) ([]byte, int, error) {
	req, err := http.NewRequest(method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return b, resp.StatusCode, err
}

// jobView is the part of the daemon's job JSON the benchmark reads.
type jobView struct {
	ID        string               `json:"id"`
	State     string               `json:"state"`
	Error     string               `json:"error"`
	Submitted time.Time            `json:"submitted"`
	Started   time.Time            `json:"started"`
	Finished  time.Time            `json:"finished"`
	Sweep     *metrics.SweepStats  `json:"sweep"`
	Results   []experiments.Result `json:"results"`
}

// arrival is one scheduled request: a figure read (fig >= 0) or run
// submission number job.
type arrival struct {
	at  time.Duration
	fig int
	job int
}

// schedule draws one window of arrivals from rng: a fixed count of reads,
// each at a uniformly random point of its own slot of 1/rate, so the
// offered rate is exact while gaps vary, and submissions evenly spaced
// at a random phase, so their overlap with each other does not depend on
// the seed.
func schedule(rng *rand.Rand, window time.Duration, firstJob int) []arrival {
	at := func(slot int, offset, rate float64) time.Duration {
		return time.Duration((float64(slot) + offset) / rate * float64(time.Second))
	}
	var out []arrival
	for i := 0; i < int(window.Seconds()*readsPerSec); i++ {
		out = append(out, arrival{at: at(i, rng.Float64(), readsPerSec), fig: rng.Intn(len(figureReads)), job: -1})
	}
	phase := rng.Float64()
	for i := 0; i < int(window.Seconds()*jobsPerSec); i++ {
		out = append(out, arrival{at: at(i, phase, jobsPerSec), fig: -1, job: firstJob + i})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].at < out[j].at })
	return out
}

// wakeTimer puts the generator to sleep until a request is due. A Go
// timer wakes an idle process up to a millisecond late, as long as a
// cached read takes; a nanosleep system call is exact but keeps the
// runtime's processor tied to the sleeping thread, so reads stall behind
// it while a simulation holds the other one. A Linux timerfd read through
// the runtime's network poller is both exact and parked.
type wakeTimer struct {
	fd uintptr
	f  *os.File
}

func newWakeTimer() (*wakeTimer, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &wakeTimer{fd: fd, f: os.NewFile(fd, "timerfd")}, nil
}

// waitUntil blocks the calling goroutine until t.
func (w *wakeTimer) waitUntil(t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return nil
	}
	// struct itimerspec: interval {sec, nsec}, then value {sec, nsec}.
	spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, w.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	var expirations [8]byte
	_, err := w.f.Read(expirations[:])
	return err
}

func (w *wakeTimer) close() error { return w.f.Close() }

// jobRecord is one submitted run as the generator saw it.
type jobRecord struct {
	job   int
	rc    experiments.RunConfig
	due   time.Time
	view  jobView
	polls int // GET /v1/jobs/{id} requests until the job finished
	ok    bool
}

// window is what one stretch of open-loop traffic measured.
type window struct {
	readMS []float64
	lateMS []float64
	jobs   []jobRecord
	pass   passSample
}

// load drives the schedule against the daemon: each arrival is sent at
// its due time on its own goroutine, and timed from the due time, so
// waiting for one of the nproc connections counts as latency.
func (d *daemon) load(r *report, sched []arrival, cfgOf func(job int) experiments.RunConfig) (window, error) {
	var w window
	var mu sync.Mutex
	var wg sync.WaitGroup
	timer, err := newWakeTimer()
	if err != nil {
		return w, err
	}
	defer timer.close()
	r.attempted += len(sched)
	ps, err := measure(func() error {
		start := time.Now().Add(10 * time.Millisecond)
		defer wg.Wait()
		for _, a := range sched {
			due := start.Add(a.at)
			if err := timer.waitUntil(due); err != nil {
				return err
			}
			w.lateMS = append(w.lateMS, float64(time.Since(due).Microseconds())/1000)
			wg.Add(1)
			if a.fig >= 0 {
				go func(path string) {
					defer wg.Done()
					ms, ok := d.read(r, path, due)
					if ok {
						mu.Lock()
						w.readMS = append(w.readMS, ms)
						mu.Unlock()
					}
				}(figureReads[a.fig].path())
				continue
			}
			go func(job int) {
				defer wg.Done()
				rec := d.submit(r, job, cfgOf(job), due)
				mu.Lock()
				w.jobs = append(w.jobs, rec)
				mu.Unlock()
			}(a.job)
		}
		return nil
	})
	w.pass = ps
	sort.Slice(w.jobs, func(i, j int) bool { return w.jobs[i].job < w.jobs[j].job })
	return w, err
}

// read fetches one cached figure and checks the body against the warmed
// one; it returns the latency from the due time.
func (d *daemon) read(r *report, path string, due time.Time) (float64, bool) {
	body, status, err := d.do(http.MethodGet, path, nil)
	ms := float64(time.Since(due).Microseconds()) / 1000
	switch {
	case err != nil:
		r.fail("GET %s: %v", path, err)
	case status != http.StatusOK:
		r.fail("GET %s: status %d", path, status)
	case !bytes.Equal(body, d.bodies[path]):
		r.fail("GET %s: body differs from the warmed one", path)
	default:
		return ms, true
	}
	return 0, false
}

// submit posts one run and polls its job until it finishes.
func (d *daemon) submit(r *report, job int, rc experiments.RunConfig, due time.Time) jobRecord {
	rec := jobRecord{job: job, rc: rc, due: due}
	body, err := json.Marshal(rc)
	if err != nil {
		r.fail("job %d: %v", job, err)
		return rec
	}
	b, status, err := d.do(http.MethodPost, "/v1/runs", body)
	if err == nil && status != http.StatusAccepted && status != http.StatusOK {
		err = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(b))
	}
	if err == nil {
		err = json.Unmarshal(b, &rec.view)
	}
	deadline := due.Add(jobTimeout)
	for err == nil && (rec.view.State == "queued" || rec.view.State == "running") {
		if time.Now().After(deadline) {
			err = fmt.Errorf("not done after %s", jobTimeout)
			break
		}
		time.Sleep(pollEvery)
		rec.polls++
		b, status, err = d.do(http.MethodGet, "/v1/jobs/"+rec.view.ID, nil)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("poll: status %d", status)
		}
		if err == nil {
			err = json.Unmarshal(b, &rec.view)
		}
	}
	switch {
	case err != nil:
		r.fail("job %d: %v", job, err)
	case rec.view.State != "done" || len(rec.view.Results) != 1:
		r.fail("job %d: state %s (%s), %d results", job, rec.view.State, rec.view.Error, len(rec.view.Results))
	default:
		rec.ok = true
	}
	return rec
}

// scrape reads the daemon's /metrics counters.
func (d *daemon) scrape() (map[string]float64, error) {
	b, status, err := d.do(http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", status)
	}
	samples, err := metrics.ParseText(bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, s := range samples {
		if s.Labels == nil {
			out[s.Name] = s.Value
		}
	}
	return out, nil
}

// checkFigures compares every warmed figure body with a local render of
// the same figure through a fresh result cache.
func (d *daemon) checkFigures(r *report, workers int) {
	for _, f := range figureReads {
		r.attempted++
		fn, _ := experiments.ByID(f.id)
		fig, err := fn(experiments.Options{
			Shrink: f.shrink, Workloads: f.workloads, Workers: workers,
			Cache: experiments.NewResultCache(),
		})
		if err != nil {
			r.fail("local %s: %v", f.id, err)
			continue
		}
		want, err := json.Marshal(serve.NewFigureResult(fig))
		if err != nil {
			r.fail("local %s: %v", f.id, err)
			continue
		}
		got := d.bodies[f.path()]
		if !bytes.Equal(got, append(want, '\n')) {
			r.fail("%s: daemon body differs from a local render", f.path())
		}
		r.pin("figure/"+f.id+"/body", digestBytes(got))
	}
}

// checkJobs reruns the first submission of each job config locally and
// compares the result with the daemon's; pinned results are also checked
// against the reference digests.
func checkJobs(r *report, w window, n int, pin bool) {
	for _, rec := range w.jobs[:min(n, len(w.jobs))] {
		if !rec.ok {
			continue
		}
		r.attempted++
		local, err := experiments.Run(rec.rc)
		if err != nil {
			r.fail("local job %d: %v", rec.job, err)
			continue
		}
		got, want := digest(rec.view.Results[0]), digest(local)
		if got != want {
			r.fail("job %d (%s): daemon result differs from a local run", rec.job, rec.rc.Workload)
		}
		if pin {
			r.pin("job/"+strconv.Itoa(rec.job), got)
		}
	}
}

// runServeMixed measures an in-process daemon under a fixed mix of
// cached figure reads and uncached run submissions.
func runServeMixed(o options, r *report) error {
	var d *daemon
	err := timeSetup(r, func() error {
		if d != nil {
			if err := d.stop(); err != nil {
				return err
			}
		}
		var err error
		if d, err = startDaemon(o.workers); err != nil {
			return err
		}
		return d.warm()
	})
	defer func() {
		if d == nil {
			return
		}
		if err := d.stop(); err != nil {
			// The measurements are taken; a slow shutdown does not void them.
			fmt.Fprintln(os.Stderr, "hmbench: stopping the daemon:", err)
		}
	}()
	if err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(o.seed))
	pool := jobConfigs(o.seed)
	rot := rng.Intn(len(pool))
	cfgOf := func(job int) experiments.RunConfig {
		rc := pool[(rot+job)%len(pool)]
		rc.Seed = o.seed*1_000_000 + int64(job) + 1 // new to the process: never cached
		return rc
	}

	sched := schedule(rng, o.budget, 0)
	w, err := d.load(r, sched, cfgOf)
	if err != nil {
		return err
	}
	setWindow(r, w)
	d.checkFigures(r, o.workers)
	checkJobs(r, w, len(pool), true)
	if !o.trace {
		return nil
	}

	// Traced window: the daemon's recorder on, a CPU profile of the
	// process, and /metrics counters read around it.
	before, err := d.scrape()
	if err != nil {
		return err
	}
	tsched := schedule(rng, o.budget, len(w.jobs))
	var tw window
	d.rec.SetEnabled(true)
	gc := readGC()
	err = profileShares(r, func() error {
		var err error
		tw, err = d.load(r, tsched, cfgOf)
		return err
	})
	setGC(r, gc)
	d.rec.SetEnabled(false)
	if err != nil {
		return err
	}
	after, err := d.scrape()
	if err != nil {
		return err
	}
	checkJobs(r, tw, len(pool), false)
	for name, key := range map[string]string{
		"serve.jobs_deduped":  "hmserved_jobs_deduped_total",
		"serve.disk_hits":     "hmserved_cache_disk_hits_total",
		"serve.http_requests": "hmserved_http_requests_total",
	} {
		r.set(name, after[key]-before[key])
	}
	// How often a job is polled depends on how fast it runs; without the
	// polls the daemon's request count is fixed by the schedule.
	polls := 0
	for _, j := range tw.jobs {
		polls += j.polls
	}
	r.set("serve.http_requests", r.values["serve.http_requests"]-float64(polls))
	var totals simTotals
	var queueMS, execMS []float64
	var runs, hits int
	for _, j := range tw.jobs {
		if !j.ok {
			continue
		}
		totals.add(j.view.Results[0])
		queueMS = append(queueMS, float64(j.view.Started.Sub(j.view.Submitted).Microseconds())/1000)
		execMS = append(execMS, float64(j.view.Finished.Sub(j.view.Started).Microseconds())/1000)
		if j.view.Sweep != nil {
			runs += j.view.Sweep.Runs
			hits += j.view.Sweep.CacheHits
		}
	}
	totals.report(r)
	r.set("serve.req_p99_ms", percentile(tw.readMS, 99))
	r.set("serve.queue_wait_ms_p50", median(queueMS))
	r.set("serve.exec_ms_p50", median(execMS))
	r.set("pool.runs", float64(runs))
	r.set("pool.cache_hits", float64(hits))
	if hits != 0 {
		r.fail("traced window: %d of %d submitted runs were served from a cache", hits, len(tw.jobs))
	}
	rs := foldRunSpans(d.rec.Records())
	rs.report(r)
	r.set("pool.busy_frac", rs.busyUS/1e6/(tw.pass.wall.Seconds()*float64(o.workers)))
	r.set("bench.gen_late_p99_ms", percentile(tw.lateMS, 99))
	r.set("bench.trace_overhead_frac", median(tw.readMS)/median(w.readMS)-1)
	return setBuildMS(r, pool)
}

// setWindow reports the end-to-end metrics of one traffic window.
func setWindow(r *report, w window) {
	var cycles, accesses, done float64
	// The window's submissions are one group: too few to split.
	lat := latencies{req: w.readMS}
	lat.group()
	for _, j := range w.jobs {
		if !j.ok {
			continue
		}
		res := j.view.Results[0]
		cycles += float64(res.Cycles)
		accesses += float64(res.Accesses)
		lat.addJob(j.view.Finished.Sub(j.due).Seconds())
		done++
	}
	passMedians(r, []passSample{w.pass})
	s := w.pass.wall.Seconds()
	r.set("sim_cycles_per_s", cycles/s)
	r.set("sim_accesses_per_s", accesses/s)
	r.set("runs_per_s", done/s)
	lat.report(r)
	r.note("generator lateness p50 %.3f ms, p99 %.3f ms", median(w.lateMS), percentile(w.lateMS, 99))
}
