// Package gpu models a GPU's compute side at the fidelity the paper's
// memory-placement study needs: a set of SMs, each multiplexing many warp
// contexts that alternate compute phases with batches of coalesced memory
// accesses. Warps hide memory latency by overlapping each other's phases —
// exactly the property (§2.1, Figure 2) that makes GPU workloads
// bandwidth-sensitive rather than latency-sensitive, until warp count or
// per-warp memory-level parallelism (MLP) runs out.
//
// The model mirrors the paper's GTX-480-like configuration: 15 SMs with a
// 16 kB write-evict L1 each, one memory instruction issued per SM cycle.
package gpu

import (
	"fmt"

	"hetsim/internal/cache"
	"hetsim/internal/sim"
	"hetsim/internal/tlb"
	"hetsim/internal/vm"
)

// Access is one coalesced memory access (one cache-line-worth of data for
// the warp).
type Access struct {
	VA    uint64
	Write bool
}

// Phase is one compute+memory step of a warp's execution. The warp
// computes for ComputeCycles and issues Addrs, keeping at most MLP of them
// outstanding (MLP <= 0 means unbounded: issue all back-to-back).
//
// When Overlap is false the phase is dependent: memory starts after the
// compute finishes (pointer-chasing or operand-dependent kernels — this is
// what makes a workload latency-sensitive). When Overlap is true, compute
// and memory proceed concurrently and the phase ends when both finish
// (software-pipelined/double-buffered kernels such as CoMD's force loops,
// which is what makes them memory-insensitive).
type Phase struct {
	ComputeCycles sim.Time
	Addrs         []Access
	MLP           int
	Overlap       bool
}

// WarpProgram yields the phases a warp executes. Implementations are
// single-warp state machines; NextPhase is called once per phase.
//
// The returned Phase.Addrs belongs to the program and is valid only until
// the next NextPhase call, so a program may reuse one buffer for every
// phase. The GPU calls NextPhase only after every access of the current
// phase has completed.
type WarpProgram interface {
	NextPhase() (Phase, bool)
}

// Memory is the interface to the memory hierarchy below the L1
// (package memsys implements it).
type Memory interface {
	Access(va uint64, write bool, done func())
}

// fastMemory is the allocation-free variant of Memory (memsys implements
// it): completion fires through a long-lived sim.Handler instead of a
// closure, and tc is the SM's one-entry translation cache. The GPU probes
// for it at construction and falls back to Memory for wrappers that only
// implement the closure form (e.g. the trace recorder).
type fastMemory interface {
	AccessH(src *sim.Actor, va uint64, write bool, tc *vm.TransCache, h sim.Handler, arg uint64)
}

// Config sizes the GPU.
type Config struct {
	SMs        int
	WarpsPerSM int // concurrently resident warp contexts per SM
	L1         cache.Config
	L1Latency  sim.Time
	// TLB, when non-nil, adds a per-SM translation cache: accesses whose
	// page misses pay the configured walk latency before entering the
	// memory hierarchy. Requires PageSize. Nil disables translation
	// costs (the paper's GPGPU-Sim configuration).
	TLB *tlb.Config
	// PageSize is the OS page size for TLB indexing (default 4096).
	PageSize uint64
}

// Table1Config returns the paper's simulated GPU: 15 SMs, 16 kB L1 per SM.
// WarpsPerSM defaults to a Fermi-like 48 resident warps.
func Table1Config() Config {
	return Config{
		SMs:        15,
		WarpsPerSM: 48,
		L1:         cache.Config{SizeBytes: 16 << 10, LineBytes: 128, Ways: 4},
		L1Latency:  4,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.SMs <= 0:
		return fmt.Errorf("gpu: SMs = %d, must be positive", c.SMs)
	case c.WarpsPerSM <= 0:
		return fmt.Errorf("gpu: WarpsPerSM = %d, must be positive", c.WarpsPerSM)
	}
	if c.TLB != nil {
		if err := c.TLB.Validate(); err != nil {
			return err
		}
	}
	return c.L1.Validate()
}

// Stats aggregates GPU-side counters.
type Stats struct {
	WarpsCompleted int
	Phases         uint64
	MemRequests    uint64 // issued below coalescing (per line)
	L1Hits         uint64
	L1Misses       uint64
	ComputeCycles  sim.Time // sum of all warps' compute phases
	TLBHits        uint64
	TLBMisses      uint64
}

// L1HitRate reports the aggregate L1 hit rate.
func (s Stats) L1HitRate() float64 {
	t := s.L1Hits + s.L1Misses
	if t == 0 {
		return 0
	}
	return float64(s.L1Hits) / float64(t)
}

// sm is one streaming multiprocessor. Each SM owns a front-end lane
// actor: every warp event of the SM fires on that lane, so the SM's
// caches, issue port, and counter shard are touched by exactly one thread
// per window. Shards merge in SM index order (see GPU.Stats), making the
// totals identical for any lane count.
type sm struct {
	act        *sim.Actor
	l1         *cache.Cache
	tlb        *tlb.TLB // nil when translation costs are disabled
	tc         vm.TransCache
	nextIssue  sim.Time
	pending    []WarpProgram // warps waiting for a free context
	resident   int
	live       int // warps launched on this SM and not yet finished
	finishedAt sim.Time
	stats      Stats
}

// GPU executes warp programs against a memory system.
type GPU struct {
	cfg     Config
	eng     *sim.Engine
	mem     Memory
	fastMem fastMemory // non-nil when mem supports the pooled-record path
	sms     []*sm
}

// New builds a GPU. It panics on invalid configuration. The engine's World
// gains one actor per SM; construct the memory system first so channel
// actors precede SM actors in the canonical order.
func New(eng *sim.Engine, mem Memory, cfg Config) *GPU {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.PageSize == 0 {
		cfg.PageSize = 4096
	}
	g := &GPU{cfg: cfg, eng: eng, mem: mem}
	g.fastMem, _ = mem.(fastMemory)
	w := sim.WorldOf(eng)
	for i := 0; i < cfg.SMs; i++ {
		s := &sm{act: w.NewActor(), l1: cache.New(cfg.L1)}
		if cfg.TLB != nil {
			s.tlb = tlb.New(*cfg.TLB)
		}
		g.sms = append(g.sms, s)
	}
	return g
}

// Stats merges the per-SM counter shards in SM index order and returns the
// combined copy. Call between runs or after a run, not from concurrent
// lane events.
func (g *GPU) Stats() Stats {
	var out Stats
	for _, s := range g.sms {
		out.WarpsCompleted += s.stats.WarpsCompleted
		out.Phases += s.stats.Phases
		out.MemRequests += s.stats.MemRequests
		out.L1Hits += s.stats.L1Hits
		out.L1Misses += s.stats.L1Misses
		out.ComputeCycles += s.stats.ComputeCycles
		out.TLBHits += s.stats.TLBHits
		out.TLBMisses += s.stats.TLBMisses
	}
	return out
}

// Launch schedules warp programs across the SMs round-robin. Programs
// beyond the resident-warp capacity of an SM queue there and start as
// contexts free, modelling thread-block scheduling.
func (g *GPU) Launch(programs []WarpProgram) {
	for i, p := range programs {
		s := g.sms[i%len(g.sms)]
		s.live++
		if s.resident < g.cfg.WarpsPerSM {
			s.resident++
			g.startWarp(s, p)
		} else {
			s.pending = append(s.pending, p)
		}
	}
}

// Run executes until the event queue drains and returns the cycle the last
// warp finished. Background actors (e.g. a migration engine) may keep the
// queue alive past that point; their events still execute, but the
// returned time is the application's completion time.
func (g *GPU) Run() sim.Time {
	end := g.eng.Run()
	if live := g.Outstanding(); live != 0 {
		panic(fmt.Sprintf("gpu: %d warps still live after event queue drained", live))
	}
	if t := g.FinishTime(); t > 0 {
		return t
	}
	return end
}

// FinishTime reports when the last warp completed (0 while running): the
// latest per-SM finish time.
func (g *GPU) FinishTime() sim.Time {
	var t sim.Time
	for _, s := range g.sms {
		if s.finishedAt > t {
			t = s.finishedAt
		}
	}
	return t
}

// Outstanding reports warps launched but not yet finished.
func (g *GPU) Outstanding() int {
	n := 0
	for _, s := range g.sms {
		n += s.live
	}
	return n
}

func (g *GPU) startWarp(s *sm, p WarpProgram) {
	w := &warp{gpu: g, sm: s, prog: p}
	// Begin at the next cycle boundary; scheduling through the SM's actor
	// keeps launch-order determinism within the SM and pins the warp's
	// events to the SM's lane.
	s.act.After(0, w, wopNextPhase)
}

type warp struct {
	gpu  *GPU
	sm   *sm
	prog WarpProgram

	phase       Phase
	issued      int
	completed   int
	computeDone bool
	memDone     bool
}

// Warp event codes. A warp is one long-lived sim.Handler: every event it
// schedules — phase advance, compute-leg completion, issue-port slots, TLB
// walk re-entry, L1 hits, memory completions — carries a code (and, where
// needed, an access index or virtual address) in the low/high bits of arg,
// so the steady-state execution loop allocates nothing.
const (
	wopNextPhase      = iota // advance to the warp's next phase
	wopComputeOverlap        // compute leg finished (overlapped phase)
	wopComputeDep            // compute finished (dependent phase): start memory
	wopIssue                 // payload = Addrs index: issue through the port
	wopAccess                // payload = Addrs index: post-TLB L1/memory path
	wopOneDone               // one access completed (write or L1 hit)
	wopMemDone               // payload = VA: read returned; fill L1, complete
	wopBits                  = 3 // low bits hold the code, the rest payload
)

// OnEvent implements sim.Handler, dispatching on the encoded event code.
func (w *warp) OnEvent(arg uint64) {
	payload := arg >> wopBits
	switch arg & (1<<wopBits - 1) {
	case wopNextPhase:
		w.nextPhase()
	case wopComputeOverlap:
		w.computeDone = true
		w.maybeAdvance()
	case wopComputeDep:
		w.computeDone = true
		if w.memDone {
			w.maybeAdvance()
			return
		}
		w.pump()
	case wopIssue:
		w.issueEvent(int(payload))
	case wopAccess:
		w.access(w.phase.Addrs[payload])
	case wopOneDone:
		w.oneDone()
	case wopMemDone:
		w.sm.l1.Insert(payload, false)
		w.oneDone()
	}
}

func (w *warp) nextPhase() {
	ph, ok := w.prog.NextPhase()
	if !ok {
		w.finish()
		return
	}
	w.sm.stats.Phases++
	w.sm.stats.ComputeCycles += ph.ComputeCycles
	w.phase = ph
	w.issued = 0
	w.completed = 0
	w.computeDone = false
	w.memDone = len(ph.Addrs) == 0

	wait := ph.ComputeCycles
	if wait <= 0 && len(ph.Addrs) == 0 {
		wait = 1 // guarantee forward progress on degenerate phases
	}
	if ph.Overlap {
		// Compute and memory run concurrently.
		w.sm.act.After(wait, w, wopComputeOverlap)
		if !w.memDone {
			w.pump()
		}
		return
	}
	// Dependent phase: memory waits for the compute result.
	w.sm.act.After(wait, w, wopComputeDep)
}

func (w *warp) maybeAdvance() {
	if w.computeDone && w.memDone {
		w.nextPhase()
	}
}

// pump issues requests up to the phase's MLP window.
func (w *warp) pump() {
	window := w.phase.MLP
	if window <= 0 {
		window = len(w.phase.Addrs)
	}
	for w.issued < len(w.phase.Addrs) && w.issued-w.completed < window {
		idx := w.issued
		w.issued++
		w.issue(idx)
	}
}

// issue claims the SM's single memory-issue port (1 request/cycle) for
// Addrs[idx] and schedules the port event.
func (w *warp) issue(idx int) {
	t := w.sm.act.Now()
	if w.sm.nextIssue > t {
		t = w.sm.nextIssue
	}
	w.sm.nextIssue = t + 1
	w.sm.act.At(t, w, wopIssue|uint64(idx)<<wopBits)
}

// issueEvent runs at the access's issue-port slot: account the request,
// charge a TLB walk if translation costs are modelled, then access.
func (w *warp) issueEvent(idx int) {
	g := w.gpu
	a := w.phase.Addrs[idx]
	w.sm.stats.MemRequests++
	if w.sm.tlb != nil {
		vpage := a.VA / g.cfg.PageSize
		if w.sm.tlb.Lookup(vpage) {
			w.sm.stats.TLBHits++
		} else {
			w.sm.stats.TLBMisses++
			// Page walk: stall this access, then re-enter below the
			// (already-consumed) issue slot.
			w.sm.act.After(sim.Time(g.cfg.TLB.WalkLatencyCycles), w, wopAccess|uint64(idx)<<wopBits)
			return
		}
	}
	w.access(a)
}

// access runs the post-translation L1/memory path.
func (w *warp) access(a Access) {
	g := w.gpu
	if a.Write {
		// Write-evict L1: writes invalidate locally and always go to
		// the memory system.
		w.sm.l1.Invalidate(a.VA)
		w.sm.stats.L1Misses++
		if g.fastMem != nil {
			g.fastMem.AccessH(w.sm.act, a.VA, true, &w.sm.tc, w, wopOneDone)
		} else {
			g.mem.Access(a.VA, true, w.oneDone)
		}
		return
	}
	if w.sm.l1.Lookup(a.VA, false) {
		w.sm.stats.L1Hits++
		w.sm.act.After(g.cfg.L1Latency, w, wopOneDone)
		return
	}
	w.sm.stats.L1Misses++
	if g.fastMem != nil {
		g.fastMem.AccessH(w.sm.act, a.VA, false, &w.sm.tc, w, wopMemDone|a.VA<<wopBits)
		return
	}
	g.mem.Access(a.VA, false, func() {
		w.sm.l1.Insert(a.VA, false)
		w.oneDone()
	})
}

func (w *warp) oneDone() {
	w.completed++
	if w.completed == len(w.phase.Addrs) {
		w.memDone = true
		w.maybeAdvance()
		return
	}
	w.pump()
}

func (w *warp) finish() {
	s := w.sm
	s.stats.WarpsCompleted++
	s.live--
	if s.live == 0 {
		s.finishedAt = s.act.Now()
	}
	if len(s.pending) > 0 {
		next := s.pending[0]
		s.pending = s.pending[1:]
		w.gpu.startWarp(s, next)
		return
	}
	s.resident--
}
