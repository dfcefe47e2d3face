package sim

import (
	"math/rand"
	"reflect"
	"testing"
)

// refEvent / refQueue is a deliberately naive reference queue: a flat slice
// searched linearly for the minimum of the full canonical key
// (time, src, seq). The engine's calendar queue is cross-checked against
// it.
type refEvent struct {
	at  Time
	src ActorID
	seq uint64
	dst int
	arg uint64
}

type refQueue struct {
	evs  []refEvent
	seqs map[ActorID]uint64
}

func newRefQueue() *refQueue { return &refQueue{seqs: map[ActorID]uint64{}} }

// push schedules an event from src, stamping src's next sequence number
// exactly as Actor.nextSeq does.
func (q *refQueue) push(at Time, src ActorID, dst int, arg uint64) {
	q.seqs[src]++
	q.evs = append(q.evs, refEvent{at: at, src: src, seq: q.seqs[src], dst: dst, arg: arg})
}

func (q *refQueue) pop() refEvent {
	m := 0
	for i, ev := range q.evs {
		b := q.evs[m]
		if ev.at < b.at || ev.at == b.at && (ev.src < b.src || ev.src == b.src && ev.seq < b.seq) {
			m = i
		}
	}
	ev := q.evs[m]
	q.evs = append(q.evs[:m], q.evs[m+1:]...)
	return ev
}

func (q *refQueue) front() Time {
	front := Forever
	for _, ev := range q.evs {
		if ev.at < front {
			front = ev.at
		}
	}
	return front
}

// firing is one executed event as an actor observed it.
type firing struct {
	at  Time
	arg uint64
}

// delayMix maps r to a scheduling delay covering every region of the
// queue: zero (same-cycle feedback), the short legs that dominate real
// runs, a DRAM round trip, the wheel edge (wheelSize-1, wheelSize,
// wheelSize+1), anywhere inside the wheel, and several wheel turns ahead
// (the overflow heap).
func delayMix(r uint64) Time {
	v := Time(r >> 8)
	switch r % 8 {
	case 0:
		return 0
	case 1, 2:
		return 8 + v%8
	case 3:
		return 1024 + v%1024
	case 4:
		return wheelSize - 1 + v%3
	case 5:
		return v % wheelSize
	case 6:
		return (2+v%5)*wheelSize + v%3 - 1
	default:
		return 1 + v%7
	}
}

// feedback marks an event whose firing schedules a zero-delay follow-up
// from the firing actor; followUp is the follow-up's argument bit.
const (
	feedback = 1 << 40
	followUp = 1 << 41
)

// checkActor fires events for TestQueueAgainstReference, logging them and
// echoing feedback events back to itself at the current cycle.
type checkActor struct {
	a   *Actor
	log *[]firing
}

func (c *checkActor) OnEvent(arg uint64) {
	*c.log = append(*c.log, firing{c.a.Now(), arg})
	if arg&feedback != 0 {
		c.a.At(c.a.Now(), c, arg&^feedback|followUp)
	}
}

// TestQueueAgainstReference drives a standalone engine and the reference
// queue with identical random streams — schedules with every delay class
// and at the times of already pending events, single steps, RunUntil
// deadlines that leave the scan position ahead of the clock followed by
// scheduling behind it, and same-cycle feedback from firing actors — and
// requires the same firing sequence, event by event.
// (src, seq) is unique, so the order is total and any divergence is a
// queue bug.
func TestQueueAgainstReference(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := New()
		w := WorldOf(e)
		var got, want []firing
		actors := make([]*checkActor, 5)
		for i := range actors {
			actors[i] = &checkActor{a: w.NewActor(), log: &got}
		}
		ref := newRefQueue()
		now := Time(0)
		fire := func() {
			ev := ref.pop()
			now = ev.at
			want = append(want, firing{ev.at, ev.arg})
			if ev.arg&feedback != 0 {
				ref.push(ev.at, actors[ev.dst].a.id, ev.dst, ev.arg&^feedback|followUp)
			}
		}
		check := func(op int, what string) {
			t.Helper()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d op %d (%s): fired %d events, reference %d; first difference near the end:\n got %v\nwant %v",
					seed, op, what, len(got), len(want), tail(got), tail(want))
			}
			if e.Now() != now {
				t.Fatalf("seed %d op %d (%s): Now() = %d, reference %d", seed, op, what, e.Now(), now)
			}
			if e.Pending() != len(ref.evs) {
				t.Fatalf("seed %d op %d (%s): Pending() = %d, reference %d", seed, op, what, e.Pending(), len(ref.evs))
			}
		}
		var args uint64
		schedule := func() {
			i := rng.Intn(len(actors))
			args++
			arg := args
			if rng.Intn(4) == 0 {
				arg |= feedback
			}
			at := now + delayMix(rng.Uint64())
			if len(ref.evs) > 0 && rng.Intn(3) == 0 {
				// Collide with a pending event, which may sit in the
				// overflow heap while this one lands in the wheel.
				at = ref.evs[rng.Intn(len(ref.evs))].at
			}
			actors[i].a.At(at, actors[i], arg)
			ref.push(at, actors[i].a.id, i, arg)
		}
		ops := 1500 + rng.Intn(1500)
		for op := 0; op < ops; op++ {
			switch r := rng.Intn(10); {
			case r < 5 || len(ref.evs) == 0:
				schedule()
			case r < 8:
				e.Step()
				fire()
				check(op, "step")
			case r < 9:
				deadline := now + Time(rng.Intn(3*wheelSize))
				e.RunUntil(deadline)
				for len(ref.evs) > 0 && ref.front() <= deadline {
					fire()
				}
				if now < deadline {
					now = deadline
				}
				check(op, "RunUntil")
			default:
				// Peek ahead (as a window barrier does), then schedule
				// behind the scan position.
				if e.peek() != ref.front() {
					t.Fatalf("seed %d op %d: peek() = %d, reference front %d", seed, op, e.peek(), ref.front())
				}
				for k := rng.Intn(4); k >= 0; k-- {
					schedule()
				}
			}
		}
		e.Run()
		for len(ref.evs) > 0 {
			fire()
		}
		check(ops, "drain")
	}
}

func tail(fs []firing) []firing {
	if len(fs) > 5 {
		return fs[len(fs)-5:]
	}
	return fs
}

// laneModel is the deterministic behaviour both the engine and the
// reference replay in TestQueueLanesAgainstReference: each firing makes
// its actor schedule a self event (any delay, including zero) and a send
// to another actor at or beyond the lookahead, until its budget runs out.
// All state is per actor, so lanes may run actors concurrently.
type laneModel struct {
	rng    []uint64
	budget []int
	issued []uint64
	la     Time
}

type follow struct {
	dst int
	at  Time
	arg uint64
}

func newLaneModel(actors, budget int, la Time) *laneModel {
	m := &laneModel{rng: make([]uint64, actors), budget: make([]int, actors), issued: make([]uint64, actors), la: la}
	for i := range m.rng {
		m.rng[i] = uint64(i)*0x9e3779b97f4a7c15 + 1
		m.budget[i] = budget
	}
	return m
}

func (m *laneModel) next(i int) uint64 {
	m.rng[i] = m.rng[i]*6364136223846793005 + 1442695040888963407
	return m.rng[i] >> 16
}

// arg returns a globally unique argument issued by actor i.
func (m *laneModel) arg(i int) uint64 {
	m.issued[i]++
	return uint64(i)<<32 | m.issued[i]
}

func (m *laneModel) react(i int, now Time) []follow {
	if m.budget[i] <= 0 {
		return nil
	}
	m.budget[i]--
	n := len(m.rng)
	self := follow{dst: i, at: now + delayMix(m.next(i)), arg: m.arg(i)}
	peer := (i + 1 + int(m.next(i)%uint64(n-1))) % n
	send := follow{dst: peer, at: now + m.la + delayMix(m.next(i)), arg: m.arg(i)}
	return []follow{self, send}
}

type modelActor struct {
	a      *Actor
	i      int
	m      *laneModel
	peers  []*modelActor
	log    []firing
	global *[]firing // whole-world firing order; one-lane runs only
}

func (x *modelActor) OnEvent(arg uint64) {
	f := firing{x.a.Now(), arg}
	x.log = append(x.log, f)
	if x.global != nil {
		*x.global = append(*x.global, f)
	}
	for _, fw := range x.m.react(x.i, x.a.Now()) {
		if d := x.peers[fw.dst]; d == x {
			x.a.At(fw.at, x, fw.arg)
		} else {
			x.a.Send(d.a, fw.at, d, fw.arg)
		}
	}
}

// TestQueueLanesAgainstReference runs the lane model on worlds of 1, 2 and
// 4 lanes — cross-lane sends travel through the window mailboxes and land
// behind destination lanes whose scan position the barrier has already
// moved — and requires every actor's firing log (and, on one lane, the
// whole firing order) to match the reference queue's replay.
func TestQueueLanesAgainstReference(t *testing.T) {
	const (
		nActors = 6
		budget  = 300
		la      = Time(10)
	)
	// Reference replay.
	m := newLaneModel(nActors, budget, la)
	ref := newRefQueue()
	wantLogs := make([][]firing, nActors)
	var wantGlobal []firing
	for i := 0; i < nActors; i++ {
		ref.push(Time(i), ActorID(i+1), i, m.arg(i))
	}
	for len(ref.evs) > 0 {
		ev := ref.pop()
		f := firing{ev.at, ev.arg}
		wantLogs[ev.dst] = append(wantLogs[ev.dst], f)
		wantGlobal = append(wantGlobal, f)
		for _, fw := range m.react(ev.dst, ev.at) {
			ref.push(fw.at, ActorID(ev.dst+1), fw.dst, fw.arg)
		}
	}

	for _, lanes := range []int{1, 2, 4} {
		w := NewWorld(lanes, la)
		m := newLaneModel(nActors, budget, la)
		var global []firing
		actors := make([]*modelActor, nActors)
		for i := range actors {
			actors[i] = &modelActor{a: w.NewActor(), i: i, m: m, peers: actors}
			if lanes == 1 {
				actors[i].global = &global
			}
		}
		for i, x := range actors {
			x.a.At(Time(i), x, m.arg(i))
		}
		w.Run()
		for i, x := range actors {
			if !reflect.DeepEqual(x.log, wantLogs[i]) {
				t.Fatalf("lanes=%d actor %d: fired %d events, reference %d", lanes, i, len(x.log), len(wantLogs[i]))
			}
		}
		if lanes == 1 && !reflect.DeepEqual(global, wantGlobal) {
			t.Fatalf("lanes=1: world firing order diverged from the reference")
		}
		if got := w.Fired(); got != uint64(len(wantGlobal)) {
			t.Fatalf("lanes=%d: fired %d events, reference %d", lanes, got, len(wantGlobal))
		}
		if w.Pending() != 0 {
			t.Fatalf("lanes=%d: %d events left queued", lanes, w.Pending())
		}
	}
}

// TestHandlerPathOrdering: handler events and closure events scheduled for
// the same time interleave strictly by insertion order.
func TestHandlerPathOrdering(t *testing.T) {
	e := New()
	var got []int
	rec := recorder{out: &got}
	e.AtHandler(10, rec, 0)
	e.At(10, func() { got = append(got, 1) })
	e.AtHandler(10, rec, 2)
	e.At(5, func() { got = append(got, 3) })
	e.Run()
	want := []int{3, 0, 1, 2}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fire order %v, want %v", got, want)
		}
	}
}

type recorder struct{ out *[]int }

func (r recorder) OnEvent(arg uint64) { *r.out = append(*r.out, int(arg)) }

// TestHandlerPathAllocFree: steady-state handler scheduling performs no
// per-event allocations once the queue storage has grown.
func TestHandlerPathAllocFree(t *testing.T) {
	e := New()
	var p pinger
	p.e = e
	// Warm up so the queue storage reaches capacity.
	for i := 0; i < 64; i++ {
		e.AtHandler(e.now, &p, 0)
	}
	e.Run()
	avg := testing.AllocsPerRun(1000, func() {
		e.AtHandler(e.now+1, &p, 1)
		e.Step()
	})
	if avg != 0 {
		t.Fatalf("handler path allocates %.1f objects per event, want 0", avg)
	}
}

type pinger struct {
	e     *Engine
	count uint64
}

func (p *pinger) OnEvent(arg uint64) { p.count++ }

// TestWheelAllocFree: with a steady population spread over the wheel and
// the overflow heap — every delay class of delayMix, including wheel-edge
// and multi-turn delays — push and pop reuse the node slab and the heap's
// backing array and allocate nothing.
func TestWheelAllocFree(t *testing.T) {
	e := New()
	var p pinger
	var r uint64
	step := func() {
		r = r*6364136223846793005 + 1442695040888963407
		e.AtHandler(e.now+delayMix(r>>16), &p, 0)
		e.Step()
	}
	for i := 0; i < 1000; i++ {
		r = r*6364136223846793005 + 1442695040888963407
		e.AtHandler(delayMix(r>>16), &p, 0)
	}
	for i := 0; i < 200000; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(10000, step); avg != 0 {
		t.Fatalf("calendar queue allocates %.3f objects per event in steady state, want 0", avg)
	}
}

// BenchmarkEngineHandler measures the allocation-free scheduling path on
// the same self-rescheduling workload as BenchmarkEngine, reporting
// events/sec — the engine's headline throughput metric.
func BenchmarkEngineHandler(b *testing.B) {
	e := New()
	r := &resched{e: e, limit: uint64(b.N)}
	b.ReportAllocs()
	b.ResetTimer()
	e.AtHandler(0, r, 0)
	e.Run()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
}

type resched struct {
	e     *Engine
	count uint64
	limit uint64
	rng   uint64
}

func (r *resched) OnEvent(arg uint64) {
	r.count++
	if r.count < r.limit {
		// xorshift keeps the delay stream deterministic and allocation-free.
		r.rng = r.rng*6364136223846793005 + 1442695040888963407
		r.e.AfterHandler(Time(r.rng%100)+1, r, 0)
	}
}

// measuredDelays is the push-delay histogram of the seven full-size
// sim-run configs of the repository benchmark (lbm, xsbench, bfs, stencil,
// needle under several policies and pool topologies; seed 1): 4,272,673
// pushes, a mean of 1,402 pending events at each push, 6.7 pushes per
// simulated cycle. Each row is a delay range in cycles and its share of
// pushes in basis points. A single delay carrying at least 0.5% of pushes
// has its own row; the rest of its power-of-two bucket is spread evenly
// over the bucket. No push was 2048 or more cycles ahead.
var measuredDelays = []struct {
	lo, hi Time
	bp     int
}{
	{0, 0, 243}, {1, 1, 241}, {2, 2, 246}, {3, 3, 251}, {4, 4, 692},
	{5, 5, 262}, {6, 6, 268}, {7, 7, 274}, {8, 15, 229}, {10, 10, 4606},
	{16, 31, 137}, {32, 63, 209}, {44, 44, 70}, {64, 127, 219},
	{110, 110, 465}, {128, 255, 182}, {256, 511, 101}, {260, 260, 57},
	{300, 300, 152}, {512, 1023, 272}, {1024, 2047, 824},
}

// delayRow maps a basis point of the push population to its row of
// measuredDelays.
var delayRow = func() (t [10000]uint8) {
	k := 0
	for i, d := range measuredDelays {
		for n := 0; n < d.bp; n++ {
			t[k] = uint8(i)
			k++
		}
	}
	return t
}()

// simDelay draws a push delay from measuredDelays.
func simDelay(r uint64) Time {
	d := measuredDelays[delayRow[r%10000]]
	return d.lo + Time(r>>20)%(d.hi-d.lo+1)
}

// BenchmarkEngineDelayMix measures the event queue in isolation on the
// simulator's shape: 1,400 pending events (the measured mean), each
// firing rescheduling itself with a delay drawn from the measured mix.
func BenchmarkEngineDelayMix(b *testing.B) {
	const pending = 1400
	e := New()
	r := &mixResched{e: e, left: b.N}
	for i := 0; i < pending; i++ {
		e.AtHandler(Time(i%256), r, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
	b.ReportMetric(float64(e.Fired())/b.Elapsed().Seconds(), "events/sec")
}

type mixResched struct {
	e    *Engine
	left int
	rng  uint64
}

func (r *mixResched) OnEvent(uint64) {
	r.left--
	if r.left > 0 {
		r.rng = r.rng*6364136223846793005 + 1442695040888963407
		r.e.AfterHandler(simDelay(r.rng>>16), r, 0)
	}
}
