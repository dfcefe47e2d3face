package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// pingPonger bounces messages among a ring of actors with varying hop
// latencies, recording every firing it observes as (time, arg). Each actor
// logs only its own firings, so the recorder is race-free under parallel
// lanes; comparing the per-actor logs across lane counts checks that the
// canonical schedule is lane-count-invariant.
type pingPonger struct {
	self  *Actor
	peers []*pingPonger
	la    Time
	log   []string
	hops  int
}

func (p *pingPonger) OnEvent(arg uint64) {
	p.log = append(p.log, fmt.Sprintf("%d/%d", p.self.Now(), arg))
	if p.hops <= 0 {
		return
	}
	p.hops--
	// Self events may be immediate; cross-actor sends respect lookahead.
	p.self.After(Time(arg%3), p, arg+1)
	dst := p.peers[int(arg)%len(p.peers)]
	p.self.SendAfter(dst.self, p.la+Time(arg%5), dst, arg*7+1)
}

// pingPongTrace runs the ring on an n-lane world and returns each actor's
// firing log, keyed by actor index.
func pingPongTrace(lanes int) [][]string {
	const la = Time(4)
	w := NewWorld(lanes, la)
	ring := make([]*pingPonger, 6)
	for i := range ring {
		ring[i] = &pingPonger{self: w.NewActor(), la: la, hops: 40}
	}
	for i := range ring {
		ring[i].peers = append(ring[i].peers, ring[(i+1)%len(ring)], ring[(i+3)%len(ring)])
	}
	for i, p := range ring {
		p.self.At(Time(i), p, uint64(i))
	}
	w.Run()
	logs := make([][]string, len(ring))
	for i, p := range ring {
		logs[i] = p.log
	}
	return logs
}

// TestLaneScheduleInvariant: the exact per-actor firing sequences of a
// multi-actor ping-pong are identical for 1, 2, 4, and 8 lanes — the
// canonical (time, source, seq) order does not depend on how actors map to
// lanes. (Cross-actor global ordering is pinned at the model level by the
// byte-identity suite in internal/experiments.)
func TestLaneScheduleInvariant(t *testing.T) {
	want := pingPongTrace(1)
	total := 0
	for _, l := range want {
		total += len(l)
	}
	if total == 0 {
		t.Fatal("empty trace")
	}
	for _, lanes := range []int{2, 4, 8} {
		if got := pingPongTrace(lanes); !reflect.DeepEqual(got, want) {
			t.Errorf("lanes=%d: firing order diverged\n got %v\nwant %v", lanes, got, want)
		}
	}
}

// TestLaneWindowGrid: one-lane worlds with different positive lookaheads
// drain the same canonical per-actor sequences — the window size changes
// barrier frequency, never the schedule.
func TestLaneWindowGrid(t *testing.T) {
	trace := func(la Time) [][]string {
		w := NewWorld(1, la)
		ring := []*pingPonger{
			{self: w.NewActor(), la: 16, hops: 20},
			{self: w.NewActor(), la: 16, hops: 20},
		}
		ring[0].peers = []*pingPonger{ring[1]}
		ring[1].peers = []*pingPonger{ring[0]}
		ring[0].self.At(0, ring[0], 1)
		w.Run()
		return [][]string{ring[0].log, ring[1].log}
	}
	want := trace(1)
	if len(want[0]) == 0 {
		t.Fatal("nothing fired")
	}
	for _, la := range []Time{3, 16} {
		if got := trace(la); !reflect.DeepEqual(got, want) {
			t.Errorf("lookahead %d: schedule diverged\n got %v\nwant %v", la, got, want)
		}
	}
}

type nopHandler struct{}

func (nopHandler) OnEvent(uint64) {}

// handlerFunc adapts a closure to Handler for tests.
type handlerFunc func(uint64)

func (f handlerFunc) OnEvent(arg uint64) { f(arg) }

// TestLookaheadViolationPanics: a cross-actor send inside the conservative
// window must panic — silently accepting it would corrupt laned schedules.
func TestLookaheadViolationPanics(t *testing.T) {
	w := NewWorld(2, 10)
	a, b := w.NewActor(), w.NewActor()
	var h nopHandler
	a.At(5, handlerFunc(func(uint64) {
		defer func() {
			if recover() == nil {
				t.Error("cross-actor send inside lookahead did not panic")
			}
		}()
		a.Send(b, a.Now()+3, h, 0) // 3 < lookahead 10
	}), 0)
	w.Run()
}

// TestSelfSendIgnoresLookahead: an actor scheduling for itself may use any
// nonnegative delay, including zero.
func TestSelfSendIgnoresLookahead(t *testing.T) {
	w := NewWorld(4, 10)
	a := w.NewActor()
	ran := false
	a.At(5, handlerFunc(func(uint64) {
		a.After(0, handlerFunc(func(uint64) { ran = true }), 0)
	}), 0)
	w.Run()
	if !ran {
		t.Fatal("zero-delay self event did not run")
	}
}

// TestBatchPopFeedback: handlers that schedule more events at the current
// timestamp (same-cycle feedback into the cycle being drained) still fire
// in exact canonical order, after every event already queued for the cycle
// by the same source.
func TestBatchPopFeedback(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 8; i++ {
		i := i
		e.At(100, func() {
			got = append(got, i)
			if i < 4 {
				// Same-timestamp follow-up from the root context: its seq
				// orders it after every root event already queued.
				e.At(100, func() { got = append(got, 100+i) })
			}
		})
	}
	e.Run()
	want := []int{0, 1, 2, 3, 4, 5, 6, 7, 100, 101, 102, 103}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("same-timestamp feedback order = %v, want %v", got, want)
	}
}

// BenchmarkEngineBatch measures same-timestamp bursts: many events collapse
// onto shared timestamps, the common shape in SM issue bursts.
func BenchmarkEngineBatch(b *testing.B) {
	const fanout = 64
	e := New()
	count := 0
	var burst func()
	burst = func() {
		count++
		if count >= b.N {
			return
		}
		t := e.Now() + 10
		for i := 0; i < fanout && count+i < b.N; i++ {
			e.At(t, func() { count++ })
		}
		count--
		e.After(10, burst)
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.At(0, burst)
	e.Run()
	b.ReportMetric(float64(count)/b.Elapsed().Seconds(), "events/sec")
}

// laneBenchActor reschedules itself and periodically pings a peer on
// another lane, modeling the SM->channel traffic shape. Each actor owns its
// countdown, so the benchmark is race-free under parallel lanes.
type laneBenchActor struct {
	self *Actor
	peer *laneBenchActor
	la   Time
	left int
}

func (a *laneBenchActor) OnEvent(arg uint64) {
	if a.left <= 0 {
		return
	}
	a.left--
	if arg%16 == 15 {
		a.self.SendAfter(a.peer.self, a.la, a.peer, arg+1)
		return
	}
	a.self.After(1+Time(arg%4), a, arg+1)
}

// BenchmarkLanedThroughput drives a 16-actor world at several lane counts.
// On a multi-core host the laned variants overlap lanes on real threads;
// events/sec per lane count is the tentpole's speedup measurement.
func BenchmarkLanedThroughput(b *testing.B) {
	for _, lanes := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("lanes=%d", lanes), func(b *testing.B) {
			const la = Time(8)
			w := NewWorld(lanes, la)
			actors := make([]*laneBenchActor, 16)
			for i := range actors {
				actors[i] = &laneBenchActor{self: w.NewActor(), la: la, left: b.N / len(actors)}
			}
			for i := range actors {
				actors[i].peer = actors[(i+5)%len(actors)]
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i, a := range actors {
				a.self.At(Time(i), a, uint64(i))
			}
			w.Run()
			b.ReportMetric(float64(w.Fired())/b.Elapsed().Seconds(), "events/sec")
		})
	}
}
