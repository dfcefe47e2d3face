// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine advances a virtual clock measured in GPU core cycles and fires
// scheduled events in canonical (time, source actor, per-source seq) order,
// so two runs with the same inputs produce identical schedules. All
// higher-level models in this repository (DRAM, caches, SMs) are driven by
// one Engine — or, in laned mode, by a World of engines that provably fires
// the same canonical schedule on several OS threads (see lanes.go).
//
// The event queue is a calendar queue on the cycle grid: a wheel of 4096
// one-cycle slots, each a list kept in (source, seq) order, plus a small
// overflow heap for events a full wheel span or more ahead. Nearly every
// event lands within one DRAM round trip of now, so a push is a short
// insert into its cycle's slot and a pop takes the current slot's head.
//
// Two scheduling paths exist. At/After take ordinary closures and are the
// convenient API for cold code. AtHandler/AfterHandler take a long-lived
// Handler plus a uint64 argument and never allocate: event records live in
// a node slab the engine reuses for its whole lifetime, so models that keep
// pooled per-request records (memsys) or per-actor state machines (gpu
// warps) can schedule millions of events with zero garbage. Both paths
// share one canonical ordering, so mixing them cannot perturb the schedule.
package sim

import "fmt"

// Time is a point in simulated time, in GPU core cycles.
type Time int64

// Forever is a time later than any reachable simulation time. It is useful
// as an initial value for "earliest deadline" computations.
const Forever Time = 1<<62 - 1

// Event is a callback scheduled to fire at a fixed simulation time.
type Event func()

// OnEvent runs the callback, making every Event a Handler. A func value is
// pointer-shaped, so the conversion does not allocate.
func (fn Event) OnEvent(uint64) { fn() }

// Handler is the allocation-free event callback: OnEvent receives the
// argument given at scheduling time. A single long-lived Handler typically
// multiplexes several event kinds by encoding a step code (and optional
// payload) into arg.
type Handler interface {
	OnEvent(arg uint64)
}

// scheduled is one queued event, stored in the engine's node slab (or, in
// transit between lanes, in a mailbox).
type scheduled struct {
	at   Time
	src  ActorID // scheduling actor (0 = the root context)
	next int32   // slab index of the next node in its slot or the free list (0 = end)
	seq  uint64  // per-source insertion order; breaks ties deterministically
	dst  *Actor  // actor whose lane fires the event (nil = root context)
	h    Handler
	arg  uint64
}

// before is the strict total order events fire in: (time, source actor,
// per-source seq). (src, seq) is unique, so there are never ties and the
// pop sequence does not depend on how the queue stores events. Ordering by
// actor ID rather than lane makes the canonical schedule independent of
// how actors are partitioned into lanes, which is what lets laned runs
// reproduce sequential output byte for byte.
func (s *scheduled) before(o *scheduled) bool {
	if s.at != o.at {
		return s.at < o.at
	}
	if s.src != o.src {
		return s.src < o.src
	}
	return s.seq < o.seq
}

const (
	wheelSize = 4096 // calendar span in cycles
	wheelMask = wheelSize - 1
)

// Engine is a discrete-event simulator. The zero value is ready to use.
// In a World, each lane is one Engine; a standalone Engine behaves exactly
// like a one-lane World without barriers.
type Engine struct {
	now   Time
	seq   uint64 // root-context insertion order (actor-less events)
	fired uint64

	// Events in [base, base+wheelSize) wait in their cycle's slot, a list
	// sorted by (src, seq); later ones wait in the overflow heap. base moves
	// only when an event fires, to its time, so base <= now. The slots of
	// [base, scan) are empty; a push behind scan just pulls it back.
	base, scan Time
	head       *[wheelSize]int32 // first node of each slot's list (0 = empty)
	nodes      []scheduled       // node slab; index 0 is the list end
	free       int32             // free-node list, linked through next
	queued     int               // events in slot lists
	over       []int32           // overflow min-heap of node indices

	world *World      // nil until the engine joins (or lazily creates) a World
	lane  int         // index of this engine within world.lanes
	cur   *Actor      // actor whose event is currently firing (nil = root)
	out   []scheduled // cross-lane mailbox: sends buffered during a window
}

// New returns a fresh Engine with the clock at zero.
func New() *Engine { return &Engine{} }

// Now reports the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Fired reports how many events have been executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports how many events are waiting to fire.
func (e *Engine) Pending() int { return e.queued + len(e.over) }

// push writes an event once into a slab node and files the node into the
// wheel, or into the overflow heap if it is a full span ahead of base.
func (e *Engine) push(at Time, src ActorID, seq uint64, dst *Actor, h Handler, arg uint64) {
	i := e.free
	if i != 0 {
		e.free = e.nodes[i].next
	} else {
		if len(e.nodes) == 0 {
			e.nodes = append(e.nodes, scheduled{}) // index 0 is the list end
			// Kept apart from the Engine: with the 16 KB array inline,
			// benchmark runs measured a higher peak RSS.
			e.head = new([wheelSize]int32)
		}
		i = int32(len(e.nodes))
		e.nodes = append(e.nodes, scheduled{})
	}
	e.nodes[i] = scheduled{at: at, src: src, seq: seq, dst: dst, h: h, arg: arg}
	if at >= e.base+wheelSize {
		e.pushOver(i)
		return
	}
	if at < e.base {
		panic(fmt.Sprintf("sim: event at %d behind lane %d's clock (now=%d)", at, e.lane, e.now))
	}
	e.link(i)
}

// link inserts node i into its slot's list, keeping the list in
// (src, seq) order.
func (e *Engine) link(i int32) {
	n := &e.nodes[i]
	p := &e.head[n.at&wheelMask]
	for *p != 0 && e.nodes[*p].before(n) {
		p = &e.nodes[*p].next
	}
	n.next, *p = *p, i
	e.queued++
	if n.at < e.scan {
		e.scan = n.at
	}
}

// peek returns the earliest pending event time, or Forever when the queue
// is empty, leaving scan on that time's slot.
func (e *Engine) peek() Time {
	if e.queued == 0 {
		if len(e.over) == 0 {
			return Forever
		}
		return e.nodes[e.over[0]].at
	}
	// A slot holds an event, so this stops less than one span ahead.
	for e.head[e.scan&wheelMask] == 0 {
		e.scan++
	}
	return e.scan
}

// pushOver adds node i to the overflow heap, sifting up with the hole
// technique (move parents down, write the new entry once).
func (e *Engine) pushOver(i int32) {
	h := append(e.over, i)
	n := &e.nodes[i]
	j := len(h) - 1
	for j > 0 {
		p := (j - 1) / 2
		if !n.before(&e.nodes[h[p]]) {
			break
		}
		h[j] = h[p]
		j = p
	}
	h[j] = i
	e.over = h
}

// popOver removes and returns the overflow heap's earliest node.
func (e *Engine) popOver() int32 {
	h := e.over
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	e.over = h
	if n > 0 {
		ln := &e.nodes[last]
		j := 0
		for {
			c := 2*j + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && e.nodes[h[r]].before(&e.nodes[h[c]]) {
				c = r
			}
			if !e.nodes[h[c]].before(ln) {
				break
			}
			h[j] = h[c]
			j = c
		}
		h[j] = last
	}
	return top
}

// schedule validates t, stamps the event with the scheduling context (the
// currently firing actor, or the root context), and enqueues it.
func (e *Engine) schedule(t Time, h Handler, arg uint64) {
	if t < e.now {
		panic(fmt.Sprintf("sim: event scheduled at %d, before now=%d", t, e.now))
	}
	if a := e.cur; a != nil {
		// Rescheduling from inside an actor's event stays on the actor's
		// lane and uses its private sequence counter, so the canonical key
		// does not depend on which lane ran it.
		e.push(t, a.id, a.nextSeq(), a, h, arg)
		return
	}
	e.seq++
	e.push(t, 0, e.seq, nil, h, arg)
}

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it always indicates a modelling bug, never a recoverable condition.
func (e *Engine) At(t Time, fn Event) { e.schedule(t, fn, 0) }

// After schedules fn to run d cycles from now.
func (e *Engine) After(d Time, fn Event) { e.At(e.now+d, fn) }

// AtHandler schedules h.OnEvent(arg) at absolute time t without allocating:
// the record is written into the engine's reused node slab. It shares the
// canonical order with At, so the two paths interleave deterministically.
func (e *Engine) AtHandler(t Time, h Handler, arg uint64) { e.schedule(t, h, arg) }

// AfterHandler schedules h.OnEvent(arg) d cycles from now (see AtHandler).
func (e *Engine) AfterHandler(d Time, h Handler, arg uint64) {
	e.AtHandler(e.now+d, h, arg)
}

// fireNext pops the earliest event and executes it with the clock at its
// timestamp and the scheduling context set to its destination actor. The
// queue must not be empty. The node is released before the callback runs,
// so the events it schedules can reuse it.
func (e *Engine) fireNext() {
	t := e.peek()
	if t != e.base { // advance the wheel; overflow events now in span move in
		e.base, e.scan = t, t
		for len(e.over) > 0 && e.nodes[e.over[0]].at < t+wheelSize {
			e.link(e.popOver())
		}
	}
	s := &e.head[t&wheelMask]
	i := *s
	n := &e.nodes[i]
	*s = n.next
	e.queued--
	e.now = n.at
	e.fired++
	prev := e.cur
	e.cur = n.dst
	h, arg := n.h, n.arg
	n.h, n.dst = nil, nil // let finished callbacks be collected
	n.next = e.free
	e.free = i
	h.OnEvent(arg)
	e.cur = prev
}

// Step fires the single earliest event, advancing the clock to its time.
// It reports whether an event was fired.
func (e *Engine) Step() bool {
	if e.Pending() == 0 {
		return false
	}
	e.fireNext()
	return true
}

// runWindow fires every event with time < wend in canonical order.
func (e *Engine) runWindow(wend Time) {
	for e.peek() < wend {
		e.fireNext()
	}
}

// Run fires events until none remain and returns the final clock value.
// If the engine belongs to a multi-lane World, the whole world runs (see
// World.Run); the observable schedule is identical either way.
func (e *Engine) Run() Time {
	if w := e.world; w != nil {
		return w.Run()
	}
	for e.Step() {
	}
	return e.now
}

// RunUntil fires events with time <= deadline, leaves later events queued,
// and advances the clock to min(deadline, last fired event time). It
// reports whether any events remain queued.
func (e *Engine) RunUntil(deadline Time) bool {
	for e.Pending() > 0 && e.peek() <= deadline {
		e.fireNext()
	}
	if e.now < deadline {
		e.now = deadline
	}
	return e.Pending() > 0
}
