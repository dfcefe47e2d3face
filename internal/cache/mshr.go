package cache

import (
	"fmt"

	"hetsim/internal/sim"
)

// MSHR is a miss-status holding register file. Each entry tracks one
// outstanding line fill; secondary misses to a pending line merge into the
// existing entry instead of consuming a new one (and instead of issuing a
// duplicate DRAM access), exactly as in the paper's GPGPU-Sim configuration
// (128 entries per L2 slice).
//
// When the file is full, new primary misses must wait: Stall queues the
// request and the owner pops it when an entry frees. The backpressure this
// creates is what couples memory latency to achievable throughput — the
// mechanism behind the paper's observation that enough MSHRs hide the
// interconnect hop to CPU-attached memory (§3.2.1).
//
// The file is built for the simulator's hot path: entries live in a flat
// slot array whose waiter slices are recycled across fills, and waiters are
// long-lived FillWaiter values (typically pooled access records), so
// steady-state Allocate/Fill cycles perform no heap allocations.
type MSHR struct {
	capacity int
	// index maps a pending line to its slot in [0, used).
	index map[uint64]int32
	// slots[:used] are live entries. Freed slots keep their waiter slice
	// backing arrays, so re-allocation appends into recycled storage.
	slots []mshrEntry
	used  int
	// spare is a waiter array owned by no slot. Fill swaps it into the
	// freed slot and walks the filled line's own array, which then becomes
	// the next spare.
	spare []FillWaiter
	// stalled[head:] is the FIFO of requests waiting for a free entry.
	stalled []stalledReq
	head    int
	stats   MSHRStats
}

type mshrEntry struct {
	line    uint64
	waiters []FillWaiter
}

// FillWaiter is notified when an outstanding line fill completes. Waiters
// are long-lived objects (pooled request records, test adapters), so
// registering one does not allocate.
type FillWaiter interface {
	OnFill(t sim.Time)
}

// FillFunc adapts a plain function to FillWaiter.
type FillFunc func(sim.Time)

// OnFill implements FillWaiter.
func (f FillFunc) OnFill(t sim.Time) { f(t) }

// Retrier re-attempts an access that stalled on a full MSHR file.
type Retrier interface {
	Retry()
}

// RetryFunc adapts a plain function to Retrier.
type RetryFunc func()

// Retry implements Retrier.
func (f RetryFunc) Retry() { f() }

type stalledReq struct {
	line  uint64
	retry Retrier
}

// MSHRStats counts MSHR file activity.
type MSHRStats struct {
	Primary   uint64 // entry allocations
	Merged    uint64 // secondary misses coalesced into a pending entry
	FullStall uint64 // requests that found the file full
	PeakUsed  int
}

// NewMSHR returns a file with the given entry capacity.
func NewMSHR(capacity int) *MSHR {
	if capacity <= 0 {
		panic(fmt.Sprintf("cache: MSHR capacity %d, must be positive", capacity))
	}
	return &MSHR{capacity: capacity, index: make(map[uint64]int32, capacity)}
}

// Capacity returns the entry count.
func (m *MSHR) Capacity() int { return m.capacity }

// Used reports how many entries are live.
func (m *MSHR) Used() int { return m.used }

// Stalled reports how many requests are currently queued on a full file —
// the instantaneous backpressure depth, read by flight-recorder probes.
func (m *MSHR) Stalled() int { return len(m.stalled) - m.head }

// Stats returns a copy of the counters.
func (m *MSHR) Stats() MSHRStats { return m.stats }

// Outcome of an Allocate call.
type Outcome int

// Allocate outcomes.
const (
	Allocated Outcome = iota // new entry created; caller must issue the fill
	Merged                   // joined an in-flight fill; do not issue
	Full                     // no entry available; caller must queue via Stall
)

func (o Outcome) String() string {
	switch o {
	case Allocated:
		return "Allocated"
	case Merged:
		return "Merged"
	case Full:
		return "Full"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Allocate registers interest in a line fill. w is invoked with the fill
// completion time when Fill is called for the line. On Full, w is NOT
// registered; the caller should use Stall.
func (m *MSHR) Allocate(line uint64, w FillWaiter) Outcome {
	if i, ok := m.index[line]; ok {
		m.slots[i].waiters = append(m.slots[i].waiters, w)
		m.stats.Merged++
		return Merged
	}
	if m.used >= m.capacity {
		m.stats.FullStall++
		return Full
	}
	if m.used == len(m.slots) {
		m.slots = append(m.slots, mshrEntry{})
	}
	e := &m.slots[m.used]
	e.line = line
	e.waiters = append(e.waiters[:0], w)
	m.index[line] = int32(m.used)
	m.used++
	m.stats.Primary++
	if m.used > m.stats.PeakUsed {
		m.stats.PeakUsed = m.used
	}
	return Allocated
}

// Stall queues retry to be invoked when an entry frees. The retry callback
// should re-attempt the whole access (the line may have been filled or
// evicted meanwhile).
func (m *MSHR) Stall(line uint64, retry Retrier) {
	if len(m.stalled) == cap(m.stalled) && m.head > 0 {
		// Move the live tail down rather than grow, so a queue that never
		// drains stays bounded by its peak depth.
		n := copy(m.stalled, m.stalled[m.head:])
		clear(m.stalled[n:])
		m.stalled, m.head = m.stalled[:n], 0
	}
	m.stalled = append(m.stalled, stalledReq{line: line, retry: retry})
}

// Fill completes the outstanding fill for line at time t: all merged
// waiters are notified in registration order, the entry frees, and
// stalled requests are retried in Stall order while entries are free. Waiter callbacks may re-enter
// Allocate (a retried access, a scheduled follow-up), but not Fill itself.
func (m *MSHR) Fill(line uint64, t sim.Time) {
	i, ok := m.index[line]
	if !ok {
		panic(fmt.Sprintf("cache: Fill for line %#x with no MSHR entry", line))
	}
	// Free the entry before notifying, matching the semantics waiters
	// observe: a re-entrant Allocate for this line opens a fresh fill.
	// The freed slot takes the spare array, so such an Allocate appends
	// there and cannot clobber the waiter array being walked.
	delete(m.index, line)
	m.used--
	w := m.slots[i].waiters
	if int(i) != m.used {
		m.slots[i] = m.slots[m.used]
		m.index[m.slots[i].line] = i
	}
	m.slots[m.used] = mshrEntry{waiters: m.spare[:0]}
	for _, fw := range w {
		fw.OnFill(t)
	}
	m.spare = w[:0]
	// Wake stalled requests in FIFO order while entries are free. Waking
	// exactly one per freed entry is not enough: a woken retry that hits
	// in the L2 (the fill just inserted its line) or merges into another
	// in-flight fill does not consume the freed entry, and with no
	// further fills pending the rest of the queue would be stranded
	// forever — observed when a placement ratio funnels all traffic into
	// one pool's few channels. Waking until the file is full again (or
	// the queue drains) closes that hole while preserving the structural
	// hazard: used never exceeds capacity, because a retry can only
	// re-stall when Allocate reports Full, which ends the loop.
	for m.head < len(m.stalled) && m.used < m.capacity {
		next := m.stalled[m.head]
		m.stalled[m.head] = stalledReq{}
		m.head++
		next.retry.Retry()
	}
	if m.head == len(m.stalled) {
		m.stalled, m.head = m.stalled[:0], 0
	}
}
