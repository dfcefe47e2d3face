package cache

import (
	"strings"
	"testing"
	"testing/quick"

	"hetsim/internal/sim"
)

func TestMSHRAllocateMergeFill(t *testing.T) {
	m := NewMSHR(4)
	var times []sim.Time
	note := func(ts sim.Time) { times = append(times, ts) }

	if got := m.Allocate(10, FillFunc(note)); got != Allocated {
		t.Fatalf("first Allocate = %v, want Allocated", got)
	}
	if got := m.Allocate(10, FillFunc(note)); got != Merged {
		t.Fatalf("second Allocate same line = %v, want Merged", got)
	}
	if m.Used() != 1 {
		t.Fatalf("Used = %d, want 1 (merged miss shares the entry)", m.Used())
	}
	m.Fill(10, 99)
	if len(times) != 2 || times[0] != 99 || times[1] != 99 {
		t.Fatalf("waiters notified %v, want [99 99]", times)
	}
	if m.Used() != 0 {
		t.Fatalf("Used = %d after Fill, want 0", m.Used())
	}
}

func TestMSHRFull(t *testing.T) {
	m := NewMSHR(2)
	m.Allocate(1, FillFunc(func(sim.Time) {}))
	m.Allocate(2, FillFunc(func(sim.Time) {}))
	if got := m.Allocate(3, FillFunc(func(sim.Time) {})); got != Full {
		t.Fatalf("Allocate over capacity = %v, want Full", got)
	}
	// Merging into an existing entry must still work when full.
	if got := m.Allocate(1, FillFunc(func(sim.Time) {})); got != Merged {
		t.Fatalf("merge while full = %v, want Merged", got)
	}
	if got := m.Stats().FullStall; got != 1 {
		t.Fatalf("FullStall = %d, want 1", got)
	}
}

func TestMSHRStallRetryOnFill(t *testing.T) {
	// Retries that re-allocate consume the freed entry: one Fill wakes
	// exactly one of them (the structural hazard holds).
	m := NewMSHR(1)
	m.Allocate(1, FillFunc(func(sim.Time) {}))
	retried := 0
	var realloc RetryFunc
	realloc = func() {
		retried++
		m.Allocate(uint64(100+retried), FillFunc(func(sim.Time) {}))
	}
	m.Stall(2, realloc)
	m.Stall(3, realloc)
	if m.Stalled() != 2 {
		t.Fatalf("Stalled = %d, want 2", m.Stalled())
	}
	m.Fill(1, 50)
	if retried != 1 {
		t.Fatalf("retried %d requests after one Fill, want exactly 1", retried)
	}
	if m.Stalled() != 1 {
		t.Fatalf("Stalled = %d after one Fill, want 1", m.Stalled())
	}
	if m.Used() != 1 {
		t.Fatalf("Used = %d after retry re-allocated, want 1", m.Used())
	}
}

func TestMSHRStallNoStarvation(t *testing.T) {
	// Regression: a woken retry that does NOT re-allocate (it hit in the
	// L2 the fill just populated, or merged into another in-flight fill)
	// leaves the freed entry unused. With the last fill in flight, waking
	// only one stalled request would strand the rest of the queue forever
	// — no future Fill can ever run. Fill must keep waking while entries
	// are free.
	m := NewMSHR(1)
	m.Allocate(1, FillFunc(func(sim.Time) {}))
	retried := 0
	m.Stall(2, RetryFunc(func() { retried++ })) // completes without allocating
	m.Stall(3, RetryFunc(func() { retried++ }))
	m.Stall(4, RetryFunc(func() { retried++ }))
	m.Fill(1, 50) // the last in-flight fill
	if retried != 3 {
		t.Fatalf("retried %d requests after the last Fill, want all 3", retried)
	}
	if m.Stalled() != 0 {
		t.Fatalf("Stalled = %d after the last Fill, want 0 (no stranded requests)", m.Stalled())
	}
}

func TestMSHRFillUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Fill of unknown line did not panic")
		}
	}()
	NewMSHR(1).Fill(42, 0)
}

func TestMSHRZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMSHR(0) did not panic")
		}
	}()
	NewMSHR(0)
}

func TestMSHRPeakUsed(t *testing.T) {
	m := NewMSHR(8)
	for i := uint64(0); i < 5; i++ {
		m.Allocate(i, FillFunc(func(sim.Time) {}))
	}
	m.Fill(0, 1)
	m.Fill(1, 1)
	if got := m.Stats().PeakUsed; got != 5 {
		t.Fatalf("PeakUsed = %d, want 5", got)
	}
}

// Property: every Allocated/Merged waiter is notified exactly once across
// an arbitrary interleaving of allocations and fills.
func TestPropertyAllWaitersNotified(t *testing.T) {
	f := func(lines []uint8) bool {
		m := NewMSHR(256)
		notified := 0
		expected := 0
		live := make(map[uint64]bool)
		for _, l := range lines {
			line := uint64(l % 16)
			if live[line] && l%3 == 0 {
				m.Fill(line, sim.Time(l))
				delete(live, line)
				continue
			}
			switch m.Allocate(line, FillFunc(func(sim.Time) { notified++ })) {
			case Allocated, Merged:
				expected++
				live[line] = true
			}
		}
		for line := range live {
			m.Fill(line, 0)
		}
		return notified == expected && m.Used() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestMSHRSlotRecycling: filling an entry that is not the most recent one
// exercises the swap-delete path; the moved entry must stay reachable and
// recycled slots must serve fresh allocations correctly, including a
// re-entrant Allocate for the just-filled line from inside a waiter.
func TestMSHRSlotRecycling(t *testing.T) {
	m := NewMSHR(4)
	var order []uint64
	waiter := func(line uint64) FillWaiter {
		return FillFunc(func(sim.Time) { order = append(order, line) })
	}
	m.Allocate(1, waiter(1))
	m.Allocate(2, waiter(2))
	m.Allocate(3, waiter(3))
	m.Fill(1, 0) // swap-delete: slot 0 now holds line 3
	m.Fill(3, 0)
	m.Fill(2, 0)
	want := []uint64{1, 3, 2}
	if len(order) != len(want) {
		t.Fatalf("notified %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("notified %v, want %v", order, want)
		}
	}

	// Re-entrant Allocate for the same line from inside a waiter opens a
	// fresh fill without corrupting the snapshot being walked.
	reentered := false
	var second []sim.Time
	m.Allocate(7, FillFunc(func(sim.Time) {
		if got := m.Allocate(7, FillFunc(func(t2 sim.Time) { second = append(second, t2) })); got != Allocated {
			t.Errorf("re-entrant Allocate = %v, want Allocated", got)
		}
		reentered = true
	}))
	m.Allocate(7, FillFunc(func(sim.Time) {}))
	m.Fill(7, 5)
	if !reentered {
		t.Fatal("waiter did not run")
	}
	if m.Used() != 1 {
		t.Fatalf("Used = %d after re-entrant Allocate, want 1", m.Used())
	}
	m.Fill(7, 9)
	if len(second) != 1 || second[0] != 9 {
		t.Fatalf("second-generation waiter saw %v, want [9]", second)
	}
}

// TestMSHRStallFIFO: stalled retries fire in Stall order, across one Fill
// that wakes several and across fills that wake one each, and a retry
// that stalls again joins the back of the queue.
func TestMSHRStallFIFO(t *testing.T) {
	m := NewMSHR(1)
	m.Allocate(1, FillFunc(func(sim.Time) {}))
	var order []string
	var restall RetryFunc
	restall = func() {
		order = append(order, "A")
		if len(order) == 1 {
			m.Stall(10, restall)
		}
	}
	m.Stall(10, restall)
	for _, name := range []string{"B", "C", "D"} {
		m.Stall(11, RetryFunc(func() { order = append(order, name) }))
	}
	m.Fill(1, 5) // none re-allocates: the whole queue drains
	if got, want := strings.Join(order, ""), "ABCDA"; got != want {
		t.Fatalf("retry order %q, want %q", got, want)
	}

	order = order[:0]
	m.Allocate(1, FillFunc(func(sim.Time) {}))
	for i, name := range []string{"E", "F", "G"} {
		m.Stall(uint64(20+i), RetryFunc(func() {
			order = append(order, name)
			m.Allocate(uint64(20+i), FillFunc(func(sim.Time) {}))
		}))
	}
	for _, line := range []uint64{1, 20, 21, 22} {
		m.Fill(line, 6) // each Fill frees one entry and wakes one retry
	}
	if got, want := strings.Join(order, ""), "EFG"; got != want {
		t.Fatalf("retry order %q across fills, want %q", got, want)
	}
}

// TestMSHRStandingQueueBounded: a stall queue that never drains (one
// request joins for every one woken) must not grow its backing array with
// the number of wakes; it stays within twice its peak depth.
func TestMSHRStandingQueueBounded(t *testing.T) {
	const depth, cycles = 100, 100_000
	m := NewMSHR(1)
	inflight := uint64(0)
	m.Allocate(inflight, FillFunc(func(sim.Time) {}))
	next := uint64(1)
	retry := func(line uint64) Retrier {
		return RetryFunc(func() {
			m.Allocate(line, FillFunc(func(sim.Time) {}))
			inflight = line
		})
	}
	peak := 0
	for i := 0; i < cycles; i++ {
		for m.Stalled() < depth {
			m.Stall(next, retry(next))
			next++
		}
		peak = max(peak, m.Stalled())
		m.Fill(inflight, sim.Time(i))
	}
	if m.Stalled() != depth-1 {
		t.Fatalf("Stalled = %d, want %d", m.Stalled(), depth-1)
	}
	if c := cap(m.stalled); c > 2*peak {
		t.Fatalf("stall queue capacity %d after %d wakes, want <= %d (2x peak depth %d)", c, cycles, 2*peak, peak)
	}
}

// TestMSHRSteadyStateAllocFree: after warm-up, Allocate/Fill cycles with
// long-lived waiters perform no allocations, also with requests stalled on
// a full file and with a waiter that re-allocates and merges into its own
// line mid-Fill. The per-generation counters prove that re-entrant
// Allocate cannot clobber the waiter list being walked.
func TestMSHRSteadyStateAllocFree(t *testing.T) {
	m := NewMSHR(16)
	var sink sim.Time
	w := FillFunc(func(t sim.Time) { sink = t })
	for i := uint64(0); i < 16; i++ { // warm every slot's waiter storage
		m.Allocate(i, w)
		m.Allocate(i, w)
	}
	for i := uint64(0); i < 16; i++ {
		m.Fill(i, 1)
	}
	avg := testing.AllocsPerRun(500, func() {
		m.Allocate(3, w)
		m.Allocate(3, w)
		m.Allocate(9, w)
		m.Fill(3, 2)
		m.Fill(9, 2)
	})
	if avg != 0 {
		t.Fatalf("steady-state MSHR cycle allocates %.1f objects, want 0", avg)
	}

	// Stalled requests in flight: a 2-entry file holding lines 1 and 2,
	// two retries queued behind it, and a line-1 waiter that re-opens
	// line 1 (Allocate, then a merged Allocate) from inside its Fill.
	m = NewMSHR(2)
	var first, second, retried int
	firstGen := FillFunc(func(sim.Time) { first++ })
	secondGen := FillFunc(func(sim.Time) { second++ })
	reopen := FillFunc(func(sim.Time) {
		m.Allocate(1, secondGen)
		m.Allocate(1, secondGen)
	})
	retryA := RetryFunc(func() { retried++; m.Allocate(3, w) })
	retryB := RetryFunc(func() { retried++; m.Allocate(4, w) })
	runs := 0
	avg = testing.AllocsPerRun(500, func() {
		runs++
		m.Allocate(1, reopen)
		m.Allocate(1, firstGen)
		m.Allocate(2, w)
		m.Stall(3, retryA)
		m.Stall(4, retryB)
		m.Fill(1, 3) // re-opens line 1: the file stays full
		m.Fill(2, 3) // wakes retryA
		m.Fill(1, 4) // wakes retryB
		m.Fill(3, 4)
		m.Fill(4, 4)
	})
	if avg != 0 {
		t.Fatalf("MSHR cycle with stalled requests allocates %.1f objects, want 0", avg)
	}
	if first != runs || second != 2*runs || retried != 2*runs {
		t.Fatalf("after %d cycles: first-generation fills %d, second %d, retries %d; want %d, %d, %d",
			runs, first, second, retried, runs, 2*runs, 2*runs)
	}
	if m.Used() != 0 || m.Stalled() != 0 {
		t.Fatalf("Used = %d, Stalled = %d after the cycles, want 0, 0", m.Used(), m.Stalled())
	}
	_ = sink
}

// BenchmarkMSHRStallDrain measures a 128-entry file under sustained
// backpressure: each op fills the file, queues 4096 retries behind it and
// drains them, one wake (and re-allocation) per fill.
func BenchmarkMSHRStallDrain(b *testing.B) {
	const entries, stalled = 128, 4096
	m := NewMSHR(entries)
	var sink sim.Time
	w := FillFunc(func(t sim.Time) { sink = t })
	retries := make([]Retrier, entries+stalled)
	for i := range retries {
		line := uint64(i)
		retries[i] = RetryFunc(func() { m.Allocate(line, w) })
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for line := uint64(0); line < entries; line++ {
			m.Allocate(line, w)
		}
		for line := entries; line < entries+stalled; line++ {
			m.Stall(uint64(line), retries[line])
		}
		for line := uint64(0); line < entries+stalled; line++ {
			m.Fill(line, sim.Time(i))
		}
	}
	_ = sink
}
