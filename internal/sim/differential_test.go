package sim

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// scheduler is the surface the differential workload and the edge-case
// tests drive, implemented by the engine (through engineSched) and by the
// test-only reference queue.
type scheduler interface {
	Now() time.Duration
	Schedule(delay time.Duration, fn func()) canceler
	ScheduleAt(t time.Duration, fn func()) canceler
	ScheduleTransient(delay time.Duration, fn func())
	Every(t0, period time.Duration, fn func()) stopper
	Run(until time.Duration) uint64
	Executed() uint64
	PendingLive() int
}

type canceler interface{ Cancel() }

type stopper interface{ Stop() }

// engineSched adapts *Engine to scheduler.
type engineSched struct{ *Engine }

func (e engineSched) Schedule(delay time.Duration, fn func()) canceler {
	return e.Engine.Schedule(delay, "s", fn)
}

func (e engineSched) ScheduleAt(t time.Duration, fn func()) canceler {
	return e.Engine.ScheduleAt(t, "s", fn)
}

func (e engineSched) ScheduleTransient(delay time.Duration, fn func()) {
	e.Engine.ScheduleTransient(delay, "t", fn)
}

func (e engineSched) Every(t0, period time.Duration, fn func()) stopper {
	return e.Engine.Every(t0, period, "tick", fn)
}

// refQueue is the reference scheduler the engine is checked against: a
// slice kept sorted by (at, seq), where Cancel removes the event at once.
// It shares no code with the engine — no heap, no lazy cancellation, no
// event pool — so a bug in either shows up as a trace divergence.
type refQueue struct {
	now      time.Duration
	seq      uint64
	executed uint64
	events   []*refEvent // sorted by (at, seq), earliest first
}

type refEvent struct {
	q    *refQueue
	at   time.Duration
	seq  uint64
	fn   func()
	done bool // fired or canceled
}

func refCmp(a, b *refEvent) int {
	if c := cmp.Compare(a.at, b.at); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

func (q *refQueue) Now() time.Duration { return q.now }

func (q *refQueue) Executed() uint64 { return q.executed }

func (q *refQueue) PendingLive() int { return len(q.events) }

func (q *refQueue) Schedule(delay time.Duration, fn func()) canceler {
	return q.ScheduleAt(q.now+delay, fn)
}

func (q *refQueue) ScheduleAt(t time.Duration, fn func()) canceler {
	if t < q.now {
		panic("refQueue: scheduled in the past")
	}
	ev := &refEvent{q: q, at: t, seq: q.seq, fn: fn}
	q.seq++
	i, _ := slices.BinarySearchFunc(q.events, ev, refCmp)
	q.events = slices.Insert(q.events, i, ev)
	return ev
}

func (q *refQueue) ScheduleTransient(delay time.Duration, fn func()) {
	q.Schedule(delay, fn)
}

func (ev *refEvent) Cancel() {
	if ev.done {
		return
	}
	ev.done = true
	q := ev.q
	i, found := slices.BinarySearchFunc(q.events, ev, refCmp)
	if !found {
		panic("refQueue: live event missing from the queue")
	}
	q.events = slices.Delete(q.events, i, i+1)
}

func (q *refQueue) Run(until time.Duration) uint64 {
	start := q.executed
	for len(q.events) > 0 && q.events[0].at <= until {
		ev := q.events[0]
		q.events = slices.Delete(q.events, 0, 1)
		ev.done = true
		q.now = ev.at
		ev.fn()
		q.executed++
	}
	if q.now < until {
		q.now = until
	}
	return q.executed - start
}

// refTicker repeats fn every period after a first delay of t0, until
// stopped.
type refTicker struct {
	q       *refQueue
	period  time.Duration
	fn      func()
	next    canceler
	stopped bool
}

func (q *refQueue) Every(t0, period time.Duration, fn func()) stopper {
	t := &refTicker{q: q, period: period, fn: fn}
	t.next = q.Schedule(t0, t.tick)
	return t
}

func (t *refTicker) tick() {
	t.next = nil
	t.fn()
	if !t.stopped {
		t.next = t.q.Schedule(t.period, t.tick)
	}
}

func (t *refTicker) Stop() {
	t.stopped = true
	if t.next != nil {
		t.next.Cancel()
		t.next = nil
	}
}

// schedulers names both implementations so the edge-case tests pin each
// to the same hand-checked answer: the engine cannot agree with a wrong
// oracle and still pass.
var schedulers = []struct {
	name string
	new  func() scheduler
}{
	{"heap", func() scheduler { return engineSched{NewEngine(1)} }},
	{"reference", func() scheduler { return &refQueue{} }},
}

func TestRunBoundaryInclusive(t *testing.T) {
	for _, sc := range schedulers {
		t.Run(sc.name, func(t *testing.T) {
			e := sc.new()
			fired := 0
			e.Schedule(time.Second, func() { fired++ })
			e.Schedule(time.Second+1, func() { t.Error("past-until fired") })
			e.Run(time.Second)
			if fired != 1 {
				t.Fatalf("event at exactly until fired %d times, want 1", fired)
			}
			if e.Now() != time.Second {
				t.Fatalf("Now = %v, want 1s", e.Now())
			}
		})
	}
}

func TestScheduleAtNowDuringRun(t *testing.T) {
	for _, sc := range schedulers {
		t.Run(sc.name, func(t *testing.T) {
			e := sc.new()
			var order []string
			e.Schedule(time.Second, func() {
				order = append(order, "a")
				// Zero-delay self-insert: must run at the same timestamp,
				// after the currently executing event, before later ones.
				e.ScheduleAt(e.Now(), func() { order = append(order, "b") })
			})
			e.Schedule(time.Second+time.Nanosecond, func() { order = append(order, "c") })
			e.Run(2 * time.Second)
			if got := len(order); got != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
				t.Fatalf("order = %v, want [a b c]", order)
			}
		})
	}
}

func TestTickerStopFromOwnTick(t *testing.T) {
	for _, sc := range schedulers {
		t.Run(sc.name, func(t *testing.T) {
			e := sc.new()
			var tk stopper
			ticks := 0
			tk = e.Every(time.Millisecond, time.Millisecond, func() {
				ticks++
				if ticks == 3 {
					// Stop from inside the tick itself: the reschedule for
					// tick 4 must be canceled, and the Stop must not touch
					// the (already fired) event backing this tick.
					tk.Stop()
					tk.Stop() // double Stop is a no-op
				}
			})
			e.Run(time.Second)
			if ticks != 3 {
				t.Fatalf("ticks = %d, want 3", ticks)
			}
			if e.PendingLive() != 0 {
				t.Fatalf("PendingLive = %d after ticker stopped", e.PendingLive())
			}
		})
	}
}

// handleBox tracks a Schedule handle plus whether it already fired, so the
// workload only ever cancels handles that are still live (handles are
// single-use by contract: canceling after the fire is undefined).
type handleBox struct {
	ev    canceler
	fired bool
}

// driveWorkload runs one randomized self-scheduling workload on the given
// scheduler and returns the exact execution trace. Both schedulers see
// identical randomness: callbacks draw from the shared rng in execution
// order, so as long as the traces match, the draws match. Any ordering
// divergence makes the traces differ and fails the test.
func driveWorkload(seed int64, eng scheduler) (trace []string, executed uint64, pendLive int) {
	rng := rand.New(rand.NewSource(seed))
	var boxes []*handleBox
	nextID := 0

	var spawn func(depth int)
	spawn = func(depth int) {
		nextID++
		id := nextID
		// Delay mix from same-instant to weeks ahead. The coarse
		// quantization (whole ms, s, h, days) makes distinct events
		// collide on one instant, so the seq tie-break is exercised.
		var delay time.Duration
		switch rng.Intn(12) {
		case 0:
			delay = 0 // self-insert at the current instant
		case 1, 2, 3:
			delay = time.Duration(rng.Intn(200_000)) // sub-millisecond, ns
		case 4, 5, 6:
			delay = time.Duration(rng.Intn(1000)) * time.Millisecond
		case 7, 8, 9:
			delay = time.Duration(rng.Intn(300)) * time.Second
		case 10:
			delay = time.Duration(rng.Intn(3)) * time.Hour
		case 11:
			// Far future: up to a month ahead, past the 36 h run horizon
			// half the time, so some events are still queued at the end.
			delay = time.Duration(rng.Intn(30)+1) * 24 * time.Hour
		}
		box := &handleBox{}
		fn := func() {
			box.fired = true
			trace = append(trace, fmt.Sprintf("%d@%d", id, eng.Now()))
			if depth < 4 && rng.Intn(3) > 0 {
				spawn(depth + 1)
			}
			if len(boxes) > 0 && rng.Intn(4) == 0 {
				if b := boxes[rng.Intn(len(boxes))]; !b.fired {
					b.ev.Cancel()
				}
			}
		}
		if rng.Intn(3) == 0 {
			box.fired = true // transients have no handle to track
			eng.ScheduleTransient(delay, fn)
		} else {
			box.ev = eng.Schedule(delay, fn)
			boxes = append(boxes, box)
		}
	}

	for i := 0; i < 300; i++ {
		spawn(0)
	}
	for i := 0; i < 6; i++ {
		id := i
		ticks := 0
		var tk stopper
		tk = eng.Every(time.Duration(id+1)*37*time.Millisecond, 777*time.Millisecond, func() {
			ticks++
			trace = append(trace, fmt.Sprintf("T%d#%d@%d", id, ticks, eng.Now()))
			if ticks == 200+id {
				tk.Stop()
			}
		})
	}
	eng.Run(36 * time.Hour)
	return trace, eng.Executed(), eng.PendingLive()
}

// TestDifferentialReferenceQueue is the scheduler equivalence property
// test: random self-scheduling workloads (with cancellations, self-
// stopping tickers, same-instant self-inserts, transients and far-future
// events) must execute in exactly the same order on the engine as on the
// sorted-slice reference queue, and leave the same number of live events
// queued. Runs under -race in CI.
func TestDifferentialReferenceQueue(t *testing.T) {
	seeds := []int64{1, 2, 3, 42, 1337}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			engTrace, engExec, engPend := driveWorkload(seed, engineSched{NewEngine(7)})
			refTrace, refExec, refPend := driveWorkload(seed, &refQueue{})
			if engExec != refExec {
				t.Fatalf("executed: engine %d, reference %d", engExec, refExec)
			}
			if engPend != refPend {
				t.Fatalf("PendingLive: engine %d, reference %d", engPend, refPend)
			}
			if len(engTrace) != len(refTrace) {
				t.Fatalf("trace lengths differ: engine %d, reference %d", len(engTrace), len(refTrace))
			}
			for i := range engTrace {
				if engTrace[i] != refTrace[i] {
					t.Fatalf("traces diverge at %d: engine %q, reference %q", i, engTrace[i], refTrace[i])
				}
			}
		})
	}
}
