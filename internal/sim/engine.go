// Package sim implements a deterministic discrete-event simulation engine.
//
// The engine executes timestamped events in (time, insertion) order, so two
// runs with the same seed and the same scenario produce identical traces.
// Simulated time is a time.Duration measured from the start of the run,
// giving nanosecond resolution — far finer than the millisecond-scale CBF
// contention timers the GeoNetworking experiments depend on.
//
// A binary min-heap ordered by (time, sequence) backs the scheduler.
// Cancellation is lazy: a canceled event stays queued until its deadline
// surfaces and the pop path reclaims it.
package sim

import (
	"fmt"
	"math/rand/v2"
	"time"
)

// Event lifecycle states. An Event object is owned by the engine: once it
// has fired or been canceled the handle must not be used again (the engine
// recycles fired events into a free pool so steady-state scheduling does
// not allocate).
const (
	stateIdle      uint8 = iota // pooled / never scheduled
	stateScheduled              // queued, waiting to fire
	stateFired                  // executed (object may be recycled)
	stateCanceled               // canceled before firing
)

// Event is a scheduled callback. It is returned by the scheduling methods
// so callers can cancel it (e.g. a CBF contention timer stopped by a
// duplicate packet). Handles are single-use: after the event fires or is
// canceled, drop the reference — the engine recycles fired event objects,
// so a retained handle may alias a different, later event.
type Event struct {
	at   time.Duration
	seq  uint64
	name string
	fn   func()

	eng   *Engine
	state uint8
}

// Canceled reports whether Cancel was called on the event.
func (e *Event) Canceled() bool { return e.state == stateCanceled }

// At reports the simulated time the event fires (or would have fired).
func (e *Event) At() time.Duration { return e.at }

// Name reports the label given at scheduling time.
func (e *Event) Name() string { return e.name }

// Cancel prevents a pending event from running. Canceling an event that
// already ran or was already canceled is a no-op. The event stays in the
// heap, marked, until its deadline surfaces and the pop path reclaims it.
func (e *Event) Cancel() {
	if e.state != stateScheduled {
		return
	}
	e.state = stateCanceled
	e.fn = nil
	e.eng.live--
	e.eng.canceledPending++
}

// Engine is a single-threaded discrete-event scheduler. The zero value is
// not usable; construct with NewEngine.
type Engine struct {
	now     time.Duration
	seq     uint64
	rng     *rand.Rand
	stopped bool
	// Executed counts events that have run, for introspection and tests.
	executed uint64
	// live counts scheduled events that are neither fired nor canceled;
	// canceledPending counts canceled events still physically queued
	// (lazy cancellation).
	live            int
	canceledPending int
	// free recycles Event objects for Schedule and ScheduleTransient.
	// Sync-free: the engine is single-threaded.
	free []*Event
	// probe is an observation hook invoked from the Run loop every
	// probeEvery executed events (see SetProbe).
	probeEvery uint64
	probeLeft  uint64
	probeFn    func()

	// queue holds every scheduled event, canceled ones included until
	// their deadline surfaces.
	queue eventHeap
}

// NewEngine constructs an engine with a deterministic RNG derived from
// seed. Engines are not safe for concurrent use; run one engine per
// goroutine and aggregate results afterwards.
func NewEngine(seed uint64) *Engine {
	return &Engine{
		rng: rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)),
	}
}

// Now reports the current simulated time.
func (e *Engine) Now() time.Duration { return e.now }

// Rand exposes the engine's deterministic random source. All stochastic
// choices in a scenario (beacon jitter, packet source selection, ...) must
// draw from this source to keep runs reproducible.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Executed reports how many events have run so far.
func (e *Engine) Executed() uint64 { return e.executed }

// Pending reports how many events are physically queued, including
// lazily-canceled events that have not yet been reclaimed: the heap
// carries every canceled event until its deadline surfaces.
func (e *Engine) Pending() int { return e.live + e.canceledPending }

// PendingLive reports how many scheduled events will actually fire —
// Pending minus the canceled ones awaiting lazy reclamation. Use this for
// occupancy accounting: long-lived canceled CBF timers otherwise inflate
// the count.
func (e *Engine) PendingLive() int { return e.live }

// QueueStats is a point-in-time snapshot of scheduler occupancy, published
// through the telemetry sampler.
type QueueStats struct {
	// Live is the number of events that will fire (== PendingLive).
	Live int
	// CanceledPending counts canceled events still physically queued.
	CanceledPending int
	// MaxSlotDepth always reads 0: the heap has no slots. The field stays
	// because the benchmark harness (perfbench) still reads it.
	MaxSlotDepth int
}

// QueueStats snapshots scheduler occupancy.
func (e *Engine) QueueStats() QueueStats {
	return QueueStats{Live: e.live, CanceledPending: e.canceledPending}
}

// SetProbe installs an observation hook invoked from the Run loop after
// every `every` executed events. The hook runs at an event boundary on
// the engine goroutine, so it may read engine and scenario state freely —
// but it must not schedule events, cancel events, or draw from Rand:
// probes are pure observers, and determinism depends on the event stream
// being identical with or without one. Telemetry samplers publish
// snapshots into atomic cells here. every == 0 or fn == nil removes the
// probe.
func (e *Engine) SetProbe(every uint64, fn func()) {
	if every == 0 || fn == nil {
		e.probeEvery, e.probeLeft, e.probeFn = 0, 0, nil
		return
	}
	e.probeEvery = every
	e.probeLeft = every
	e.probeFn = fn
}

// Schedule runs fn after delay. A negative delay is an error in the caller;
// it panics to surface scheduling bugs immediately.
func (e *Engine) Schedule(delay time.Duration, name string, fn func()) *Event {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v for event %q", delay, name))
	}
	return e.ScheduleAt(e.now+delay, name, fn)
}

// ScheduleAt runs fn at absolute simulated time t. Scheduling in the past
// panics: it would silently reorder causality.
func (e *Engine) ScheduleAt(t time.Duration, name string, fn func()) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: event %q scheduled at %v before now %v", name, t, e.now))
	}
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		ev = &Event{}
	}
	*ev = Event{at: t, seq: e.seq, name: name, fn: fn, eng: e, state: stateScheduled}
	e.seq++
	e.live++
	e.queue.push(ev)
	return ev
}

// ScheduleTransient runs fn after delay, like Schedule, but returns no
// handle: transient events cannot be canceled or inspected. Use it for
// high-volume fire-and-forget events (e.g. per-frame radio deliveries).
// Both Schedule and ScheduleTransient recycle event objects through the
// engine's free pool, so neither allocates in steady state.
func (e *Engine) ScheduleTransient(delay time.Duration, name string, fn func()) {
	e.Schedule(delay, name, fn)
}

// Every schedules fn at now+t0, now+t0+period, now+t0+2·period, ... until
// the engine stops or the returned ticker is stopped. t0 is a delay from
// the current simulated time, not an absolute instant, so a ticker
// started mid-run first fires t0 later.
func (e *Engine) Every(t0, period time.Duration, name string, fn func()) *Ticker {
	if period <= 0 {
		panic(fmt.Sprintf("sim: non-positive period %v for ticker %q", period, name))
	}
	t := &Ticker{engine: e, period: period, name: name, fn: fn}
	t.ev = e.Schedule(t0, name, t.tick)
	return t
}

// Ticker is a repeating event created by Every.
type Ticker struct {
	engine  *Engine
	period  time.Duration
	name    string
	fn      func()
	ev      *Event
	stopped bool
}

func (t *Ticker) tick() {
	// The event that invoked us has fired; its handle is dead (the engine
	// recycles fired events), so clear it before anything else can Cancel
	// through it.
	t.ev = nil
	if t.stopped {
		return
	}
	t.fn()
	if !t.stopped && !t.engine.stopped {
		t.ev = t.engine.Schedule(t.period, t.name, t.tick)
	}
}

// Stop cancels future ticks. Safe to call multiple times, from inside the
// ticker's own callback, or after the engine stopped.
func (t *Ticker) Stop() {
	t.stopped = true
	if t.ev != nil {
		t.ev.Cancel()
		t.ev = nil
	}
}

// popNext removes and returns the earliest live event with at <= until,
// or nil if none. Lazily-canceled events surfacing on the way are
// dropped here, which is what keeps a long-lived storm of canceled CBF
// timers from bloating the queue.
func (e *Engine) popNext(until time.Duration) *Event {
	for {
		ev := e.queue.popIfDue(until)
		if ev == nil || ev.state != stateCanceled {
			return ev
		}
		e.canceledPending--
		// Canceled handles are left to the GC rather than pooled: a stale
		// double-Cancel on a recycled object would kill an innocent event.
	}
}

// Run executes events until the queue drains or simulated time reaches
// until (events at exactly until still run). It returns the number of
// events executed by this call.
func (e *Engine) Run(until time.Duration) uint64 {
	start := e.executed
	for !e.stopped {
		ev := e.popNext(until)
		if ev == nil {
			break
		}
		e.now = ev.at
		fn := ev.fn
		ev.fn = nil
		ev.state = stateFired
		e.live--
		fn()
		e.executed++
		// Recycle the object. Handles are single-use by contract, so fired
		// Schedule events pool exactly like transient ones.
		e.free = append(e.free, ev)
		if e.probeFn != nil {
			if e.probeLeft--; e.probeLeft == 0 {
				e.probeLeft = e.probeEvery
				e.probeFn()
			}
		}
	}
	if e.now < until {
		e.now = until
	}
	return e.executed - start
}

// Stop halts Run after the current event completes. Subsequent Run calls
// are no-ops until the engine is discarded; engines are single-use.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether Stop was called.
func (e *Engine) Stopped() bool { return e.stopped }
