package sim

import (
	"fmt"
	"testing"
	"time"
)

// benchDelays is a fixed pseudorandom delay mix biased to the event
// horizon of a real run: mostly sub-5ms (radio latency, CBF contention),
// some beacon-period scale, a trickle of up to 2 s.
var benchDelays = func() [1024]time.Duration {
	var ds [1024]time.Duration
	state := uint64(0x9E3779B97F4A7C15)
	for i := range ds {
		state = state*6364136223846793005 + 1442695040888963407
		r := state >> 33
		switch {
		case i%16 == 0:
			ds[i] = time.Duration(r % uint64(2*time.Second))
		case i%4 == 0:
			ds[i] = time.Duration(r % uint64(150*time.Millisecond))
		default:
			ds[i] = time.Duration(r % uint64(5*time.Millisecond))
		}
	}
	return ds
}()

// BenchmarkEngineSchedule measures the steady-state schedule→fire cycle of
// handle-returning events across pending-queue sizes matching the
// 1k/10k/100k world populations (one beacon timer per router stays queued
// at all times). Each fired event schedules its successor, so the queue
// holds `inflight` events throughout and every op is one push plus one
// pop. Allocations must be zero: fired handles recycle through the engine
// pool. The per-op cost grows with log(inflight) and its cache misses.
func BenchmarkEngineSchedule(b *testing.B) {
	for _, inflight := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("pending=%d", inflight), func(b *testing.B) {
			benchCycle(b, false, inflight)
		})
	}
}

// BenchmarkEngineScheduleTransient is the same cycle through the
// handle-free ScheduleTransient path.
func BenchmarkEngineScheduleTransient(b *testing.B) {
	benchCycle(b, true, 10_000)
}

func benchCycle(b *testing.B, transient bool, inflight int) {
	e := NewEngine(1)
	left := b.N
	i := 0
	var fn func()
	schedule := func() {
		i++
		d := benchDelays[i&1023]
		if transient {
			e.ScheduleTransient(d, "bench", fn)
		} else {
			e.Schedule(d, "bench", fn)
		}
	}
	fn = func() {
		if left > 0 {
			left--
			schedule()
		}
	}
	// Warm the pool and reach steady state before measuring.
	for k := 0; k < inflight; k++ {
		e.ScheduleTransient(benchDelays[k&1023], "warm", fn)
	}
	e.Run(time.Millisecond)
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(1 << 62)
	b.StopTimer()
	if left != 0 {
		b.Fatalf("only executed %d of %d scheduled events", b.N-left, b.N)
	}
}

// BenchmarkEngineCancel measures the cancel-heavy pattern CBF contention
// produces: schedule a timer, cancel it before it fires, repeat. Cancel is
// a lazy mark; the pop path reclaims the event at its deadline.
func BenchmarkEngineCancel(b *testing.B) {
	e := NewEngine(1)
	tick := e.Every(time.Millisecond, time.Millisecond, "drain", func() {})
	defer tick.Stop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := e.Schedule(benchDelays[i&1023], "victim", func() {})
		ev.Cancel()
		if i%1024 == 1023 {
			// Let the engine advance so lazy reclamation actually runs
			// and the queue cannot grow unboundedly.
			e.Run(e.Now() + 10*time.Millisecond)
		}
	}
}
