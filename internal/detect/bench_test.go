package detect

import (
	"testing"
	"time"

	"github.com/vanetsec/georoute/internal/geo"
)

// BenchmarkDetectObserve measures the monitor's per-claim cost on the
// benign steady state — the price every traced reception pays when
// detection is enabled. The claim stream mimics a neighbor beaconing at
// the default cadence: fresh timestamps, plausible motion, no verdicts.
func BenchmarkDetectObserve(b *testing.B) {
	d := New(Config{})
	m := d.NewMonitor(1)
	c := Claim{
		From: 7, Src: 7,
		Pos:   geo.Pt(100, 0),
		RxPos: geo.Pt(0, 0), RxRange: 500,
		Single: true,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Now += 2250 * time.Millisecond
		c.TS = c.Now
		c.Pos.X += 30   // ~13 m/s: well inside the speed envelope
		c.RxPos.X += 30 // receiver travels alongside, staying in range
		m.ObserveClaim(c)
	}
	if d.Summary().Verdicts != 0 {
		b.Fatal("benign benchmark stream produced verdicts")
	}
}

// BenchmarkDetectObserveNil measures the disabled path: a nil monitor
// must cost nothing beyond the call.
func BenchmarkDetectObserveNil(b *testing.B) {
	var m *Monitor
	c := Claim{From: 7, Src: 7, Single: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ObserveClaim(c)
	}
}

// BenchmarkDetectObserveTraffic measures the per-claim cost on the
// working set of a detection-on figure run, which BenchmarkDetectObserve's
// single warm source hides: 300 monitors that each remember about 100
// sources, visited frame by frame, so one beacon's claim reaches the ~60
// monitors within range in a row, each probing a different table. Two
// lanes of 150 vehicles on a line, 10 m apart; every round (one 3 s
// beacon interval) each vehicle beacons once, and the second lane slides
// against the first and back over an 80-slot cycle, so a monitor's
// neighbor set turns over without ever leaving the benign envelope. Each
// op is one frame; ns/claim divides by the claims it delivered. The
// tables reach steady state in a warm-up cycle before timing starts.
func BenchmarkDetectObserveTraffic(b *testing.B) {
	const (
		vehicles = 300
		reach    = 30 // slots on each side a beacon reaches
		cycle    = 80 // rounds of the second lane's back-and-forth slide
		spacing  = 10.0
		interval = 3 * time.Second
	)
	d := New(Config{})
	mons := make([]*Monitor, vehicles)
	for v := range mons {
		mons[v] = d.NewMonitor(uint64(v + 1))
	}
	var bySlot [vehicles + cycle]int // vehicle index + 1 at each slot, 0 if empty
	var pos [vehicles]geo.Point
	var claims int
	round, sender := 0, 0
	frame := func() {
		if sender == 0 {
			// New round: re-place the second lane (odd vehicles).
			slide := round % cycle
			if slide > cycle/2 {
				slide = cycle - slide
			}
			bySlot = [vehicles + cycle]int{}
			for v := 0; v < vehicles; v++ {
				slot := v
				if v%2 == 1 {
					slot += 2 * slide
				}
				bySlot[slot] = v + 1
				pos[v] = geo.Pt(float64(slot)*spacing, float64(v%2)*4)
			}
		}
		now := time.Duration(round)*interval + time.Duration(sender)*interval/vehicles
		c := Claim{
			Now: now, From: uint64(sender + 1), Src: uint64(sender + 1),
			Pos: pos[sender], TS: now, RxRange: 500, Single: true,
		}
		slot := int(pos[sender].X / spacing)
		for s := max(slot-reach, 0); s <= min(slot+reach, len(bySlot)-1); s++ {
			if rx := bySlot[s] - 1; rx >= 0 && rx != sender {
				c.RxPos = pos[rx]
				mons[rx].ObserveClaim(c)
				claims++
			}
		}
		if sender++; sender == vehicles {
			sender = 0
			round++
		}
	}
	for round < cycle {
		frame()
	}
	claims = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(claims), "ns/claim")
	if d.Summary().Verdicts != 0 {
		b.Fatal("benign traffic stream produced verdicts")
	}
}
