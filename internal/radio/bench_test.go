package radio

import (
	"fmt"
	"testing"

	"github.com/vanetsec/georoute/internal/geo"
	"github.com/vanetsec/georoute/internal/sim"
)

// The medium benchmarks model the paper's densest deployments: vehicles
// 30 m apart along the road axis with the DSRC NLoS-median range
// (486 m), so each transmission reaches ~32 receivers regardless of how
// many nodes share the medium. A linear receiver scan costs O(N) per
// frame; the spatial index should keep the cost proportional to the
// in-range population only.

type nopReceiver struct{}

func (nopReceiver) Deliver(Frame)  {}
func (nopReceiver) Overhear(Frame) {}

const (
	benchSpacing = 30.0
	benchRange   = 486.0 // DSRC NLoS median, the vehicles' default
)

// benchMedium lays out n nodes along the road axis and returns the
// middle node as the transmitter. With traffic set the attach order runs
// against the X order, as the spawner leaves a lane: vehicles attached
// earlier have driven further along +X. Otherwise nodes attach in
// ascending X.
func benchMedium(b testing.TB, n int, promiscuousEvery int, traffic bool) (*sim.Engine, *Medium, *Antenna) {
	b.Helper()
	e := sim.NewEngine(1)
	m := NewMedium(e, Config{})
	var tx *Antenna
	for i := 0; i < n; i++ {
		x := float64(i) * benchSpacing
		if traffic {
			x = float64(n-1-i) * benchSpacing
		}
		p := geo.Pt(x, 0)
		promisc := promiscuousEvery > 0 && i%promiscuousEvery == 0
		a := m.Attach(NodeID(i+1), benchRange, func() geo.Point { return p }, nopReceiver{}, promisc)
		if i == n/2 {
			tx = a
		}
	}
	return e, m, tx
}

// drive sends one frame per iteration and drains its delivery, advancing
// simulated time past the medium latency each round.
func drive(b *testing.B, e *sim.Engine, m *Medium, tx *Antenna, to NodeID) {
	b.Helper()
	payload := []byte("benchmark-frame")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Send(tx, to, payload)
		e.Run(e.Now() + 2*DefaultLatency)
	}
}

func BenchmarkMediumBroadcast(b *testing.B) {
	for _, order := range []struct {
		name    string
		traffic bool
	}{{"ascending", false}, {"traffic", true}} {
		b.Run("order="+order.name, func(b *testing.B) {
			for _, n := range []int{100, 500, 2000} {
				b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
					e, m, tx := benchMedium(b, n, 0, order.traffic)
					drive(b, e, m, tx, BroadcastID)
				})
			}
		})
	}
}

// TestSendSteadyStateAllocs pins the broadcast path at one allocation
// per frame (the delivery event's closure) in both attach orders: the
// delivery slices and the run-merge buffer stay pooled.
func TestSendSteadyStateAllocs(t *testing.T) {
	for _, traffic := range []bool{false, true} {
		e, m, tx := benchMedium(t, 500, 0, traffic)
		payload := []byte("frame")
		send := func() {
			m.Send(tx, BroadcastID, payload)
			e.Run(e.Now() + 2*DefaultLatency)
		}
		for i := 0; i < 10; i++ {
			send() // grow the pooled buffers
		}
		if got := testing.AllocsPerRun(200, send); got > 1 {
			t.Errorf("traffic order %v: %v allocs per frame, want at most 1", traffic, got)
		}
	}
}

func BenchmarkMediumUnicast(b *testing.B) {
	for _, n := range []int{100, 500, 2000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			e, m, tx := benchMedium(b, n, 0, false)
			// The next node up the road, always in range.
			drive(b, e, m, tx, tx.ID()+1)
		})
	}
}

func BenchmarkMediumPromiscuous(b *testing.B) {
	// Unicast with every 10th node promiscuous: the sniffer-heavy case
	// where most deliveries are Overhear callbacks.
	for _, n := range []int{100, 500, 2000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			e, m, tx := benchMedium(b, n, 10, false)
			drive(b, e, m, tx, tx.ID()+1)
		})
	}
}

func BenchmarkMediumChurn(b *testing.B) {
	// Attach/detach cost under the index: one join and one leave per
	// frame, as the spawner and road exits do at steady state.
	e := sim.NewEngine(1)
	m := NewMedium(e, Config{})
	const n = 500
	for i := 0; i < n; i++ {
		p := geo.Pt(float64(i)*benchSpacing, 0)
		m.Attach(NodeID(i+1), benchRange, func() geo.Point { return p }, nopReceiver{}, false)
	}
	tx := m.nodes[NodeID(n/2)]
	payload := []byte("churn")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := NodeID(n + i + 1)
		p := geo.Pt(float64(i%n)*benchSpacing, 5)
		m.Attach(id, benchRange, func() geo.Point { return p }, nopReceiver{}, false)
		m.Send(tx, BroadcastID, payload)
		m.Detach(id)
		e.Run(e.Now() + 2*DefaultLatency)
	}
}
