package radio

import (
	"math"
	"testing"
	"time"

	"github.com/vanetsec/georoute/internal/geo"
	"github.com/vanetsec/georoute/internal/sim"
)

func softMedium(t *testing.T, seed uint64) (*sim.Engine, *Medium) {
	t.Helper()
	e := sim.NewEngine(seed)
	return e, NewMedium(e, Config{EdgeFactor: SoftEdgeFactor, Seed: seed})
}

func TestHardDiskIsDefault(t *testing.T) {
	e := sim.NewEngine(1)
	m := NewMedium(e, Config{})
	var rx collector
	tx := m.Attach(1, 100, staticPos(geo.Pt(0, 0)), &collector{}, false)
	m.Attach(2, 100, staticPos(geo.Pt(100.01, 0)), &rx, false)
	for i := 0; i < 50; i++ {
		m.Send(tx, BroadcastID, []byte{byte(i)})
	}
	e.Run(time.Second)
	if len(rx.delivered) != 0 {
		t.Fatalf("default medium delivered %d frames past the hard boundary", len(rx.delivered))
	}
}

func TestSoftEdgeWithinRangeAlwaysDelivers(t *testing.T) {
	e, m := softMedium(t, 1)
	var rx collector
	tx := m.Attach(1, 100, staticPos(geo.Pt(0, 0)), &collector{}, false)
	m.Attach(2, 100, staticPos(geo.Pt(99, 0)), &rx, false)
	for i := 0; i < 20; i++ {
		m.Send(tx, BroadcastID, []byte{byte(i)})
	}
	e.Run(time.Second)
	if len(rx.delivered) != 20 {
		t.Fatalf("in-range delivery not deterministic: %d/20", len(rx.delivered))
	}
}

func TestSoftEdgeBeyondEdgeNeverDelivers(t *testing.T) {
	e, m := softMedium(t, 1)
	var rx collector
	tx := m.Attach(1, 100, staticPos(geo.Pt(0, 0)), &collector{}, false)
	m.Attach(2, 100, staticPos(geo.Pt(116, 0)), &rx, false) // beyond 1.15*100
	for i := 0; i < 50; i++ {
		m.Send(tx, BroadcastID, []byte{byte(i)})
	}
	e.Run(time.Second)
	if len(rx.delivered) != 0 {
		t.Fatalf("delivery beyond the soft edge: %d frames", len(rx.delivered))
	}
}

func TestSoftEdgeZoneIsProbabilistic(t *testing.T) {
	// In the middle of the edge zone roughly half the links are up. Links
	// are (from, to, bucket)-coherent, so sample many distinct receivers.
	e, m := softMedium(t, 7)
	tx := m.Attach(1, 100, staticPos(geo.Pt(0, 0)), &collector{}, false)
	const n = 200
	rxs := make([]*collector, n)
	for i := 0; i < n; i++ {
		rxs[i] = &collector{}
		m.Attach(NodeID(i+2), 100, staticPos(geo.Pt(107.5, float64(i)/1e6)), rxs[i], false)
	}
	m.Send(tx, BroadcastID, []byte("probe"))
	e.Run(time.Second)
	got := 0
	for _, rx := range rxs {
		got += len(rx.delivered)
	}
	if got < n/4 || got > 3*n/4 {
		t.Fatalf("mid-edge delivery count = %d/%d, want ~half", got, n)
	}
}

func TestSoftEdgeLinkCoherence(t *testing.T) {
	// Within one coherence bucket the same link gives the same outcome
	// for every frame.
	e, m := softMedium(t, 3)
	var rx collector
	tx := m.Attach(1, 100, staticPos(geo.Pt(0, 0)), &collector{}, false)
	m.Attach(2, 100, staticPos(geo.Pt(107, 0)), &rx, false)
	for i := 0; i < 30; i++ {
		m.Send(tx, BroadcastID, []byte{byte(i)})
	}
	e.Run(time.Second) // all within the first 4 s bucket
	if got := len(rx.delivered); got != 0 && got != 30 {
		t.Fatalf("edge outcomes within one bucket are not coherent: %d/30", got)
	}
}

func TestSoftEdgeDeterministicAcrossMedia(t *testing.T) {
	// Two media with the same seed make identical edge decisions — the
	// property that keeps A/B experiment arms paired.
	outcome := func() int {
		e, m := softMedium(t, 99)
		var rx collector
		tx := m.Attach(1, 100, staticPos(geo.Pt(0, 0)), &collector{}, false)
		m.Attach(2, 100, staticPos(geo.Pt(108, 0)), &rx, false)
		for i := 0; i < 10; i++ {
			m.Send(tx, BroadcastID, []byte{1, 2, 3})
		}
		e.Run(time.Second)
		return len(rx.delivered)
	}
	if a, b := outcome(), outcome(); a != b {
		t.Fatalf("same-seed media disagree: %d vs %d", a, b)
	}
}

func TestEdgeFactorBelowOnePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for edge factor < 1")
		}
	}()
	NewMedium(sim.NewEngine(1), Config{EdgeFactor: 0.5})
}

// TestPreRejectBoundary pins the |dx| pre-reject in collect to the
// frames receives refuses anyway: it is strict, so a receiver at exactly
// the limit on the hard disk still hears the frame.
func TestPreRejectBoundary(t *testing.T) {
	const r = 100.0
	edge := r * SoftEdgeFactor
	past := func(x float64) float64 { return math.Nextafter(x, math.Inf(1)) }
	yes, no := true, false
	tests := []struct {
		name       string
		edgeFactor float64
		rxRange    float64
		rx         geo.Point
		want       *bool // nil: whatever receives decides
	}{
		{"hard disk, |dx| == limit ahead", DefaultEdgeFactor, 0, geo.Pt(r, 0), &yes},
		{"hard disk, |dx| == limit behind", DefaultEdgeFactor, 0, geo.Pt(-r, 0), &yes},
		{"hard disk, |dx| == extended rxRange", DefaultEdgeFactor, 3 * r, geo.Pt(3*r, 0), &yes},
		{"hard disk, just past limit on X", DefaultEdgeFactor, 0, geo.Pt(past(r), 0), &no},
		{"soft edge, exactly at edge", SoftEdgeFactor, 0, geo.Pt(edge, 0), &no},
		{"soft edge, just past edge on X", SoftEdgeFactor, 0, geo.Pt(past(edge), 0), &no},
		{"hard disk, inside limit on X, on the disk with large dy", DefaultEdgeFactor, 0, geo.Pt(60, 80), &yes},
		{"hard disk, inside limit on X, off the disk with large dy", DefaultEdgeFactor, 0, geo.Pt(10, 150), &no},
		{"soft edge, inside edge on X, edge zone with large dy", SoftEdgeFactor, 0, geo.Pt(50, 100), nil},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			e := sim.NewEngine(1)
			m := NewMedium(e, Config{EdgeFactor: tt.edgeFactor, Seed: 5})
			var rx collector
			tx := m.Attach(1, r, staticPos(geo.Pt(0, 0)), &collector{}, false)
			m.Attach(2, r, staticPos(tt.rx), &rx, false).SetRxRange(tt.rxRange)
			m.Send(tx, BroadcastID, nil)
			e.Run(time.Second)

			got := len(rx.delivered) == 1
			decided := m.receives(geo.Pt(0, 0).DistanceTo(tt.rx), math.Max(r, tt.rxRange), 1, 2, 0)
			if got != decided {
				t.Errorf("delivered = %v, receives says %v", got, decided)
			}
			if tt.want != nil && got != *tt.want {
				t.Errorf("delivered = %v, want %v", got, *tt.want)
			}
		})
	}
}
