package experiment

import (
	"testing"
	"time"

	"github.com/vanetsec/georoute/internal/geonet"
	"github.com/vanetsec/georoute/internal/radio"
	"github.com/vanetsec/georoute/internal/traffic"
	"github.com/vanetsec/georoute/internal/vanet"
)

func localMinScenario(fw string) Scenario {
	s := Default()
	s.Forwarder = fw
	s.Topology = TopoLocalMin
	s.Duration = 10 * time.Second
	// Outlive the 60 s packet lifetime so stranded buffers expire inside
	// the run and show up as GFExpired.
	s.Drain = 70 * time.Second
	return s
}

// TestLocalMinimumDifferential is the arena's existence proof: on the
// designed detour topology greedy GF strands every packet at the local
// minimum (buffers, then expires — zero delivery), while GPSR's
// perimeter recovery walks the same packets around the gap and delivers
// all of them.
func TestLocalMinimumDifferential(t *testing.T) {
	gf := RunOnce(localMinScenario(""), 7, Observe{})
	if gf.PacketsSent == 0 {
		t.Fatal("gf-cbf: no packets generated")
	}
	if got := gf.Series.Overall(); got != 0 {
		t.Errorf("gf-cbf delivery = %v, want 0 (greedy must strand at the local minimum)", got)
	}
	if gf.Protocol.GFBuffered == 0 {
		t.Error("gf-cbf: no store-carry-forward admissions at the dead end")
	}
	if gf.Protocol.GFExpired == 0 {
		t.Error("gf-cbf: stranded packets never expired (drain too short?)")
	}
	if gf.Protocol.GFPerimeter != 0 {
		t.Errorf("gf-cbf GFPerimeter = %d, want 0", gf.Protocol.GFPerimeter)
	}

	gp := RunOnce(localMinScenario("gpsr"), 7, Observe{})
	if gp.PacketsSent != gf.PacketsSent {
		t.Errorf("packet populations differ: gpsr %d, gf-cbf %d", gp.PacketsSent, gf.PacketsSent)
	}
	if got := gp.Series.Overall(); got != 1 {
		t.Errorf("gpsr delivery = %v, want 1 (perimeter recovery must route around the gap)", got)
	}
	if gp.Protocol.GFPerimeter == 0 {
		t.Error("gpsr: delivered without any perimeter-mode transmissions")
	}
	if gp.LatencyCount != uint64(gp.PacketsSent) {
		t.Errorf("gpsr first-delivery latency count = %d, want %d", gp.LatencyCount, gp.PacketsSent)
	}
	if gp.LatencySumSeconds <= 0 {
		t.Errorf("gpsr latency sum = %v, want > 0", gp.LatencySumSeconds)
	}
}

// TestLocalMinimumBufferGrows checks the failure mechanism itself: under
// plain greedy the dead-end relay's store-carry-forward buffer is
// visibly non-empty mid-run — the packet sits there waiting for traffic
// that never comes.
func TestLocalMinimumBufferGrows(t *testing.T) {
	w := vanet.New(vanet.Config{
		Seed:          1,
		Tech:          radio.DSRC,
		RangeClass:    radio.NLoSMedian,
		Road:          traffic.RoadConfig{Length: 4000, LanesPerDirection: 1},
		SpawnDisabled: true,
		LocTTTL:       20 * time.Second,
	})
	src, relays, dest := LocalMinLayout(w.VehicleRange())
	w.AddStatic(LocalMinSourceAddr, src, 0)
	for i, p := range relays {
		w.AddStatic(LocalMinSourceAddr+1+geonet.Address(i), p, 0)
	}
	w.AddStatic(vanet.EastDestAddr, dest, 0)

	w.Engine.ScheduleAt(3*time.Second, "test.send", func() {
		w.Router(LocalMinSourceAddr).SendGeoUnicast(vanet.EastDestAddr, dest, nil)
	})
	deadEnd := w.Router(LocalMinSourceAddr + 1) // relay A, the local minimum
	var bufMid int
	w.Engine.ScheduleAt(10*time.Second, "test.probe", func() {
		bufMid = deadEnd.GFBufferLen()
	})
	w.Run(12 * time.Second)
	if bufMid == 0 {
		t.Fatal("dead-end relay buffer empty mid-run; the packet should be stranded there")
	}
}
