package vanet

import (
	"testing"
	"time"

	"github.com/vanetsec/georoute/internal/radio"
	"github.com/vanetsec/georoute/internal/sim"
	"github.com/vanetsec/georoute/internal/traffic"
)

func tinyScale(queue sim.QueueKind) *World {
	return NewScaleWorld(ScaleConfig{
		Seed:        7,
		Queue:       queue,
		Segments:    3,
		SegmentRoad: traffic.RoadConfig{Length: 1000, LanesPerDirection: 1},
		SpawnGap:    100,
	})
}

func TestScaleWorldAssembly(t *testing.T) {
	w := tinyScale(sim.QueueWheel)
	if len(w.Segments()) != 3 {
		t.Fatalf("segments = %d, want 3", len(w.Segments()))
	}
	perSeg := w.Traffic.Count()
	if perSeg == 0 {
		t.Fatal("primary segment empty")
	}
	if got := w.VehicleCount(); got != 3*perSeg {
		t.Fatalf("VehicleCount = %d, want %d", got, 3*perSeg)
	}
	seen := make(map[int]bool)
	for _, v := range w.Vehicles() {
		if seen[v.ID] {
			t.Fatalf("duplicate vehicle ID %d across segments", v.ID)
		}
		seen[v.ID] = true
		if w.RouterOf(v) == nil {
			t.Fatalf("vehicle %d has no router", v.ID)
		}
		if !w.Medium.Attached(radio.NodeID(AddrOf(v))) {
			t.Fatalf("vehicle %d not on the medium", v.ID)
		}
	}
	// Segment ID striding.
	if w.Segments()[1].Vehicles()[SegmentIDStride] == nil {
		t.Fatal("segment 1 IDs not strided")
	}
}

func TestScaleWorldSegmentsAreRFIsolated(t *testing.T) {
	w := tinyScale(sim.QueueWheel)
	w.Run(5 * time.Second)
	// A router in segment 0 must only ever hear segment-0 neighbors: the
	// 2000 m inter-segment gap is far beyond any configured radio range.
	for _, v := range w.Traffic.Vehicles() {
		r := w.RouterOf(v)
		if r == nil {
			continue
		}
		for _, e := range r.LocT().AppendNeighbors(nil, w.Engine.Now()) {
			if e.Addr >= VehicleAddrBase+SegmentIDStride {
				t.Fatalf("segment-0 vehicle %d learned cross-segment address %d", v.ID, e.Addr)
			}
		}
		if r.Stats().BeaconsReceived == 0 {
			t.Fatalf("vehicle %d heard no beacons: in-segment radio broken", v.ID)
		}
	}
}

// TestScaleWorldHeapWheelEquivalent is the end-to-end arm of the
// differential test: the same multi-segment scenario must produce
// identical protocol counters under both scheduler implementations.
func TestScaleWorldHeapWheelEquivalent(t *testing.T) {
	run := func(q sim.QueueKind) (geonet geonetStatsSummary, pendLive int) {
		w := tinyScale(q)
		w.Run(8 * time.Second)
		s := w.ProtocolStats()
		return geonetStatsSummary{s.BeaconsSent, s.BeaconsReceived, s.Delivered, s.GFForwarded + s.CBFForwarded}, w.Engine.PendingLive()
	}
	wheelStats, wheelPend := run(sim.QueueWheel)
	heapStats, heapPend := run(sim.QueueHeap)
	if wheelStats != heapStats {
		t.Fatalf("wheel %+v != heap %+v", wheelStats, heapStats)
	}
	if wheelPend != heapPend {
		t.Fatalf("PendingLive: wheel %d != heap %d", wheelPend, heapPend)
	}
}

type geonetStatsSummary struct {
	beaconsSent, beaconsReceived, delivered, forwarded uint64
}

func TestScaleWorldBulkChurn(t *testing.T) {
	w := tinyScale(sim.QueueWheel)
	w.Run(2 * time.Second)
	before := w.VehicleCount()

	// Bulk-spawn a fresh column behind the rear of segment 1's lane, then
	// bulk-despawn it; the router population must track exactly.
	seg := w.Segments()[1]
	lane := seg.Road().Lanes[0]
	vs := lane.Vehicles()
	rear := vs[len(vs)-1].S
	col := SpawnColumn(seg, lane, rear-50, 25, 4, 30)
	if w.VehicleCount() != before+4 {
		t.Fatalf("count after spawn = %d, want %d", w.VehicleCount(), before+4)
	}
	for _, v := range col {
		if w.RouterOf(v) == nil {
			t.Fatalf("spawned vehicle %d has no router", v.ID)
		}
	}
	w.Run(4 * time.Second)

	// Lane leaders may exit naturally during the run; compare against the
	// population right before the bulk despawn.
	mid := w.VehicleCount()
	seg.DespawnBulk(col)
	if w.VehicleCount() != mid-4 {
		t.Fatalf("count after despawn = %d, want %d", w.VehicleCount(), mid-4)
	}
	for _, v := range col {
		if w.RouterOf(v) != nil {
			t.Fatalf("despawned vehicle %d still has a router", v.ID)
		}
		if w.Medium.Attached(radio.NodeID(AddrOf(v))) {
			t.Fatalf("despawned vehicle %d still on the medium", v.ID)
		}
	}
	// The world keeps running cleanly after the churn.
	w.Run(8 * time.Second)
}
