package geonet

import (
	"math"
	"testing"
	"time"

	"github.com/vanetsec/georoute/internal/geo"
	"github.com/vanetsec/georoute/internal/radio"
	"github.com/vanetsec/georoute/internal/security"
	"github.com/vanetsec/georoute/internal/sim"
)

func benchPacket(b *testing.B) (*Packet, security.Signer, security.Verifier) {
	b.Helper()
	ca := security.NewSimCA(1)
	signer := ca.Enroll(42, 0)
	p := &Packet{
		Basic: BasicHeader{Version: 1, RHL: 16, LifetimeMs: 60000},
		Type:  TypeGeoBroadcast,
		SN:    7,
		SourcePV: PositionVector{
			Addr: 42, Timestamp: time.Second, Pos: geo.Pt(1234, 5), Speed: 30, Heading: 90,
		},
		Area:    geo.NewRect(geo.Pt(2000, 0), 2000, 30, 90),
		Payload: make([]byte, 64),
	}
	p.Sign(signer)
	return p, signer, ca
}

func BenchmarkPacketMarshal(b *testing.B) {
	p, _, _ := benchPacket(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = p.Marshal()
	}
}

func BenchmarkPacketUnmarshal(b *testing.B) {
	p, _, _ := benchPacket(b)
	wire := p.Marshal()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(wire); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPacketVerify(b *testing.B) {
	p, _, verifier := benchPacket(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := p.Verify(verifier, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLocTUpdate(b *testing.B) {
	lt := NewLocT(20*time.Second, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lt.Update(PositionVector{
			Addr:      Address(i % 64),
			Timestamp: time.Duration(i),
			Pos:       geo.Pt(float64(i%4000), 0),
		}, time.Duration(i), true)
	}
}

func BenchmarkLocTClosest64Neighbors(b *testing.B) {
	// A realistic mid-road LocT: ~64 neighbors within range.
	lt := NewLocT(20*time.Second, 0)
	for i := 0; i < 64; i++ {
		lt.Update(PositionVector{
			Addr:      Address(i + 1),
			Timestamp: time.Second,
			Pos:       geo.Pt(float64(i)*15-480, 0),
		}, time.Second, true)
	}
	dst := geo.Pt(4020, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if lt.Closest(dst, 2*time.Second, nil) == nil {
			b.Fatal("no candidate")
		}
	}
}

// cachedBeacons builds a started receiver (address 1) and n beacons from
// one in-range neighbor (address 2) with strictly increasing timestamps.
// Each frame carries a FrameCache already holding its decode and its
// verification at the engine's (never advanced) clock, as the medium's
// shared cache does for every receiver after the first, so delivering
// the frames in order runs decode, verify and an accepted LocT update.
func cachedBeacons(tb testing.TB, n int) (*Router, []radio.Frame) {
	tb.Helper()
	engine := sim.NewEngine(1)
	medium := radio.NewMedium(engine, radio.Config{})
	ca := security.NewSimCA(1)
	rx := NewRouter(Config{
		Addr:     1,
		Engine:   engine,
		Medium:   medium,
		Signer:   ca.Enroll(1, 0),
		Verifier: ca,
		Position: func() geo.Point { return geo.Pt(0, 0) },
		Range:    486,
	})
	rx.Start()
	sender := ca.Enroll(2, 0)
	frames := make([]radio.Frame, n)
	for i := range frames {
		beacon := &Packet{
			Basic: BasicHeader{Version: 1, RHL: 1},
			Type:  TypeBeacon,
			SourcePV: PositionVector{
				Addr: 2, Timestamp: time.Duration(i+1) * time.Millisecond,
				Pos: geo.Pt(100+float64(i%50), 0), Speed: 30, Heading: 90,
			},
		}
		beacon.Sign(sender)
		f := radio.Frame{From: 2, To: radio.BroadcastID, Payload: beacon.Marshal(), Cache: &radio.FrameCache{}}
		p, err := DecodeFrame(f)
		if err != nil {
			tb.Fatal(err)
		}
		if err := VerifyFrame(f, p, ca, engine.Now()); err != nil {
			tb.Fatal(err)
		}
		frames[i] = f
	}
	return rx, frames
}

func BenchmarkRouterBeaconReceive(b *testing.B) {
	// The simulator's hottest path: cached decode + verify + an accepted
	// LocT update, cycling through pre-cached frames with increasing
	// timestamps.
	rx, frames := cachedBeacons(b, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(frames)
		if k == 0 && i > 0 {
			// The next cycle replays older timestamps: empty the table
			// (keeping its storage) so they are accepted again.
			b.StopTimer()
			rx.loct.Purge(math.MaxInt64)
			b.StartTimer()
		}
		rx.Deliver(frames[k])
	}
}
