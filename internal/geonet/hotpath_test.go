package geonet

import (
	"bytes"
	"testing"
	"time"

	"github.com/vanetsec/georoute/internal/geo"
	"github.com/vanetsec/georoute/internal/radio"
	"github.com/vanetsec/georoute/internal/security"
)

// Tests for the per-hop pipeline: COW forks must be wire-identical to
// eager clones, the decode-once cache must hand every receiver the same
// view, and the pooled paths must stay allocation-free.

func signedGBC(t testing.TB) (*Packet, security.Signer, security.Verifier) {
	t.Helper()
	ca := security.NewSimCA(1)
	signer := ca.Enroll(42, 0)
	p := &Packet{
		Basic:    BasicHeader{Version: 1, RHL: 16, LifetimeMs: 60000},
		Type:     TypeGeoBroadcast,
		SN:       9,
		SourcePV: samplePV(),
		Area:     geo.NewRect(geo.Pt(2000, 0), 2000, 30, 90),
		Payload:  []byte("cbf storm payload"),
	}
	p.Sign(signer)
	return p, signer, ca
}

func TestForkCloneWireEquivalence(t *testing.T) {
	src, _, verifier := signedGBC(t)
	captured, err := Unmarshal(src.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	// The forwarding mutation: decrement the RHL. The COW fork and the
	// eager deep clone must produce byte-identical wire frames.
	fork := captured.Fork()
	fork.Basic.RHL--
	clone := captured.Clone()
	clone.Basic.RHL--
	forkWire := fork.Marshal()
	cloneWire := clone.Marshal()
	if !bytes.Equal(forkWire, cloneWire) {
		t.Fatalf("fork and clone wire frames differ:\nfork:  %x\nclone: %x", forkWire, cloneWire)
	}
	// AppendMarshal into a dirty, pre-grown buffer must agree with Marshal.
	buf := make([]byte, 0, 512)
	buf = append(buf, 0xAA, 0xBB)
	if got := fork.AppendMarshal(buf)[2:]; !bytes.Equal(got, forkWire) {
		t.Fatalf("AppendMarshal diverges from Marshal")
	}
	// The fork still verifies (shared protected bytes untouched) and the
	// original is untouched by the fork's header mutation.
	if err := fork.Verify(verifier, 0); err != nil {
		t.Fatalf("forked packet no longer verifies: %v", err)
	}
	if captured.Basic.RHL != 16 {
		t.Fatalf("fork mutated the original basic header: RHL=%d", captured.Basic.RHL)
	}
	// Shared-bytes contract: the fork aliases the original's payload.
	if len(fork.Payload) > 0 && &fork.Payload[0] != &captured.Payload[0] {
		t.Fatal("Fork copied the payload; expected a shared slice")
	}
	if &clone.Payload[0] == &captured.Payload[0] {
		t.Fatal("Clone shares the payload; expected a deep copy")
	}
}

// TestProtectedWireRegionMatchesReencoding pins the invariant the cached
// verify path relies on: the protected region recorded at decode time is
// byte-identical to re-serializing the decoded packet.
func TestProtectedWireRegionMatchesReencoding(t *testing.T) {
	for _, build := range []func() *Packet{
		func() *Packet {
			return &Packet{Basic: BasicHeader{Version: 1, RHL: 1}, Type: TypeBeacon, SourcePV: samplePV()}
		},
		func() *Packet {
			return &Packet{Basic: BasicHeader{Version: 1, RHL: 9}, Type: TypeGeoUnicast, SN: 3,
				SourcePV: samplePV(), DestAddr: 7, DestPos: geo.Pt(4020, 2.5), Payload: []byte("x")}
		},
		func() *Packet {
			return &Packet{Basic: BasicHeader{Version: 1, RHL: 9}, Type: TypeGeoBroadcast, SN: 4,
				SourcePV: samplePV(), Area: geo.NewEllipse(geo.Pt(100, 50), 300, 60, 45), Payload: []byte("warning")}
		},
		func() *Packet {
			return &Packet{Basic: BasicHeader{Version: 1, RHL: 5}, Type: TypeLSRequest, SN: 5,
				SourcePV: samplePV(), DestAddr: 12}
		},
	} {
		p := build()
		ca := security.NewSimCA(1)
		p.Sign(ca.Enroll(security.StationID(p.SourcePV.Addr), 0))
		wire := p.Marshal()
		q, protEnd, err := unmarshalWire(wire)
		if err != nil {
			t.Fatalf("%v: %v", p.Type, err)
		}
		if got, want := wire[basicHeaderLen:protEnd], q.protectedBytes(); !bytes.Equal(got, want) {
			t.Fatalf("%v: wire protected region != re-encoded protected bytes", p.Type)
		}
	}
}

func TestDecodeFrameSharesOneDecode(t *testing.T) {
	p, _, _ := signedGBC(t)
	f := radio.Frame{From: 42, To: radio.BroadcastID, Payload: p.Marshal(), Cache: &radio.FrameCache{}}
	first, err := DecodeFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	second, err := DecodeFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatal("receivers of one frame got distinct decodes")
	}
	// Without a cache every call decodes independently.
	f.Cache = nil
	third, err := DecodeFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	if third == first {
		t.Fatal("cache-less decode unexpectedly shared")
	}
}

func TestDecodeFrameCachesErrors(t *testing.T) {
	f := radio.Frame{Payload: []byte{protocolVersion, 1, 0, 0, 0}, Cache: &radio.FrameCache{}}
	if _, err := DecodeFrame(f); err == nil {
		t.Fatal("truncated frame decoded")
	}
	if _, err := DecodeFrame(f); err == nil {
		t.Fatal("cached decode lost the error")
	}
}

// countingVerifier wraps a Verifier and counts underlying Verify calls.
type countingVerifier struct {
	v     security.Verifier
	calls int
}

func (c *countingVerifier) Verify(msg security.SignedMessage, now time.Duration) error {
	c.calls++
	return c.v.Verify(msg, now)
}

func TestVerifyFrameVerifiesOncePerTransmission(t *testing.T) {
	p, _, verifier := signedGBC(t)
	cv := &countingVerifier{v: verifier}
	f := radio.Frame{Payload: p.Marshal(), Cache: &radio.FrameCache{}}
	q, err := DecodeFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := VerifyFrame(f, q, cv, time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if cv.calls != 1 {
		t.Fatalf("10 receivers verified %d times, want 1", cv.calls)
	}
	// A different verifier instance must not reuse the verdict.
	cv2 := &countingVerifier{v: verifier}
	if err := VerifyFrame(f, q, cv2, time.Second); err != nil {
		t.Fatal(err)
	}
	if cv2.calls != 1 {
		t.Fatal("distinct verifier did not re-verify")
	}
	// A different verification time must re-verify too (cert expiry).
	if err := VerifyFrame(f, q, cv2, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if cv2.calls != 2 {
		t.Fatal("later verification time did not re-verify")
	}
}

func TestVerifyFrameCachedRejectsTampering(t *testing.T) {
	// The cached verify runs over the wire bytes; a tampered protected
	// region must still be rejected for every receiver.
	p, _, verifier := signedGBC(t)
	wire := p.Marshal()
	wire[basicHeaderLen+3] ^= 0x01 // flip a bit inside the SN
	f := radio.Frame{Payload: wire, Cache: &radio.FrameCache{}}
	q, err := DecodeFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := VerifyFrame(f, q, verifier, 0); err == nil {
			t.Fatal("tampered frame verified")
		}
	}
}

// TestReceivePathAllocs asserts the cached broadcast receive path —
// decode + verify per additional receiver — allocates nothing, so
// regressions fail CI (the PR's acceptance criterion).
func TestReceivePathAllocs(t *testing.T) {
	p, _, verifier := signedGBC(t)
	f := radio.Frame{Payload: p.Marshal(), Cache: &radio.FrameCache{}}
	q, err := DecodeFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyFrame(f, q, verifier, time.Second); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		qq, err := DecodeFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyFrame(f, qq, verifier, time.Second); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("cached receive path allocates %.1f/op, want 0", allocs)
	}
}

// TestBeaconReceiveAllocs extends TestReceivePathAllocs through the
// router: delivering a cached beacon that the location table accepts —
// decode, verify, and an in-place LocT update — allocates nothing.
func TestBeaconReceiveAllocs(t *testing.T) {
	const runs = 200
	// AllocsPerRun makes one warm-up call (which inserts the entry)
	// before the measured runs; every call delivers a fresher beacon.
	rx, frames := cachedBeacons(t, runs+1)
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		rx.Deliver(frames[next])
		next++
	})
	if next != len(frames) {
		t.Fatalf("delivered %d frames, want %d", next, len(frames))
	}
	e := rx.LocT().Lookup(2, 0)
	if want := time.Duration(len(frames)) * time.Millisecond; e == nil || e.PV.Timestamp != want {
		t.Fatalf("LocT entry = %+v, want the last beacon (timestamp %v) accepted", e, want)
	}
	if got := rx.Stats().BeaconsReceived; got != uint64(len(frames)) {
		t.Fatalf("BeaconsReceived = %d, want %d", got, len(frames))
	}
	if allocs != 0 {
		t.Fatalf("accepted beacon receive allocates %.1f/op, want 0", allocs)
	}
}

// TestMarshalPathAllocs asserts AppendMarshal into a pre-grown buffer
// and the uncached verify's one-shot signing path stay within bounds.
func TestMarshalPathAllocs(t *testing.T) {
	p, _, _ := signedGBC(t)
	buf := make([]byte, 0, 512)
	allocs := testing.AllocsPerRun(1000, func() {
		buf = p.AppendMarshal(buf[:0])
	})
	if allocs != 0 {
		t.Fatalf("AppendMarshal allocates %.1f/op, want 0", allocs)
	}
	// One full decode per transmission: Packet + payload + three envelope
	// blobs + the area box. Pin a ceiling so the fold-in doesn't regress.
	wire := p.Marshal()
	allocs = testing.AllocsPerRun(1000, func() {
		if _, err := Unmarshal(wire); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Fatalf("Unmarshal allocates %.1f/op, want <= 8", allocs)
	}
}
