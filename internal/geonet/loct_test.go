package geonet

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
	"unsafe"

	"github.com/vanetsec/georoute/internal/geo"
)

func pvAt(addr Address, x float64, ts time.Duration) PositionVector {
	return PositionVector{Addr: addr, Timestamp: ts, Pos: geo.Pt(x, 0)}
}

// TestLocTEntryLayout pins the entry at 80 bytes on 64-bit platforms:
// the worlds hold one table per router, so padding from a reordered or
// added field shows up directly in their peak heap.
func TestLocTEntryLayout(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(LocTEntry{}); got != 80 {
		t.Fatalf("LocTEntry is %d bytes, want 80", got)
	}
}

func TestLocTInsertAndLookup(t *testing.T) {
	lt := NewLocT(20*time.Second, 0)
	if !lt.Update(pvAt(1, 100, 0), 0, true) {
		t.Fatal("fresh insert must report change")
	}
	e := lt.Lookup(1, time.Second)
	if e == nil || e.PV.Pos.X != 100 || !e.IsNeighbor {
		t.Fatalf("Lookup = %+v", e)
	}
	if lt.Lookup(2, time.Second) != nil {
		t.Fatal("unknown address must return nil")
	}
}

func TestLocTTTLExpiry(t *testing.T) {
	lt := NewLocT(5*time.Second, 0)
	lt.Update(pvAt(1, 100, 0), 0, true)
	if lt.Lookup(1, 5*time.Second) == nil {
		t.Fatal("entry must live through its TTL")
	}
	if lt.Lookup(1, 5*time.Second+time.Nanosecond) != nil {
		t.Fatal("entry must expire after TTL")
	}
}

func TestLocTDefaultTTL(t *testing.T) {
	lt := NewLocT(0, 0)
	if lt.TTL() != 20*time.Second {
		t.Fatalf("default TTL = %v, want 20s (standard default)", lt.TTL())
	}
}

func TestLocTFreshnessRejectsOlderPV(t *testing.T) {
	lt := NewLocT(20*time.Second, 0)
	lt.Update(pvAt(1, 100, 10*time.Second), 10*time.Second, true)
	// A replayed STALE beacon (older timestamp) must not regress the entry.
	if lt.Update(pvAt(1, 50, 5*time.Second), 11*time.Second, true) {
		t.Fatal("older PV accepted")
	}
	if got := lt.Lookup(1, 11*time.Second).PV.Pos.X; got != 100 {
		t.Fatalf("position = %v, want 100", got)
	}
	// The latest beacon replayed immediately (same timestamp) is a no-op
	// but newer timestamps always win.
	if !lt.Update(pvAt(1, 200, 12*time.Second), 12*time.Second, true) {
		t.Fatal("newer PV rejected")
	}
}

func TestLocTExpiredEntryAcceptsOldTimestamp(t *testing.T) {
	// After expiry the freshness guard resets: a node that went silent and
	// returns is re-learned even if clocks look odd.
	lt := NewLocT(5*time.Second, 0)
	lt.Update(pvAt(1, 100, 4*time.Second), 4*time.Second, true)
	if !lt.Update(pvAt(1, 50, 2*time.Second), 30*time.Second, true) {
		t.Fatal("update after expiry rejected")
	}
}

func TestLocTNeighborFlagUpgradeAndPersistence(t *testing.T) {
	lt := NewLocT(20*time.Second, 0)
	// Learned from a forwarded data packet first: not a neighbor.
	lt.Update(pvAt(1, 100, time.Second), time.Second, false)
	if lt.Lookup(1, time.Second).IsNeighbor {
		t.Fatal("data-packet PV must not set IsNeighbor")
	}
	// Same PV heard as a beacon: flag upgrades even though the PV is not newer.
	if !lt.Update(pvAt(1, 100, time.Second), time.Second+1, true) {
		t.Fatal("flag upgrade must report change")
	}
	if !lt.Lookup(1, 2*time.Second).IsNeighbor {
		t.Fatal("beacon must set IsNeighbor")
	}
	// A later data-packet PV refreshes the position but keeps the flag.
	lt.Update(pvAt(1, 200, 3*time.Second), 3*time.Second, false)
	e := lt.Lookup(1, 3*time.Second)
	if e.PV.Pos.X != 200 || !e.IsNeighbor {
		t.Fatalf("entry after data refresh = %+v", e)
	}
}

func TestLocTNeighborsSortedAndLive(t *testing.T) {
	lt := NewLocT(10*time.Second, 0)
	lt.Update(pvAt(3, 30, 0), 0, true)
	lt.Update(pvAt(1, 10, 0), 0, true)
	lt.Update(pvAt(2, 20, 5*time.Second), 5*time.Second, true)
	ns := lt.AppendNeighbors(nil, 12*time.Second) // 1 and 3 expired at t=10s
	if len(ns) != 1 || ns[0].Addr != 2 {
		t.Fatalf("AppendNeighbors = %+v, want only addr 2", ns)
	}
	lt2 := NewLocT(10*time.Second, 0)
	for _, a := range []Address{5, 2, 9, 1} {
		lt2.Update(pvAt(a, float64(a), 0), 0, true)
	}
	ns2 := lt2.AppendNeighbors(nil, 0)
	for i := 1; i < len(ns2); i++ {
		if ns2[i-1].Addr >= ns2[i].Addr {
			t.Fatalf("AppendNeighbors not sorted: %+v", ns2)
		}
	}
}

func TestLocTClosest(t *testing.T) {
	lt := NewLocT(20*time.Second, 0)
	lt.Update(pvAt(1, 100, 0), 0, true)
	lt.Update(pvAt(2, 300, 0), 0, true)
	lt.Update(pvAt(3, 200, 0), 0, true)
	dst := geo.Pt(400, 0)
	best := lt.Closest(dst, time.Second, nil)
	if best == nil || best.Addr != 2 {
		t.Fatalf("Closest = %+v, want addr 2", best)
	}
	// Filter excludes the winner: next best is picked.
	best = lt.Closest(dst, time.Second, func(e *LocTEntry, _ geo.Point) bool { return e.Addr != 2 })
	if best == nil || best.Addr != 3 {
		t.Fatalf("filtered Closest = %+v, want addr 3", best)
	}
	// Filter excludes everything.
	if lt.Closest(dst, time.Second, func(*LocTEntry, geo.Point) bool { return false }) != nil {
		t.Fatal("Closest with all-rejecting filter must be nil")
	}
}

func TestLocTPurge(t *testing.T) {
	lt := NewLocT(time.Second, 0)
	for a := Address(1); a <= 10; a++ {
		lt.Update(pvAt(a, 0, 0), 0, true)
	}
	if lt.Len() != 10 {
		t.Fatalf("Len = %d, want 10", lt.Len())
	}
	lt.Purge(5 * time.Second)
	if lt.Len() != 0 {
		t.Fatalf("Len after purge = %d, want 0", lt.Len())
	}
}

// refLocT is the reference location table for TestDifferentialLocT: the
// original map-of-pointers implementation, which builds a fresh entry on
// every accepted update and sorts each neighbor enumeration. It is kept
// only as an oracle for the flat table's semantics.
type refLocT struct {
	ttl         time.Duration
	neighborTTL time.Duration
	entries     map[Address]*LocTEntry
}

func newRefLocT(ttl, neighborTTL time.Duration) *refLocT {
	if ttl == 0 {
		ttl = DefaultLocTTTL
	}
	if neighborTTL == 0 || neighborTTL > ttl {
		neighborTTL = ttl
	}
	return &refLocT{ttl: ttl, neighborTTL: neighborTTL, entries: make(map[Address]*LocTEntry)}
}

func (t *refLocT) Update(pv PositionVector, now time.Duration, isNeighbor bool) bool {
	e, ok := t.entries[pv.Addr]
	if ok && now <= e.ExpiresAt && pv.Timestamp <= e.PV.Timestamp {
		if pv.Timestamp < e.PV.Timestamp {
			return false
		}
		if isNeighbor {
			changed := !e.IsNeighbor
			e.IsNeighbor = true
			if until := now + t.neighborTTL; until > e.NeighborUntil {
				e.NeighborUntil = until
				changed = true
			}
			return changed
		}
		return false
	}
	var neighborUntil time.Duration
	wasNeighbor := ok && now <= e.ExpiresAt && e.IsNeighbor
	if wasNeighbor {
		neighborUntil = e.NeighborUntil
	}
	if isNeighbor {
		neighborUntil = now + t.neighborTTL
	}
	t.entries[pv.Addr] = &LocTEntry{
		Addr:          pv.Addr,
		PV:            pv,
		ExpiresAt:     now + t.ttl,
		IsNeighbor:    isNeighbor || wasNeighbor,
		NeighborUntil: neighborUntil,
	}
	return true
}

func (t *refLocT) Lookup(addr Address, now time.Duration) *LocTEntry {
	e, ok := t.entries[addr]
	if !ok {
		return nil
	}
	if now > e.ExpiresAt {
		delete(t.entries, addr)
		return nil
	}
	return e
}

func (t *refLocT) Len() int { return len(t.entries) }

func (t *refLocT) Purge(now time.Duration) {
	for addr, e := range t.entries {
		if now > e.ExpiresAt {
			delete(t.entries, addr)
		}
	}
}

func (t *refLocT) AppendNeighbors(dst []*LocTEntry, now time.Duration) []*LocTEntry {
	start := len(dst)
	for addr, e := range t.entries {
		if now > e.ExpiresAt {
			delete(t.entries, addr)
			continue
		}
		dst = append(dst, e)
	}
	live := dst[start:]
	for i := 1; i < len(live); i++ {
		e := live[i]
		j := i - 1
		for j >= 0 && live[j].Addr > e.Addr {
			live[j+1] = live[j]
			j--
		}
		live[j+1] = e
	}
	return dst
}

func (t *refLocT) Closest(dst geo.Point, now time.Duration, filter func(e *LocTEntry, pos geo.Point) bool) *LocTEntry {
	var best *LocTEntry
	bestDist := 0.0
	for _, e := range t.AppendNeighbors(nil, now) {
		pos := e.PV.Pos
		if filter != nil && !filter(e, pos) {
			continue
		}
		d := pos.DistanceTo(dst)
		if best == nil || d < bestDist {
			best = e
			bestDist = d
		}
	}
	return best
}

// driveLocTs applies one seeded random operation sequence to the flat
// table and the reference, failing on the first observable difference.
// Time advances in small steps so entries expire mid-run; timestamps and
// positions sit on coarse grids so equal timestamps (replays), stale
// timestamps and equidistant Closest candidates all occur often.
func driveLocTs(t *testing.T, seed int64, ttl, neighborTTL time.Duration) {
	rng := rand.New(rand.NewSource(seed))
	got, want := NewLocT(ttl, neighborTTL), newRefLocT(ttl, neighborTTL)
	const addrs = 200
	const tick = 100 * time.Millisecond
	var now time.Duration
	var gotBuf, wantBuf []*LocTEntry
	for op := 0; op < 20000; op++ {
		now += time.Duration(rng.Intn(4)) * tick / 2
		addr := Address(rng.Intn(addrs) + 1)
		where := fmt.Sprintf("op %d at %v", op, now)
		switch k := rng.Intn(20); {
		case k < 12:
			ts := now - time.Duration(rng.Intn(4))*tick
			if ts < 0 {
				ts = 0
			}
			ts -= ts % tick
			pv := PositionVector{Addr: addr, Timestamp: ts, Pos: geo.Pt(float64(rng.Intn(40))*25, float64(rng.Intn(3))*5)}
			single := rng.Intn(3) > 0
			if g, w := got.Update(pv, now, single), want.Update(pv, now, single); g != w {
				t.Fatalf("%s: Update(%+v, %v) = %v, reference %v", where, pv, single, g, w)
			}
		case k < 15:
			g, w := got.Lookup(addr, now), want.Lookup(addr, now)
			if (g == nil) != (w == nil) || (g != nil && *g != *w) {
				t.Fatalf("%s: Lookup(%d) = %+v, reference %+v", where, addr, g, w)
			}
		case k < 16:
			got.Purge(now)
			want.Purge(now)
		case k < 18:
			gotBuf = got.AppendNeighbors(gotBuf[:0], now)
			wantBuf = want.AppendNeighbors(wantBuf[:0], now)
			if len(gotBuf) != len(wantBuf) {
				t.Fatalf("%s: AppendNeighbors returned %d entries, reference %d", where, len(gotBuf), len(wantBuf))
			}
			for i := range gotBuf {
				if *gotBuf[i] != *wantBuf[i] {
					t.Fatalf("%s: neighbor %d = %+v, reference %+v", where, i, *gotBuf[i], *wantBuf[i])
				}
			}
		default:
			dst := geo.Pt(float64(rng.Intn(40))*25, 0)
			var filter func(*LocTEntry, geo.Point) bool
			if rng.Intn(2) == 0 {
				skip := Address(rng.Intn(5) + 2)
				filter = func(e *LocTEntry, pos geo.Point) bool {
					return e.NeighborAt(now) && e.Addr%skip != 0 && pos.X <= dst.X
				}
			}
			g, w := got.Closest(dst, now, filter), want.Closest(dst, now, filter)
			if (g == nil) != (w == nil) || (g != nil && g.Addr != w.Addr) {
				t.Fatalf("%s: Closest(%v) = %+v, reference %+v", where, dst, g, w)
			}
		}
		if got.Len() != want.Len() {
			t.Fatalf("%s: Len = %d, reference %d", where, got.Len(), want.Len())
		}
	}
}

// TestDifferentialLocT is the location-table equivalence property test:
// random Update/Lookup/Purge/AppendNeighbors/Closest sequences over ~200
// addresses, with TTL expiry, neighbor-flag upgrades and stale or equal
// timestamps, must observe exactly the same results from the flat sorted
// table as from the reference map implementation.
func TestDifferentialLocT(t *testing.T) {
	for _, tc := range []struct {
		name             string
		ttl, neighborTTL time.Duration
	}{
		{"neighbor=ttl", 5 * time.Second, 0},
		{"neighbor<ttl", 5 * time.Second, 1200 * time.Millisecond},
	} {
		for _, seed := range []int64{1, 2, 42} {
			t.Run(fmt.Sprintf("%s/seed=%d", tc.name, seed), func(t *testing.T) {
				driveLocTs(t, seed, tc.ttl, tc.neighborTTL)
			})
		}
	}
}
