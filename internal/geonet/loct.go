package geonet

import (
	"time"

	"github.com/vanetsec/georoute/internal/geo"
)

// LocTEntry is one neighbor record: (addr, PV, TTL) as in the paper's
// description of the standard's location table. It holds no pointers, so
// the table's backing array is never scanned by the garbage collector;
// the field order keeps it at 80 bytes.
type LocTEntry struct {
	Addr      Address
	PV        PositionVector
	ExpiresAt time.Duration // refresh time + TTL
	// NeighborUntil bounds the neighbor status in time: deployed stacks
	// let IS_NEIGHBOUR lapse after a missed beacon round or two rather
	// than keeping a silent station eligible as a next hop for the whole
	// entry TTL. The attack is unaffected — the attacker re-relays every
	// fresh beacon, so poisoned entries stay "neighbors" continuously.
	NeighborUntil time.Duration
	// IsNeighbor mirrors the standard's IS_NEIGHBOUR flag: set when the PV
	// came from a single-hop packet (a beacon). GF only considers entries
	// with this flag. Crucially it is set from the PACKET TYPE, not from
	// any check that the link-layer sender is the PV owner — which is why
	// a replayed beacon makes an out-of-range vehicle look like a
	// neighbor.
	IsNeighbor bool
}

// NeighborAt reports whether the entry counts as a direct neighbor for
// forwarding decisions at time now.
func (e *LocTEntry) NeighborAt(now time.Duration) bool {
	return e.IsNeighbor && now <= e.NeighborUntil
}

// LocT is the location table: the per-router view of its neighborhood,
// populated from received beacons and from the source position vectors of
// forwarded packets. Entries expire after the configured TTL (default
// 20 s per the standard).
//
// The table is a flat slice of value entries sorted by address: lookups
// binary-search it, accepted updates overwrite an entry in place, and
// expiry compacts it in place. A *LocTEntry handed out by Lookup,
// AppendNeighbors or Closest points into that slice, so it is valid only
// until the next call that mutates the same table (Update, Lookup,
// Purge, AppendNeighbors or Closest): read what you need from it first.
// Every caller does: standard GF and CBF (strategy.go) and the GeoUnicast
// location lookup (transport.go) read the entry at once, and GPSR's
// planarization and slotted CBF (internal/forward) use their entries
// within one decision that makes no other call on the table.
type LocT struct {
	ttl         time.Duration
	neighborTTL time.Duration
	entries     []LocTEntry
}

// DefaultLocTTTL is the standard's default lifetime of a location table
// entry.
const DefaultLocTTTL = 20 * time.Second

// NewLocT constructs a location table with the given entry TTL and
// neighbor-status lifetime. A neighborTTL of zero keeps neighbor status
// for the whole entry TTL (the literal standard behavior).
func NewLocT(ttl, neighborTTL time.Duration) *LocT {
	if ttl == 0 {
		ttl = DefaultLocTTTL
	}
	if neighborTTL == 0 || neighborTTL > ttl {
		neighborTTL = ttl
	}
	return &LocT{ttl: ttl, neighborTTL: neighborTTL}
}

// TTL reports the configured entry lifetime.
func (t *LocT) TTL() time.Duration { return t.ttl }

// find returns the index of addr in the sorted table, or the index at
// which it would be inserted, and whether it is present.
func (t *LocT) find(addr Address) (int, bool) {
	lo, hi := 0, len(t.entries)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if t.entries[m].Addr < addr {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(t.entries) && t.entries[lo].Addr == addr
}

// Update inserts or refreshes the entry for pv.Addr. A PV older than the
// stored one is ignored (beacon timestamps provide freshness; note that
// an immediate replay carries the *latest* timestamp and is accepted —
// the paper's point). isNeighbor marks single-hop receptions; once set it
// persists for the life of the entry. It reports whether the table
// changed.
func (t *LocT) Update(pv PositionVector, now time.Duration, isNeighbor bool) bool {
	i, ok := t.find(pv.Addr)
	var e *LocTEntry
	if ok {
		e = &t.entries[i]
	}
	if ok && now <= e.ExpiresAt && pv.Timestamp <= e.PV.Timestamp {
		if pv.Timestamp < e.PV.Timestamp {
			// A strictly older PV is a stale replay; it neither updates
			// the position nor proves current radio contact.
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
	if !ok {
		t.insertAt(i)
	}
	t.entries[i] = LocTEntry{
		Addr:          pv.Addr,
		PV:            pv,
		ExpiresAt:     now + t.ttl,
		NeighborUntil: neighborUntil,
		IsNeighbor:    isNeighbor || wasNeighbor,
	}
	return true
}

// insertAt opens slot i for a new entry, shifting the tail up by one.
// A full table grows by a quarter (n + n/4 + 4) rather than append's
// doubling: with one table per router, doubling's slack raised the peak
// heap of the 100k-vehicle worlds by 5-14%.
func (t *LocT) insertAt(i int) {
	n := len(t.entries)
	if n < cap(t.entries) {
		t.entries = t.entries[:n+1]
		copy(t.entries[i+1:], t.entries[i:n])
		return
	}
	grown := make([]LocTEntry, n+1, n+n/4+4)
	copy(grown, t.entries[:i])
	copy(grown[i+1:], t.entries[i:])
	t.entries = grown
}

// Lookup returns the live entry for addr, or nil. An expired entry is
// dropped from the table.
func (t *LocT) Lookup(addr Address, now time.Duration) *LocTEntry {
	i, ok := t.find(addr)
	if !ok {
		return nil
	}
	if now > t.entries[i].ExpiresAt {
		t.entries = append(t.entries[:i], t.entries[i+1:]...)
		return nil
	}
	return &t.entries[i]
}

// Len reports the number of stored entries including not-yet-purged
// expired ones.
func (t *LocT) Len() int { return len(t.entries) }

// Purge drops expired entries, compacting the table in place.
func (t *LocT) Purge(now time.Duration) {
	w := 0
	for i := range t.entries {
		if now > t.entries[i].ExpiresAt {
			continue
		}
		if w != i {
			t.entries[w] = t.entries[i]
		}
		w++
	}
	t.entries = t.entries[:w]
}

// AppendNeighbors purges expired entries, appends the live ones to dst
// in address order and returns the extended slice. Forwarding strategies
// reuse dst as a scratch buffer, keeping the per-hop neighborhood walk
// allocation-free. The entries point into the table: callers must not
// mutate them, and must not keep them past the next mutating call.
func (t *LocT) AppendNeighbors(dst []*LocTEntry, now time.Duration) []*LocTEntry {
	t.Purge(now)
	for i := range t.entries {
		dst = append(dst, &t.entries[i])
	}
	return dst
}

// Closest returns the live entry whose ADVERTISED position is nearest to
// dst, restricted to entries accepted by filter (nil accepts all) — the
// paper's literal GF: "chooses the neighbor closest to the destination
// area based on position information advertised in the beacons". Ties go
// to the lowest address. The filter receives the advertised position for
// convenience and must not mutate the table. It returns nil when the
// table has no acceptable live entries.
func (t *LocT) Closest(dst geo.Point, now time.Duration, filter func(e *LocTEntry, pos geo.Point) bool) *LocTEntry {
	t.Purge(now)
	var best *LocTEntry
	bestDist := 0.0
	for i := range t.entries {
		e := &t.entries[i]
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
