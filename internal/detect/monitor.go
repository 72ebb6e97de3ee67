package detect

import (
	"fmt"
	"math/bits"
	"time"

	"github.com/vanetsec/georoute/internal/geo"
	"github.com/vanetsec/georoute/internal/telemetry"
)

// Claim is one neighbor-position assertion observed on a node's receive
// path: a frame from link sender From carrying a position vector for Src.
// Single marks single-hop claims (beacons/SHBs), the only ones the
// inter-arrival, range, recency, and churn checks apply to — multi-hop
// data packets legitimately carry their originator's PV from far away and
// deliver duplicate copies under CBF.
type Claim struct {
	Now     time.Duration // arrival sim time
	From    uint64        // link-layer sender (the suspect on violation)
	Src     uint64        // claim subject (the PV's address)
	Pos     geo.Point     // claimed position
	TS      time.Duration // claimed PV timestamp
	RxPos   geo.Point     // receiver's own position at arrival
	RxRange float64       // receiver's radio range, meters
	Single  bool          // beacon/SHB (direct-neighbor claim)
}

// Echo is a reception of the node's own packet (the router's own-echo
// drop branch). Hops is the consumed hop budget (initial RHL minus the
// received RHL); Elapsed is arrival time minus the packet's own
// origination timestamp.
type Echo struct {
	Now     time.Duration
	From    uint64 // link-layer sender (the suspect on violation)
	Beacon  bool   // echoed packet was our own single-hop beacon
	Elapsed time.Duration
	Hops    int
}

// Monitor is one node's plausibility monitor. It keeps per-source
// recency/cadence state internally (never reading the router's LocT) and
// reports violations to its Detector. A nil Monitor is the disabled
// state: both observe calls return immediately.
//
// The per-source state lives in a flat table the monitor owns: open
// addressing with linear probing over a power-of-two []srcEntry, at most
// ¾ full, indexed by a Fibonacci hash of the source address. Entries are
// pointer-free 64-byte values, so a claim for a known source costs one
// probe and usually one cache line, a new source allocates nothing but
// the table's occasional doubling, and the GC never scans the table. A
// source's churn window sits inline while it holds at most
// inlineArrivals arrivals (all an honest source fits in the default
// window); a longer one (replay cadence, a larger ChurnMax) moves to the
// spill map and back inline once it shrinks, so its length stays exact.
type Monitor struct {
	d     *Detector
	node  uint64
	tab   []srcEntry // len 0 or a power of two
	used  int        // occupied entries of tab
	shift uint       // 64 - log2(len(tab)), for home
	spill map[uint64][]time.Duration

	// Telemetry staging, folded into the Detector's histograms by
	// Summary; nil when the histograms are off.
	gapHist, posHist *telemetry.Tally
}

// inlineArrivals is the churn window length a srcEntry holds inline.
const inlineArrivals = 2

// minTable is the table length a monitor starts at on its first claim.
const minTable = 16

// srcEntry flag bits.
const (
	entUsed   uint8 = 1 << iota // slot holds a source
	entBeacon                   // lastBeacon is set
	entPV                       // lastTS/lastPos are set
)

// srcEntry is the monitor's memory of one claim source.
type srcEntry struct {
	key        uint64        // source address
	lastBeacon time.Duration // arrival time of the last single-hop claim
	lastTS     time.Duration // newest claimed PV timestamp
	lastPos    geo.Point     // position claimed at lastTS
	// win holds the churn window's arrivals while n <= inlineArrivals;
	// a longer window lives in Monitor.spill under key.
	win   [inlineArrivals]time.Duration
	n     uint32 // churn window length
	flags uint8
}

// entry returns src's table entry, inserting an empty one for a new
// source. The pointer is valid until the next entry call.
func (m *Monitor) entry(src uint64) *srcEntry {
	if 4*(m.used+1) > 3*len(m.tab) {
		m.grow() // keep room for one more source under ¾ load
	}
	mask := len(m.tab) - 1
	for i := m.home(src); ; i = (i + 1) & mask {
		e := &m.tab[i]
		if e.flags&entUsed == 0 {
			m.used++
			*e = srcEntry{key: src, flags: entUsed}
			return e
		}
		if e.key == src {
			return e
		}
	}
}

// home is key's first probe slot: the top log2(len(tab)) bits of its
// Fibonacci hash.
func (m *Monitor) home(key uint64) int {
	return int((key * 0x9E3779B97F4A7C15) >> m.shift)
}

// grow doubles the table (or allocates the first one) and rehashes.
func (m *Monitor) grow() {
	old := m.tab
	m.tab = make([]srcEntry, max(2*len(old), minTable))
	m.shift = uint(64 - bits.TrailingZeros(uint(len(m.tab))))
	mask := len(m.tab) - 1
	for _, e := range old {
		if e.flags&entUsed == 0 {
			continue
		}
		i := m.home(e.key)
		for m.tab[i].flags&entUsed != 0 {
			i = (i + 1) & mask
		}
		m.tab[i] = e
	}
}

// beaconGap records a single-hop arrival at now and returns the gap to
// the source's previous one, feeding it to the inter-arrival histogram;
// ok is false for the source's first single-hop arrival.
func (m *Monitor) beaconGap(e *srcEntry, now time.Duration) (gap time.Duration, ok bool) {
	if ok = e.flags&entBeacon != 0; ok {
		gap = now - e.lastBeacon
		if m.gapHist != nil {
			m.gapHist.Observe(gap.Seconds())
		}
	}
	e.flags |= entBeacon
	e.lastBeacon = now
	return gap, ok
}

// churn prunes the source's window to the arrivals less than ChurnWindow
// before now, counts the arrival at now, and returns the window length.
// The window is filtered in place, inline or in the spill map; appending
// past the inline capacity reallocates it onto the heap, which is the
// spill, so the map never points into the table.
func (m *Monitor) churn(e *srcEntry, now time.Duration) int {
	var win []time.Duration
	if e.n <= inlineArrivals {
		win = e.win[:e.n]
	} else {
		win = m.spill[e.key]
	}
	keep := win[:0]
	for _, at := range win {
		if now-at < m.d.cfg.ChurnWindow {
			keep = append(keep, at)
		}
	}
	keep = append(keep, now)
	switch {
	case len(keep) > inlineArrivals:
		if m.spill == nil {
			m.spill = make(map[uint64][]time.Duration)
		}
		m.spill[e.key] = keep
	case e.n > inlineArrivals:
		copy(e.win[:], keep) // shrunk back: move inline
		delete(m.spill, e.key)
	}
	e.n = uint32(len(keep))
	return len(keep)
}

// ObserveClaim runs the claim-facing checks and returns the number of
// true and false verdicts they produced, for the router to fold into its
// Detected/FalseAlarms stats. Safe on nil.
func (m *Monitor) ObserveClaim(c Claim) (tp, fp uint64) {
	if m == nil {
		return 0, 0
	}
	cfg := &m.d.cfg
	st := m.entry(c.Src)

	if c.Single {
		// Beacon inter-arrival floor.
		if gap, ok := m.beaconGap(st, c.Now); ok && gap < cfg.MinBeaconGap {
			t, f := m.d.flag(c.Now, m.node, c.From, CheckBeacon, func() string {
				return fmt.Sprintf("beacons from %d arrived %v apart (floor %v)", c.Src, gap, cfg.MinBeaconGap)
			})
			tp += t
			fp += f
		}

		// Direct-neighbor range plausibility.
		if d := c.Pos.DistanceTo(c.RxPos); d > cfg.RangeFactor*c.RxRange {
			m.posHist.Observe(d - cfg.RangeFactor*c.RxRange)
			t, f := m.d.flag(c.Now, m.node, c.From, CheckPosition, func() string {
				return fmt.Sprintf("neighbor claim for %d at %.0fm exceeds %.1fx range %.0fm", c.Src, d, cfg.RangeFactor, c.RxRange)
			})
			tp += t
			fp += f
		}

		// Stale-timestamp recency: a fresh direct claim must carry a
		// strictly newer PV than the last one seen for that source.
		if st.flags&entPV != 0 && c.TS <= st.lastTS {
			t, f := m.d.flag(c.Now, m.node, c.From, CheckReplay, func() string {
				return fmt.Sprintf("claim for %d repeats PV timestamp %v (last %v)", c.Src, c.TS, st.lastTS)
			})
			tp += t
			fp += f
		}

		// Claim-cadence churn: prune the window, then count this arrival.
		if n := m.churn(st, c.Now); n > cfg.ChurnMax {
			t, f := m.d.flag(c.Now, m.node, c.From, CheckChurn, func() string {
				return fmt.Sprintf("%d neighbor claims for %d inside %v (max %d)", n, c.Src, cfg.ChurnWindow, cfg.ChurnMax)
			})
			tp += t
			fp += f
		}
	}

	// Implied-speed plausibility applies to every claim with a strictly
	// newer timestamp (equal-timestamp duplicates carry zero motion
	// information and are the replay check's business). The PosError
	// allowance absorbs measurement noise: without it the check degrades
	// into dist/dt, which is unbounded as dt→0.
	havePV := st.flags&entPV != 0
	if havePV && c.TS > st.lastTS {
		dt := (c.TS - st.lastTS).Seconds()
		dist := c.Pos.DistanceTo(st.lastPos)
		if excess := dist - cfg.MaxSpeed*dt; excess > cfg.PosError {
			m.posHist.Observe(excess)
			t, f := m.d.flag(c.Now, m.node, c.From, CheckPosition, func() string {
				return fmt.Sprintf("claims for %d moved %.0fm in %.2fs, %.0fm beyond the %.0f m/s envelope", c.Src, dist, dt, excess, cfg.MaxSpeed)
			})
			tp += t
			fp += f
		}
	}
	if !havePV || c.TS > st.lastTS {
		st.flags |= entPV
		st.lastTS = c.TS
		st.lastPos = c.Pos
	}
	return tp, fp
}

// ObserveEcho runs the own-echo replay check. An echo of our own beacon
// is always implausible (no honest node retransmits beacons, and the
// radio never delivers to self); an echo of our own data packet is
// implausible when its consumed hop budget could not fit in the elapsed
// time at MinHopDelay per hop. Safe on nil.
func (m *Monitor) ObserveEcho(e Echo) (tp, fp uint64) {
	if m == nil {
		return 0, 0
	}
	cfg := &m.d.cfg
	switch {
	case e.Beacon:
		return m.d.flag(e.Now, m.node, e.From, CheckReplay, func() string {
			return fmt.Sprintf("own beacon echoed back after %v", e.Elapsed)
		})
	case e.Hops >= 1 && e.Elapsed < time.Duration(e.Hops)*cfg.MinHopDelay:
		return m.d.flag(e.Now, m.node, e.From, CheckReplay, func() string {
			return fmt.Sprintf("own packet back after %v claiming %d hops (floor %v/hop)", e.Elapsed, e.Hops, cfg.MinHopDelay)
		})
	}
	return 0, 0
}
