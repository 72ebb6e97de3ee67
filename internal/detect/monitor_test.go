package detect

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"
	"unsafe"

	"github.com/vanetsec/georoute/internal/geo"
	"github.com/vanetsec/georoute/internal/telemetry"
)

// mapMonitor is the map-backed monitor the flat source table replaced:
// one heap state per source behind a map, an unbounded arrivals slice
// per churn window, and histogram observations straight into the shared
// telemetry.Histogram. It is kept only as the oracle of
// TestDifferentialMonitor.
type mapMonitor struct {
	d    *Detector
	node uint64
	src  map[uint64]*mapState
}

type mapState struct {
	haveBeacon bool
	lastBeacon time.Duration
	havePV     bool
	lastTS     time.Duration
	lastPos    geo.Point
	arrivals   []time.Duration
}

func (m *mapMonitor) ObserveClaim(c Claim) (tp, fp uint64) {
	cfg := &m.d.cfg
	st := m.src[c.Src]
	if st == nil {
		st = &mapState{}
		m.src[c.Src] = st
	}
	if c.Single {
		if st.haveBeacon {
			gap := c.Now - st.lastBeacon
			cfg.BeaconGapHist.Observe(gap.Seconds())
			if gap < cfg.MinBeaconGap {
				t, f := m.d.flag(c.Now, m.node, c.From, CheckBeacon, func() string {
					return fmt.Sprintf("beacons from %d arrived %v apart (floor %v)", c.Src, gap, cfg.MinBeaconGap)
				})
				tp += t
				fp += f
			}
		}
		st.haveBeacon = true
		st.lastBeacon = c.Now
		if d := c.Pos.DistanceTo(c.RxPos); d > cfg.RangeFactor*c.RxRange {
			cfg.PosErrorHist.Observe(d - cfg.RangeFactor*c.RxRange)
			t, f := m.d.flag(c.Now, m.node, c.From, CheckPosition, func() string {
				return fmt.Sprintf("neighbor claim for %d at %.0fm exceeds %.1fx range %.0fm", c.Src, d, cfg.RangeFactor, c.RxRange)
			})
			tp += t
			fp += f
		}
		if st.havePV && c.TS <= st.lastTS {
			t, f := m.d.flag(c.Now, m.node, c.From, CheckReplay, func() string {
				return fmt.Sprintf("claim for %d repeats PV timestamp %v (last %v)", c.Src, c.TS, st.lastTS)
			})
			tp += t
			fp += f
		}
		keep := st.arrivals[:0]
		for _, at := range st.arrivals {
			if c.Now-at < cfg.ChurnWindow {
				keep = append(keep, at)
			}
		}
		st.arrivals = append(keep, c.Now)
		if len(st.arrivals) > cfg.ChurnMax {
			n := len(st.arrivals)
			t, f := m.d.flag(c.Now, m.node, c.From, CheckChurn, func() string {
				return fmt.Sprintf("%d neighbor claims for %d inside %v (max %d)", n, c.Src, cfg.ChurnWindow, cfg.ChurnMax)
			})
			tp += t
			fp += f
		}
	}
	if st.havePV && c.TS > st.lastTS {
		dt := (c.TS - st.lastTS).Seconds()
		dist := c.Pos.DistanceTo(st.lastPos)
		if excess := dist - cfg.MaxSpeed*dt; excess > cfg.PosError {
			cfg.PosErrorHist.Observe(excess)
			t, f := m.d.flag(c.Now, m.node, c.From, CheckPosition, func() string {
				return fmt.Sprintf("claims for %d moved %.0fm in %.2fs, %.0fm beyond the %.0f m/s envelope", c.Src, dist, dt, excess, cfg.MaxSpeed)
			})
			tp += t
			fp += f
		}
	}
	if !st.havePV || c.TS > st.lastTS {
		st.havePV = true
		st.lastTS = c.TS
		st.lastPos = c.Pos
	}
	return tp, fp
}

// diffSide is one side of the differential: a detector with its own
// registry and a sink recording every verdict with its evidence.
type diffSide struct {
	reg    *telemetry.Registry
	d      *Detector
	sink   strings.Builder
	nsinks int
}

func newDiffSide(churnMax int) *diffSide {
	s := &diffSide{reg: telemetry.NewRegistry()}
	g := telemetry.NewRunGauges(s.reg, 0)
	s.d = New(Config{
		ChurnMax:      churnMax,
		Truth:         func(suspect uint64) bool { return suspect == attacker },
		Sink:          func(v Verdict) { fmt.Fprintf(&s.sink, "%+v\n", v); s.nsinks++ },
		BeaconGapHist: g.DetectBeaconGap,
		PosErrorHist:  g.DetectPosError,
	})
	return s
}

// diffHistograms compares the two registries' detection histograms:
// bucket ladders and counts exactly, sums within 1e-9 relative (the
// table side folds per-monitor partial sums, the oracle adds per claim).
func diffHistograms(t *testing.T, want, got *telemetry.Registry) {
	t.Helper()
	ws, gs := want.Snapshot(), got.Snapshot()
	if len(ws) != len(gs) {
		t.Fatalf("snapshot sizes differ: %d vs %d", len(ws), len(gs))
	}
	for i := range ws {
		w, g := ws[i], gs[i]
		if w.Name != g.Name || !reflect.DeepEqual(w.Labels, g.Labels) {
			t.Fatalf("sample %d: %s%v vs %s%v", i, w.Name, w.Labels, g.Name, g.Labels)
		}
		if strings.HasSuffix(w.Name, "_sum") {
			if math.Abs(w.Value-g.Value) > 1e-9*math.Abs(w.Value) {
				t.Errorf("%s = %.17g, want %.17g within 1e-9", g.Name, g.Value, w.Value)
			}
			continue
		}
		if w.Value != g.Value {
			t.Errorf("%s%v = %v, want %v", g.Name, g.Labels, g.Value, w.Value)
		}
	}
}

// TestDifferentialMonitor drives randomized claim streams through the
// flat-table monitor and the map monitor it replaced, and requires the
// same (tp, fp) per claim, the same Summary, the same sink output with
// evidence strings, and the same histograms. The streams reach hundreds
// of sources per monitor (several table doublings), mix equal, older and
// newer PV timestamps, and burst single sources hard enough to spill
// their churn windows out of the entry and back, at ChurnMax 1, 2 and 5.
func TestDifferentialMonitor(t *testing.T) {
	for _, churnMax := range []int{1, 2, 5} {
		for _, seed := range []int64{1, 2, 3} {
			t.Run(fmt.Sprintf("churnMax=%d/seed=%d", churnMax, seed), func(t *testing.T) {
				driveMonitors(t, seed, churnMax)
			})
		}
	}
}

func driveMonitors(t *testing.T, seed int64, churnMax int) {
	rng := rand.New(rand.NewSource(seed))
	want, got := newDiffSide(churnMax), newDiffSide(churnMax)
	const nodes = 3
	var oracles [nodes]*mapMonitor
	var tables [nodes]*Monitor
	for i := range tables {
		node := uint64(1000 + i)
		oracles[i] = &mapMonitor{d: want.d, node: node, src: make(map[uint64]*mapState)}
		tables[i] = got.d.NewMonitor(node)
	}

	// Source addresses: small integers, random 64-bit values, and runs of
	// consecutive multiples of a power of two, which share low bits.
	var srcs []uint64
	for i := 0; i < 300; i++ {
		srcs = append(srcs, uint64(i))
	}
	for i := 0; i < 300; i++ {
		srcs = append(srcs, rng.Uint64())
	}
	for i := 0; i < 200; i++ {
		srcs = append(srcs, uint64(i)<<20)
	}
	lastTS := make(map[uint64]time.Duration)

	var now time.Duration
	var src uint64
	n, burst := 0, 0
	spills, shrinks := 0, 0
	for step := 0; step < 40000; step++ {
		switch r := rng.Intn(100); {
		case r < 60:
			now += time.Duration(rng.Intn(300)) * time.Millisecond
		case r < 95:
			now += time.Duration(rng.Intn(5000)) * time.Microsecond
		case r < 99:
			// Same instant.
		default:
			now -= time.Duration(rng.Intn(50)) * time.Millisecond
		}
		switch {
		case burst > 0:
			// A burst repeats one hot source at one node until its
			// churn window spills out of the entry.
			burst--
		case rng.Intn(15) == 0:
			src, n, burst = srcs[rng.Intn(8)], rng.Intn(nodes), 2+rng.Intn(10)
		default:
			src, n = srcs[rng.Intn(len(srcs))], rng.Intn(nodes)
		}
		ts := now
		switch rng.Intn(10) {
		case 0:
			ts = lastTS[src] // equal PV timestamp
		case 1:
			ts = lastTS[src] - time.Duration(rng.Intn(3000))*time.Millisecond // older
		}
		if ts > lastTS[src] {
			lastTS[src] = ts
		}
		c := Claim{
			Now:     now,
			From:    src,
			Src:     src,
			Pos:     geo.Pt(float64(src%1000)+rng.Float64()*40, rng.Float64()*10),
			TS:      ts,
			RxPos:   geo.Pt(500, 0),
			RxRange: 500,
			Single:  rng.Intn(5) != 0,
		}
		if rng.Intn(3) == 0 {
			c.From = attacker
		}
		if rng.Intn(50) == 0 {
			c.Pos.X += 2000 // out of range, and a teleport
		}
		before := len(tables[n].spill)
		wtp, wfp := oracles[n].ObserveClaim(c)
		gtp, gfp := tables[n].ObserveClaim(c)
		if wtp != gtp || wfp != gfp {
			t.Fatalf("step %d node %d claim %+v: (tp, fp) = (%d, %d), oracle (%d, %d)", step, n, c, gtp, gfp, wtp, wfp)
		}
		if want.nsinks != got.nsinks {
			t.Fatalf("step %d: %d verdicts sunk, oracle %d", step, got.nsinks, want.nsinks)
		}
		switch after := len(tables[n].spill); {
		case after > before:
			spills++
		case after < before:
			shrinks++
		}
	}

	ws, gs := want.d.Summary(), got.d.Summary()
	if !reflect.DeepEqual(ws, gs) {
		t.Errorf("Summary = %+v, oracle %+v", gs, ws)
	}
	if w, g := want.sink.String(), got.sink.String(); w != g {
		t.Errorf("sink output differs (%d vs %d bytes)", len(g), len(w))
	}
	diffHistograms(t, want.reg, got.reg)

	// The stream must have exercised what it is meant to.
	for i, m := range tables {
		if m.used < 500 || len(m.tab) < 1024 {
			t.Errorf("node %d: %d sources in a %d-entry table, want >= 500 in >= 1024", i, m.used, len(m.tab))
		}
	}
	if spills < 100 || shrinks < 100 {
		t.Errorf("churn windows spilled %d and moved back inline %d times, want >= 100 each", spills, shrinks)
	}
	if ws.Verdicts == 0 || len(ws.Checks) != int(numChecks) {
		t.Errorf("stream raised %d verdicts over checks %v, want every check", ws.Verdicts, ws.Checks)
	}
}

// TestMonitorAllocsPerNewSource pins the table's allocation profile: a
// new source costs no allocation of its own, only the table's doublings.
func TestMonitorAllocsPerNewSource(t *testing.T) {
	const sources, runs = 1000, 5
	doublings := 0
	for n := 0; 4*sources > 3*n; n = max(2*n, minTable) {
		doublings++ // counts the first table too
	}
	d := New(Config{})
	var mons []*Monitor
	for i := 0; i <= runs; i++ { // AllocsPerRun adds a warm-up run
		mons = append(mons, d.NewMonitor(uint64(i)))
	}
	c := Claim{Pos: geo.Pt(100, 0), RxRange: 500, Single: true}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		m := mons[next]
		next++
		for src := uint64(0); src < sources; src++ {
			c.Src, c.From = src*7919, src*7919
			m.ObserveClaim(c)
		}
	})
	if allocs > float64(doublings) {
		t.Errorf("%d new sources cost %v allocs, want <= %d (the table's doublings)", sources, allocs, doublings)
	}
	if got := d.Summary().Verdicts; got != 0 {
		t.Fatalf("fresh sources raised %d verdicts", got)
	}
}

// TestSrcEntrySize keeps a table entry within one 64-byte cache line.
func TestSrcEntrySize(t *testing.T) {
	if sz := unsafe.Sizeof(srcEntry{}); sz > 64 {
		t.Errorf("srcEntry is %d bytes, want <= 64", sz)
	}
}
