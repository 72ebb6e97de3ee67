// Package detect is the misbehavior-detection observability layer: per-node
// plausibility monitors that watch the router's receive path as pure
// observers and flag physically implausible claims — the consistency-check
// countermeasure direction the paper points at, since replayed beacons are
// cryptographically valid and signature checking alone cannot flag them.
//
// The package follows the trace/telemetry discipline: a nil *Detector (and
// the nil *Monitor it hands out) is the disabled state, every instrumented
// call on it returns immediately, and monitors never touch protocol state —
// golden artifacts stay byte-identical with detection on or off. Verdicts
// are observability output (counters, histograms, an optional sink), not a
// mitigation: flagged frames are still processed by the router.
//
// Monitor taxonomy (one Check per class of implausibility):
//
//   - CheckBeacon: single-hop beacon inter-arrival floor. A source beacons
//     every BeaconInterval±jitter (3s±750ms by default), so two beacons
//     from one source inside MinBeaconGap mean a second emitter — the
//     replay pipeline — is injecting copies.
//   - CheckPosition: claimed-position plausibility. A single-hop claim
//     placing its source farther than RangeFactor× the receiver's own
//     radio range cannot have been heard directly; successive claims
//     implying super-vehicular speed (> MaxSpeed) are teleporting.
//   - CheckReplay: recency. A single-hop claim whose PV timestamp is not
//     strictly newer than the previous claim from that source is a stale
//     copy; an echo of the node's own packet whose consumed hop budget is
//     impossible in the elapsed time (each real hop costs at least
//     MinHopDelay of access+airtime) — or any echo of the node's own
//     beacon, which no honest node ever retransmits — is a replay.
//   - CheckChurn: neighbor-claim cadence. More than ChurnMax single-hop
//     claims for one source inside ChurnWindow matches the hijack's
//     LocT-poisoning cadence (every beacon arrives twice: direct + replay).
//
// Suspect attribution is the link-layer sender of the offending frame.
// When direct and replayed copies interleave, the flagged arrival can be
// the innocent victim's own (the replayer made the victim's claim stream
// anomalous), so per-check precision in attack arms is reported rather
// than assumed 1.0; at default thresholds no check fires in attack-free
// runs.
package detect

import (
	"fmt"
	"sync"
	"time"

	"github.com/vanetsec/georoute/internal/telemetry"
)

// Check identifies one plausibility-monitor class.
type Check uint8

const (
	// CheckBeacon flags beacon inter-arrival below the benign floor.
	CheckBeacon Check = iota
	// CheckPosition flags out-of-range or super-speed position claims.
	CheckPosition
	// CheckReplay flags stale timestamps and implausible own-packet echoes.
	CheckReplay
	// CheckChurn flags neighbor-claim cadence above the benign rate.
	CheckChurn

	numChecks
)

func (c Check) String() string {
	switch c {
	case CheckBeacon:
		return "beacon_interarrival"
	case CheckPosition:
		return "position_plausibility"
	case CheckReplay:
		return "replay_recency"
	case CheckChurn:
		return "loct_churn"
	}
	return fmt.Sprintf("Check(%d)", uint8(c))
}

// Verdict is one detection event: a node accusing a link-layer sender of
// an implausible frame at a simulation time, with the evidence rendered
// for humans. True is the ground-truth label (suspect is the attacker's
// pseudonym) when the detector was configured with a Truth func.
type Verdict struct {
	At       time.Duration `json:"t"`
	Node     uint64        `json:"node"`
	Suspect  uint64        `json:"suspect"`
	Check    Check         `json:"-"`
	CheckStr string        `json:"check"`
	True     bool          `json:"true"`
	Evidence string        `json:"evidence,omitempty"`
}

// Config parameterizes a Detector. Zero values select the defaults, which
// are calibrated so that no check fires in attack-free runs of the
// paper's scenarios (see the threshold tests).
type Config struct {
	// MinBeaconGap is the beacon inter-arrival floor per source. Default
	// 1s; the benign minimum is BeaconInterval-jitter = 2.25s.
	MinBeaconGap time.Duration
	// MaxSpeed is the implied-speed ceiling between successive claims, in
	// m/s. Default 70; highway traffic in the model stays well under it.
	MaxSpeed float64
	// RangeFactor scales the receiver's radio range into the maximum
	// plausible distance of a directly-heard neighbor. Default 1.6, above
	// the soft-edge ablation's 1.15 reception stretch.
	RangeFactor float64
	// ChurnWindow/ChurnMax bound single-hop claims per source: more than
	// ChurnMax inside ChurnWindow flags. Defaults 4s/2 — an honest source
	// fits at most 2 beacons in any 4s window.
	ChurnWindow time.Duration
	ChurnMax    int
	// MinHopDelay is the minimum believable per-hop latency (radio access
	// + airtime). An own-packet echo whose consumed hop budget times this
	// exceeds the elapsed time is a replay. Default 500µs, the radio
	// medium's default delivery latency.
	MinHopDelay time.Duration
	// PosError is the position measurement allowance of the implied-speed
	// check, in meters: successive claims flag only when their displacement
	// exceeds MaxSpeed*dt + PosError. Real GNSS fixes carry meters of
	// error, and the mobility model integrates positions at a discrete
	// tick while PV timestamps are continuous, so two claims sampled
	// closely in time can legitimately show a whole tick's displacement in
	// near-zero claimed time. Default 5m.
	PosError float64

	// Truth labels a suspect as ground-truth attacker. Nil labels every
	// verdict false (offline replay of unlabeled traces).
	Truth func(suspect uint64) bool
	// Sink, when non-nil, receives every verdict. Evidence strings are
	// only rendered when a sink is installed.
	Sink func(Verdict)

	// Optional distribution outputs; nil handles are no-ops. Monitors
	// stage BeaconGapHist/PosErrorHist observations in plain per-monitor
	// counts, which reach the histograms when Summary is taken.
	LatencyHist   *telemetry.Histogram // first-true-verdict sim time, seconds
	BeaconGapHist *telemetry.Histogram // single-hop claim inter-arrival, seconds
	PosErrorHist  *telemetry.Histogram // implausible claim displacement excess, meters
}

func (c Config) withDefaults() Config {
	if c.MinBeaconGap == 0 {
		c.MinBeaconGap = time.Second
	}
	if c.MaxSpeed == 0 {
		c.MaxSpeed = 70
	}
	if c.RangeFactor == 0 {
		c.RangeFactor = 1.6
	}
	if c.ChurnWindow == 0 {
		c.ChurnWindow = 4 * time.Second
	}
	if c.ChurnMax == 0 {
		c.ChurnMax = 2
	}
	if c.MinHopDelay == 0 {
		c.MinHopDelay = 500 * time.Microsecond
	}
	if c.PosError == 0 {
		c.PosError = 5
	}
	return c
}

// Detector aggregates verdicts for one run and hands out per-node
// Monitors. A nil Detector is the disabled state: NewMonitor returns nil
// and Summary returns nil.
type Detector struct {
	cfg Config

	mu        sync.Mutex
	verdicts  uint64
	detected  bool
	firstTrue time.Duration
	checks    [numChecks]struct{ tp, fp uint64 }
	tallied   []*Monitor // monitors staging histogram observations
}

// New constructs a Detector with defaults applied.
func New(cfg Config) *Detector {
	return &Detector{cfg: cfg.withDefaults()}
}

// NewMonitor returns the plausibility monitor for one node. Nil-safe: a
// nil Detector returns a nil Monitor, whose observe calls are no-ops.
func (d *Detector) NewMonitor(node uint64) *Monitor {
	if d == nil {
		return nil
	}
	m := &Monitor{
		d: d, node: node,
		gapHist: d.cfg.BeaconGapHist.Tally(),
		posHist: d.cfg.PosErrorHist.Tally(),
	}
	if m.gapHist != nil || m.posHist != nil {
		d.mu.Lock()
		d.tallied = append(d.tallied, m)
		d.mu.Unlock()
	}
	return m
}

// Summary snapshots the run's aggregate detection outcome and folds the
// monitors' staged observations into the BeaconGapHist/PosErrorHist
// histograms. Take it once the monitors have stopped observing (at run
// end): the fold reads their staging without synchronization. Nil on a
// nil Detector.
func (d *Detector) Summary() *Summary {
	if d == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, m := range d.tallied {
		m.gapHist.Flush()
		m.posHist.Flush()
	}
	s := &Summary{Verdicts: d.verdicts, Detected: d.detected}
	if d.detected {
		s.LatencySeconds = d.firstTrue.Seconds()
	}
	for c := Check(0); c < numChecks; c++ {
		cc := d.checks[c]
		if cc.tp == 0 && cc.fp == 0 {
			continue
		}
		if s.Checks == nil {
			s.Checks = make(map[string]CheckStats, int(numChecks))
		}
		s.Checks[c.String()] = CheckStats{TruePositives: cc.tp, FalsePositives: cc.fp}
	}
	return s
}

// flag records one verdict: ground-truth labeling, counters, first-true
// latency, and the optional sink. evidence is rendered lazily so the
// no-sink path never formats strings. Returns (1,0) for a true verdict
// and (0,1) for a false alarm, which the router folds into its Stats.
func (d *Detector) flag(at time.Duration, node, suspect uint64, check Check, evidence func() string) (tp, fp uint64) {
	isTrue := d.cfg.Truth != nil && d.cfg.Truth(suspect)
	first := false
	d.mu.Lock()
	d.verdicts++
	if isTrue {
		d.checks[check].tp++
		if !d.detected {
			d.detected = true
			d.firstTrue = at
			first = true
		}
	} else {
		d.checks[check].fp++
	}
	d.mu.Unlock()
	if first {
		d.cfg.LatencyHist.Observe(at.Seconds())
	}
	if d.cfg.Sink != nil {
		d.cfg.Sink(Verdict{
			At: at, Node: node, Suspect: suspect,
			Check: check, CheckStr: check.String(),
			True: isTrue, Evidence: evidence(),
		})
	}
	if isTrue {
		return 1, 0
	}
	return 0, 1
}
