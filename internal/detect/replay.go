package detect

import (
	"time"

	"github.com/vanetsec/georoute/internal/trace"
)

// Replay runs the monitors offline over a recorded JSONL trace and
// returns the populated Detector (read its Summary, which also folds the
// histograms; install cfg.Sink to stream verdicts). Trace records carry
// no position vectors, so only the trace-reconstructable subset of the
// taxonomy runs offline: beacon inter-arrival, claim churn, and own-echo
// replay (origination times and initial hop budgets are recovered from
// the source's own TX records). Position/speed/stale-timestamp checks
// need the live receive path.
func Replay(records []trace.Record, cfg Config) *Detector {
	d := New(cfg)
	type txKey struct {
		src uint64
		sn  uint16
	}
	type txInfo struct {
		at  time.Duration
		rhl uint8
	}
	monitors := make(map[uint64]*Monitor)
	lastTX := make(map[txKey]txInfo)

	for _, r := range records {
		switch r.Event {
		case trace.EvTX:
			if r.Node == r.Src {
				// The source's own transmission: remember origination
				// time and initial hop budget for the echo check.
				lastTX[txKey{r.Src, r.SN}] = txInfo{at: r.At, rhl: r.RHL}
			}
		case trace.EvRX:
			if r.PType != trace.PTBeacon {
				continue
			}
			m := monitors[r.Node]
			if m == nil {
				m = d.NewMonitor(r.Node)
				monitors[r.Node] = m
			}
			e := m.entry(r.Src)
			if gap, ok := m.beaconGap(e, r.At); ok && gap < d.cfg.MinBeaconGap {
				d.flag(r.At, r.Node, r.Peer, CheckBeacon, func() string {
					return "offline: beacon inter-arrival " + gap.String() + " below floor"
				})
			}
			if m.churn(e, r.At) > d.cfg.ChurnMax {
				d.flag(r.At, r.Node, r.Peer, CheckChurn, func() string {
					return "offline: neighbor-claim churn above window budget"
				})
			}
		case trace.EvDrop:
			if r.Reason != trace.ReasonOwnEcho {
				continue
			}
			if r.PType == trace.PTBeacon {
				d.flag(r.At, r.Node, r.Peer, CheckReplay, func() string {
					return "offline: own beacon echoed back"
				})
				continue
			}
			tx, ok := lastTX[txKey{r.Src, r.SN}]
			if !ok {
				continue
			}
			elapsed := r.At - tx.at
			hops := int(tx.rhl) - int(r.RHL)
			if hops >= 1 && elapsed < time.Duration(hops)*d.cfg.MinHopDelay {
				d.flag(r.At, r.Node, r.Peer, CheckReplay, func() string {
					return "offline: own packet echoed with implausible hop budget"
				})
			}
		}
	}
	return d
}
