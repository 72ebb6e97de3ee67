// End-to-end hot-path benchmarks for the per-hop packet pipeline.
// Where bench_test.go regenerates the paper's figures, these two target
// the simulator's throughput itself and back the numbers recorded in
// BENCH_hotpath.json: run them with -benchmem to see the allocation
// profile of a whole run.
package georoute_test

import (
	"testing"
	"time"

	"github.com/vanetsec/georoute"
)

// BenchmarkFig7aPair is the headline end-to-end pair: one attack-free +
// one attacked Fig. 7a arm per iteration (DSRC, worst-case NLoS attack
// range), the same workload the CI bench smoke and BENCH_radio.json
// track. Broadcast beacons dominate it, so it exercises the decode-once
// fan-out, pooled marshal, and cached HMAC paths together.
func BenchmarkFig7aPair(b *testing.B) {
	s := scaled(georoute.DefaultScenario())
	s.AttackMode = georoute.AttackInterArea
	s.AttackRange = georoute.Range(georoute.DSRC, georoute.NLoSWorst)
	benchAB(b, s, "γ%")
}

// BenchmarkCBFStorm is the forwarding-heavy stress case: dense traffic
// (100 m spawn gap) under the intra-area GeoBroadcast workload with a
// fast packet cadence and no attacker. Every generated packet triggers a
// CBF contention storm — many buffered Forks, timer-driven rebroadcasts,
// and wide fan-outs — so this is the benchmark most sensitive to
// per-forward allocation costs.
func BenchmarkCBFStorm(b *testing.B) {
	s := scaled(georoute.DefaultScenario())
	s.Workload = georoute.IntraArea
	s.Spacing = 100
	s.Duration = 20 * time.Second
	s.Drain = 5 * time.Second
	s.PacketInterval = 500 * time.Millisecond
	var rate float64
	for i := 0; i < b.N; i++ {
		r := georoute.RunOnce(s, uint64(i+1), georoute.Observe{})
		rate = r.Series.Overall()
	}
	b.ReportMetric(100*rate, "reception%")
}

// BenchmarkFig7aPairTelemetry is the same attack-free + attacked Fig. 7a
// pair with a live telemetry registry attached: the engine probe fires
// every 8192 events and publishes ~15 gauge/counter cells. Compare
// against BenchmarkFig7aPair (nil registry, inlined no-op publishes) to
// see the sampling overhead recorded in BENCH_telemetry.json.
func BenchmarkFig7aPairTelemetry(b *testing.B) {
	atk := scaled(georoute.DefaultScenario())
	atk.AttackMode = georoute.AttackInterArea
	atk.AttackRange = georoute.Range(georoute.DSRC, georoute.NLoSWorst)
	af := atk
	af.AttackMode = georoute.AttackNone
	reg := georoute.NewTelemetryRegistry()
	obs := georoute.Observe{Gauges: georoute.NewRunTelemetry(reg, 0)}
	var rate float64
	for i := 0; i < b.N; i++ {
		seed := uint64(i + 1)
		r := georoute.RunOnce(af, seed, obs)
		georoute.RunOnce(atk, seed, obs)
		rate = r.Series.Overall()
	}
	b.ReportMetric(100*rate, "af-reception%")
}
