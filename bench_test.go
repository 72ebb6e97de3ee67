// Benchmarks that regenerate every table and figure of the paper's
// evaluation at reduced scale (40 s runs, one seed per iteration; the
// full-fidelity 200 s × N-run versions are driven by cmd/geosim).
//
// Each benchmark reports the figure's headline statistic as a custom
// metric: γ/100pkt (inter-area interception rate), λ/100pkt (intra-area
// blockage rate), or reception rates — so `go test -bench .` prints a
// compact paper-shaped summary next to the timing.
package georoute_test

import (
	"testing"
	"time"

	"github.com/vanetsec/georoute"
)

// scaled shrinks the paper's 200 s default run for benchmarking.
func scaled(s georoute.Scenario) georoute.Scenario {
	s.Duration = 40 * time.Second
	s.Drain = 15 * time.Second
	return s
}

// benchAB runs one attack-free/attacked pair per iteration and reports
// the measured drop rate.
func benchAB(b *testing.B, s georoute.Scenario, metric string) {
	b.Helper()
	var drop float64
	for i := 0; i < b.N; i++ {
		s.Seed = uint64(i + 1)
		ab := georoute.RunAB(s, 1)
		drop = ab.DropRate()
	}
	b.ReportMetric(100*drop, metric)
}

// --- Table I / Table II: configuration-level checks --------------------

func BenchmarkTableI_IDMStep(b *testing.B) {
	// The IDM substrate itself: one full traffic step of the default road
	// per iteration (Table I parameters).
	s := scaled(georoute.DefaultScenario())
	s.Duration = 10 * time.Second
	s.Drain = 0
	s.PacketInterval = time.Hour // traffic only
	for i := 0; i < b.N; i++ {
		georoute.RunOnce(s, uint64(i+1), georoute.Observe{})
	}
}

func BenchmarkTableII_Ranges(b *testing.B) {
	var sum float64
	for i := 0; i < b.N; i++ {
		for _, t := range []georoute.Technology{georoute.DSRC, georoute.CV2X} {
			for _, c := range []georoute.RangeClass{georoute.LoSMedian, georoute.NLoSMedian, georoute.NLoSWorst} {
				sum += georoute.Range(t, c)
			}
		}
	}
	if sum == 0 {
		b.Fatal("ranges missing")
	}
}

// --- Figure 7: inter-area interception ---------------------------------

func BenchmarkFig7a_DSRC_wN(b *testing.B) {
	s := scaled(georoute.DefaultScenario())
	s.AttackMode = georoute.AttackInterArea
	s.AttackRange = georoute.Range(georoute.DSRC, georoute.NLoSWorst)
	benchAB(b, s, "γ%")
}

func BenchmarkFig7a_DSRC_mL(b *testing.B) {
	s := scaled(georoute.DefaultScenario())
	s.AttackMode = georoute.AttackInterArea
	s.AttackRange = georoute.Range(georoute.DSRC, georoute.LoSMedian)
	benchAB(b, s, "γ%")
}

func BenchmarkFig7b_CV2X_wN(b *testing.B) {
	s := scaled(georoute.DefaultScenario())
	s.Tech = georoute.CV2X
	s.AttackMode = georoute.AttackInterArea
	s.AttackRange = georoute.Range(georoute.CV2X, georoute.NLoSWorst)
	benchAB(b, s, "γ%")
}

func BenchmarkFig7c_TTL5s(b *testing.B) {
	s := scaled(georoute.DefaultScenario())
	s.LocTTTL = 5 * time.Second
	s.AttackMode = georoute.AttackInterArea
	benchAB(b, s, "γ%")
}

func BenchmarkFig7d_Spacing100m(b *testing.B) {
	s := scaled(georoute.DefaultScenario())
	s.Spacing = 100
	s.AttackMode = georoute.AttackInterArea
	benchAB(b, s, "γ%")
}

func BenchmarkFig7e_TwoWay(b *testing.B) {
	s := scaled(georoute.DefaultScenario())
	s.TwoWay = true
	s.AttackMode = georoute.AttackInterArea
	benchAB(b, s, "γ%")
}

// --- Figure 8: accumulated interception over time ----------------------

func BenchmarkFig8_Accumulated(b *testing.B) {
	s := scaled(georoute.DefaultScenario())
	s.AttackMode = georoute.AttackInterArea
	var final float64
	for i := 0; i < b.N; i++ {
		s.Seed = uint64(i + 1)
		ab := georoute.RunAB(s, 1)
		acc := ab.AccumulatedDrop()
		final = acc[len(acc)-1]
	}
	b.ReportMetric(100*final, "γ_acc%")
}

// --- Figure 9: intra-area blockage --------------------------------------

func intraScaled() georoute.Scenario {
	s := scaled(georoute.DefaultScenario())
	s.Workload = georoute.IntraArea
	s.Drain = 10 * time.Second
	return s
}

func BenchmarkFig9a_DSRC_mN(b *testing.B) {
	s := intraScaled()
	s.AttackMode = georoute.AttackIntraArea
	s.AttackRange = georoute.Range(georoute.DSRC, georoute.NLoSMedian)
	benchAB(b, s, "λ%")
}

func BenchmarkFig9a_DSRC_mL(b *testing.B) {
	// The paper's crossover: a LONGER attack range is LESS effective.
	s := intraScaled()
	s.AttackMode = georoute.AttackIntraArea
	s.AttackRange = georoute.Range(georoute.DSRC, georoute.LoSMedian)
	benchAB(b, s, "λ%")
}

func BenchmarkFig9b_CV2X_mN(b *testing.B) {
	s := intraScaled()
	s.Tech = georoute.CV2X
	s.AttackMode = georoute.AttackIntraArea
	s.AttackRange = georoute.Range(georoute.CV2X, georoute.NLoSMedian)
	benchAB(b, s, "λ%")
}

func BenchmarkFig9c_TTL5s(b *testing.B) {
	s := intraScaled()
	s.LocTTTL = 5 * time.Second
	s.AttackMode = georoute.AttackIntraArea
	s.AttackRange = georoute.Range(georoute.DSRC, georoute.NLoSMedian)
	benchAB(b, s, "λ%")
}

func BenchmarkFig9d_Spacing100m(b *testing.B) {
	s := intraScaled()
	s.Spacing = 100
	s.AttackMode = georoute.AttackIntraArea
	s.AttackRange = georoute.Range(georoute.DSRC, georoute.NLoSMedian)
	benchAB(b, s, "λ%")
}

func BenchmarkFig9e_TwoWay(b *testing.B) {
	s := intraScaled()
	s.TwoWay = true
	s.AttackMode = georoute.AttackIntraArea
	s.AttackRange = georoute.Range(georoute.DSRC, georoute.NLoSMedian)
	benchAB(b, s, "λ%")
}

func BenchmarkFig9_Range500m(b *testing.B) {
	// §IV-A text: 500 m is the most effective attack range.
	s := intraScaled()
	s.AttackMode = georoute.AttackIntraArea
	s.AttackRange = 500
	benchAB(b, s, "λ%")
}

// --- Figure 10: accumulated blockage over time ---------------------------

func BenchmarkFig10_Accumulated(b *testing.B) {
	s := intraScaled()
	s.AttackMode = georoute.AttackIntraArea
	s.AttackRange = georoute.Range(georoute.DSRC, georoute.NLoSMedian)
	var final float64
	for i := 0; i < b.N; i++ {
		s.Seed = uint64(i + 1)
		ab := georoute.RunAB(s, 1)
		acc := ab.AccumulatedDrop()
		final = acc[len(acc)-1]
	}
	b.ReportMetric(100*final, "λ_acc%")
}

// --- Figure 12: traffic-efficiency showcases ----------------------------

func BenchmarkFig12a_HazardGF(b *testing.B) {
	var jamGrowth float64
	for i := 0; i < b.N; i++ {
		af := georoute.RunHazard(georoute.HazardConfig{
			Case: georoute.CaseGF, Seed: uint64(i + 2), Duration: 150 * time.Second,
		})
		atk := georoute.RunHazard(georoute.HazardConfig{
			Case: georoute.CaseGF, Attacked: true, Seed: uint64(i + 2), Duration: 150 * time.Second,
		})
		jamGrowth = float64(atk.VehicleCount[len(atk.VehicleCount)-1] -
			af.VehicleCount[len(af.VehicleCount)-1])
	}
	b.ReportMetric(jamGrowth, "extra_vehicles")
}

func BenchmarkFig12b_HazardCBF(b *testing.B) {
	var jamGrowth float64
	for i := 0; i < b.N; i++ {
		af := georoute.RunHazard(georoute.HazardConfig{
			Case: georoute.CaseCBF, Seed: uint64(i + 2), Duration: 150 * time.Second,
		})
		atk := georoute.RunHazard(georoute.HazardConfig{
			Case: georoute.CaseCBF, Attacked: true, Seed: uint64(i + 2), Duration: 150 * time.Second,
		})
		jamGrowth = float64(atk.VehicleCount[len(atk.VehicleCount)-1] -
			af.VehicleCount[len(af.VehicleCount)-1])
	}
	b.ReportMetric(jamGrowth, "extra_vehicles")
}

// --- Figure 13: road-safety showcase -------------------------------------

func BenchmarkFig13_CurveCollision(b *testing.B) {
	collisions := 0
	for i := 0; i < b.N; i++ {
		af := georoute.RunCurve(georoute.CurveConfig{Seed: uint64(i + 1)})
		atk := georoute.RunCurve(georoute.CurveConfig{Seed: uint64(i + 1), Attacked: true})
		if af.Collision {
			b.Fatal("collision in the attack-free run")
		}
		if atk.Collision {
			collisions++
		}
	}
	b.ReportMetric(float64(collisions)/float64(b.N), "collision_rate")
}

// --- Figure 14: mitigations ----------------------------------------------

func BenchmarkFig14a_Plausibility(b *testing.B) {
	s := scaled(georoute.DefaultScenario())
	s.AttackMode = georoute.AttackInterArea
	s.AttackRange = georoute.Range(georoute.DSRC, georoute.NLoSMedian)
	var restored float64
	for i := 0; i < b.N; i++ {
		s.Seed = uint64(i + 1)
		s.PlausibilityThreshold = 0
		attacked := georoute.RunArm(s, 1)
		s.PlausibilityThreshold = georoute.Range(georoute.DSRC, georoute.NLoSMedian)
		defended := georoute.RunArm(s, 1)
		restored = defended.Series.Overall() - attacked.Series.Overall()
	}
	b.ReportMetric(100*restored, "restored_pts")
}

func BenchmarkFig14b_RHLDropCheck(b *testing.B) {
	s := intraScaled()
	s.AttackMode = georoute.AttackIntraArea
	s.AttackRange = georoute.Range(georoute.DSRC, georoute.NLoSMedian)
	var restored float64
	for i := 0; i < b.N; i++ {
		s.Seed = uint64(i + 1)
		s.RHLMaxDrop = 0
		attacked := georoute.RunArm(s, 1)
		s.RHLMaxDrop = georoute.DefaultRHLMaxDrop
		defended := georoute.RunArm(s, 1)
		restored = defended.Series.Overall() - attacked.Series.Overall()
	}
	b.ReportMetric(100*restored, "restored_pts")
}

// --- Ablations (DESIGN.md) ------------------------------------------------

func BenchmarkAblationAttackerDelay5ms(b *testing.B) {
	// DESIGN ablation 1: a slow attacker loses the CBF contention race.
	s := intraScaled()
	s.AttackMode = georoute.AttackIntraArea
	s.AttackRange = georoute.Range(georoute.DSRC, georoute.NLoSMedian)
	s.AttackerDelay = 5 * time.Millisecond
	benchAB(b, s, "λ%")
}

func BenchmarkAblationMaxHop10(b *testing.B) {
	// DESIGN ablation 3: the paper's example RHL of 10 vs our default 32.
	s := intraScaled()
	s.MaxHopLimit = 10
	s.AttackMode = georoute.AttackIntraArea
	s.AttackRange = georoute.Range(georoute.DSRC, georoute.NLoSMedian)
	benchAB(b, s, "λ%")
}
