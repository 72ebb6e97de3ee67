package experiment

import (
	"math"
	"testing"

	"github.com/vanetsec/georoute/internal/attack"
	"github.com/vanetsec/georoute/internal/detect"
	"github.com/vanetsec/georoute/internal/telemetry"
)

// TestFig7aGoldenWithDetection is the acceptance check of the detection
// PR: the Fig. 7a golden BinSeries must be reproduced bit-for-bit while
// the plausibility monitors watch every receive path — detection is a
// pure observer, never a mitigation.
func TestFig7aGoldenWithDetection(t *testing.T) {
	if testing.Short() {
		t.Skip("full scenario run")
	}
	reg := telemetry.NewRegistry()
	res := RunOnce(fig7aScenario(), 42, Observe{
		Detect: true,
		Gauges: telemetry.NewRunGauges(reg, 0),
	})
	if got := serializeResult(res); got != fig7aGolden {
		t.Errorf("Fig. 7a output diverged under detection:\ngot:\n%s\nwant:\n%s", got, fig7aGolden)
	}
	if res.Detection == nil || !res.Detection.Detected {
		t.Fatalf("hijack arm not detected: %+v", res.Detection)
	}
	// The shared detection histograms must have been fed.
	g := telemetry.NewRunGauges(reg, 0)
	if g.DetectLatency.Count() == 0 {
		t.Error("detection latency histogram empty")
	}
	if g.DetectBeaconGap.Count() == 0 {
		t.Error("beacon inter-arrival histogram empty")
	}
}

// TestDetectHistogramFold pins the detection histograms of one fixed
// attacked run to the values observing every claim straight into the
// shared histogram produced: the monitors now stage observations in
// plain per-monitor counts and fold them in when the runner takes the
// detector's Summary. Cumulative bucket counts must match exactly; the
// sums, added in a different order, within 1e-9 relative.
func TestDetectHistogramFold(t *testing.T) {
	s := tinyScenario()
	s.AttackMode = attack.InterArea
	reg := telemetry.NewRegistry()
	RunOnce(s, 3, Observe{Detect: true, Gauges: telemetry.NewRunGauges(reg, 0)})

	want := map[string]struct {
		cum []float64
		sum float64
	}{
		"georoute_detect_beacon_gap_seconds": {
			cum: []float64{0, 0, 10623, 10623, 10623, 10623, 10623, 10623, 68331, 68331, 68331, 68331, 68331},
			sum: 194540.02823843533,
		},
		"georoute_detect_position_error_meters": {
			cum: []float64{0, 21, 22, 36, 36, 36, 36, 36, 36, 36, 36},
			sum: 300.78821847936547,
		},
	}
	got := make(map[string][]float64)
	sums := make(map[string]float64)
	for _, smp := range reg.Snapshot() {
		for name := range want {
			switch smp.Name {
			case name + "_bucket":
				got[name] = append(got[name], smp.Value)
			case name + "_sum":
				sums[name] = smp.Value
			}
		}
	}
	for name, w := range want {
		if len(got[name]) != len(w.cum) {
			t.Fatalf("%s: %d buckets, want %d", name, len(got[name]), len(w.cum))
		}
		for i := range w.cum {
			if got[name][i] != w.cum[i] {
				t.Errorf("%s bucket %d = %v, want %v", name, i, got[name][i], w.cum[i])
			}
		}
		if d := math.Abs(sums[name] - w.sum); d > 1e-9*w.sum {
			t.Errorf("%s_sum = %.17g, want %.17g within 1e-9 relative", name, sums[name], w.sum)
		}
	}
}

// TestDetectionOffLeavesResultUntouched: the Detect switch itself (not
// just a nil monitor) must not perturb the run, and a detection-off run
// carries no Detection summary.
func TestDetectionOffLeavesResultUntouched(t *testing.T) {
	s := tinyScenario()
	plain := RunOnce(s, 7, Observe{})
	detected := RunOnce(s, 7, Observe{Detect: true})
	if got, want := serializeResult(detected), serializeResult(plain); got != want {
		t.Errorf("detection perturbed the run:\nwith:\n%s\nwithout:\n%s", got, want)
	}
	if plain.Detection != nil {
		t.Error("detection-off run has a Detection summary")
	}
	if detected.Detection == nil {
		t.Error("detection-on run lost its Detection summary")
	}
}

// TestDetectionBenignZeroFalsePositives is the zero-FP budget: across
// every attack-free arm of Fig. 7a and Fig. 9a, over several seeds, the
// default thresholds must produce not a single verdict.
func TestDetectionBenignZeroFalsePositives(t *testing.T) {
	if testing.Short() {
		t.Skip("full scenario runs")
	}
	for _, name := range []string{"fig7a", "fig9a"} {
		fig := Figures()[name]
		for _, arm := range fig.Arms {
			if arm.Scenario.AttackMode != 0 {
				continue
			}
			seeds := []uint64{arm.Scenario.Seed, arm.Scenario.Seed + 1}
			if name == "fig9a" {
				seeds = seeds[:1] // fig9a runs are the slow ones
			}
			for _, seed := range seeds {
				res := RunOnce(arm.Scenario, seed, Observe{Detect: true})
				if s := res.Detection; s.Verdicts != 0 || s.Detected {
					t.Errorf("%s/%s seed %d: benign arm raised %d verdicts (checks %v)",
						name, arm.Label, seed, s.Verdicts, s.Checks)
				}
			}
		}
	}
}

// TestDetectionAttackArmsDetected: every attack arm of both figures must
// be detected at default thresholds, and every check except the
// churn monitor (whose suspect attribution is inherently ambiguous when
// direct and replayed copies interleave) must have perfect precision.
func TestDetectionAttackArmsDetected(t *testing.T) {
	if testing.Short() {
		t.Skip("full scenario runs")
	}
	for _, name := range []string{"fig7a", "fig9a"} {
		fig := Figures()[name]
		for _, arm := range fig.Arms {
			if arm.Scenario.AttackMode == 0 {
				continue
			}
			res := RunOnce(arm.Scenario, arm.Scenario.Seed, Observe{Detect: true})
			s := res.Detection
			if !s.Detected {
				t.Errorf("%s/%s: attack arm not detected", name, arm.Label)
				continue
			}
			if s.LatencySeconds <= 0 {
				t.Errorf("%s/%s: detected but latency %v", name, arm.Label, s.LatencySeconds)
			}
			for check, cs := range s.Checks {
				if check == detect.CheckChurn.String() {
					continue
				}
				if cs.FalsePositives != 0 {
					t.Errorf("%s/%s: check %s blamed honest nodes %d times",
						name, arm.Label, check, cs.FalsePositives)
				}
			}
		}
	}
}
