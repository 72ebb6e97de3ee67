package experiment

import (
	"testing"

	"github.com/vanetsec/georoute/internal/telemetry"
)

// TestRunOnceTelemetryInert asserts that attaching live gauges changes
// nothing about the simulated outcome: the full serialized result of a
// run with telemetry sampling is identical to one without.
func TestRunOnceTelemetryInert(t *testing.T) {
	s := tinyScenario()
	plain := serializeResult(RunOnce(s, 7, Observe{}))

	reg := telemetry.NewRegistry()
	gauges := telemetry.NewRunGauges(reg, 0)
	observed := RunOnce(s, 7, Observe{Gauges: gauges})
	if got := serializeResult(observed); got != plain {
		t.Errorf("telemetry perturbed the run:\nwith:\n%s\nwithout:\n%s", got, plain)
	}
	// The sampler must actually have published something.
	if gauges.SimSeconds.Value() == 0 {
		t.Error("sampler never published sim time")
	}
	if gauges.EventsTotal.Value() == 0 {
		t.Error("sampler never pushed event counts")
	}
	// Wheel occupancy: a running world always has live events queued
	// (beacon timers, the traffic ticker) at every sample point.
	if gauges.QueueLive.Value() == 0 {
		t.Error("sampler never published wheel occupancy")
	}
	if observed.Events == 0 {
		t.Error("RunResult.Events not populated")
	}
}

// TestFig7aGoldenWithTelemetry is the acceptance check of the telemetry
// PR: the Fig. 7a golden BinSeries (pinned since the linear-scan medium)
// must be reproduced bit-for-bit while gauges sample the run.
func TestFig7aGoldenWithTelemetry(t *testing.T) {
	if testing.Short() {
		t.Skip("full scenario run")
	}
	reg := telemetry.NewRegistry()
	got := serializeResult(RunOnce(fig7aScenario(), 42, Observe{Gauges: telemetry.NewRunGauges(reg, 0)}))
	if got != fig7aGolden {
		t.Errorf("Fig. 7a output diverged under telemetry sampling:\ngot:\n%s\nwant:\n%s", got, fig7aGolden)
	}
}
