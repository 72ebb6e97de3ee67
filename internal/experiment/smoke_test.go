package experiment

import (
	"testing"
	"time"

	"github.com/vanetsec/georoute/internal/attack"
	"github.com/vanetsec/georoute/internal/radio"
)

// quickScenario shrinks the default scenario for fast tests: 60 s runs on
// the full 4,000 m road.
func quickScenario() Scenario {
	s := Default()
	s.Duration = 60 * time.Second
	s.Drain = 20 * time.Second
	return s
}

func TestSmokeInterAreaAttackFree(t *testing.T) {
	s := quickScenario()
	res := RunOnce(s, 1, Observe{})
	if res.PacketsSent < 50 {
		t.Fatalf("PacketsSent = %d, want ~60", res.PacketsSent)
	}
	rate := res.Series.Overall()
	t.Logf("attack-free inter-area reception = %.3f (%d packets)", rate, res.PacketsSent)
	if rate < 0.5 {
		t.Fatalf("attack-free GF reception %.3f is implausibly low", rate)
	}
}

func TestSmokeInterAreaAttack(t *testing.T) {
	s := quickScenario()
	s.AttackMode = attack.InterArea
	s.AttackRange = radio.Range(radio.DSRC, radio.NLoSWorst)
	ab := RunAB(s, 2)
	gamma := ab.DropRate()
	t.Logf("wN attack: free=%.3f attacked=%.3f gamma=%.3f",
		ab.Free.Overall(), ab.Attacked.Overall(), gamma)
	if gamma < 0.15 {
		t.Fatalf("interception rate %.3f too low — attack ineffective", gamma)
	}

	s.AttackRange = radio.Range(radio.DSRC, radio.LoSMedian)
	ab = RunAB(s, 2)
	gammaML := ab.DropRate()
	t.Logf("mL attack: free=%.3f attacked=%.3f gamma=%.3f",
		ab.Free.Overall(), ab.Attacked.Overall(), gammaML)
	if gammaML < 0.9 {
		t.Fatalf("mL interception rate %.3f, want near-total interception", gammaML)
	}
	if gammaML <= gamma {
		t.Fatalf("larger attack range must intercept more: wN %.3f vs mL %.3f", gamma, gammaML)
	}
}

func TestSmokeIntraAreaAttackFree(t *testing.T) {
	s := quickScenario()
	s.Workload = IntraArea
	res := RunOnce(s, 1, Observe{})
	rate := res.Series.Overall()
	t.Logf("attack-free intra-area reception = %.3f (%d packets)", rate, res.PacketsSent)
	if rate < 0.95 {
		t.Fatalf("attack-free CBF reception %.3f, want ~1.0 (paper: ~100%%)", rate)
	}
}

func TestSmokeIntraAreaAttack(t *testing.T) {
	s := quickScenario()
	s.Workload = IntraArea
	s.AttackMode = attack.IntraArea
	s.AttackRange = radio.Range(radio.DSRC, radio.NLoSMedian)
	ab := RunAB(s, 2)
	lambda := ab.DropRate()
	t.Logf("mN blockage: free=%.3f attacked=%.3f lambda=%.3f",
		ab.Free.Overall(), ab.Attacked.Overall(), lambda)
	if lambda < 0.2 || lambda > 0.55 {
		t.Fatalf("blockage rate %.3f outside plausible band around the paper's ~38%%", lambda)
	}
}
