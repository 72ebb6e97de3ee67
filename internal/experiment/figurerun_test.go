package experiment_test

import (
	"context"
	"testing"
	"time"

	"github.com/vanetsec/georoute/internal/attack"
	"github.com/vanetsec/georoute/internal/campaign"
	"github.com/vanetsec/georoute/internal/experiment"
	"github.com/vanetsec/georoute/internal/radio"
)

// abFigure builds a hand-made two-arm figure: an attack-free arm and an
// inter-area arm under an mL attacker, paired as "p".
func abFigure(id string, s experiment.Scenario) experiment.Figure {
	s.AttackMode = attack.InterArea
	s.AttackRange = radio.Range(radio.DSRC, radio.LoSMedian)
	free := s
	free.AttackMode = attack.None
	return experiment.Figure{
		ID:    id,
		Title: id,
		Arms: []experiment.Arm{
			{Label: "af", Scenario: free},
			{Label: "atk", Scenario: s},
		},
		Pairs: []experiment.Pair{{Label: "p", Free: "af", Attacked: "atk", PaperDrop: -1}},
	}
}

// runFigure runs a figure the one way figures run: as a journal-less
// campaign of its cells.
func runFigure(t *testing.T, fig experiment.Figure, runs int) experiment.FigureResult {
	t.Helper()
	res, err := campaign.RunFigure(context.Background(), fig, runs, campaign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFigureRunSmall(t *testing.T) {
	// End-to-end check of the figure runner on a scaled-down custom
	// figure: series lengths, drops and accumulated drops all populated.
	s := experiment.Default()
	s.Duration = 30 * time.Second
	s.Drain = 10 * time.Second
	res := runFigure(t, abFigure("scaled", s), 1)
	if len(res.Rates["af"]) != 6 || len(res.Rates["atk"]) != 6 {
		t.Fatalf("rates have %d/%d bins, want 6", len(res.Rates["af"]), len(res.Rates["atk"]))
	}
	if res.Overall["af"] <= res.Overall["atk"] {
		t.Fatalf("af %.2f should exceed atk %.2f under an mL attacker",
			res.Overall["af"], res.Overall["atk"])
	}
	if d := res.Drops["p"]; d < 0.8 {
		t.Fatalf("mL drop = %v, want near-total interception", d)
	}
	if len(res.AccumDrops["p"]) != 6 {
		t.Fatalf("accumulated drops missing")
	}
}

func TestFigureRunReportsSpread(t *testing.T) {
	s := experiment.Default()
	s.Duration = 10 * time.Second
	s.Drain = 5 * time.Second
	res := runFigure(t, abFigure("spread", s), 2)
	if res.Runs != 2 {
		t.Fatalf("Runs = %d", res.Runs)
	}
	for _, arm := range []string{"af", "atk"} {
		if res.ArmSpread[arm].Runs != 2 {
			t.Errorf("%s: ArmSpread.Runs = %d", arm, res.ArmSpread[arm].Runs)
		}
		if res.Packets[arm] == 0 {
			t.Errorf("%s: no packets recorded", arm)
		}
	}
	if res.DropSpread["p"].Runs != 2 {
		t.Errorf("DropSpread.Runs = %d", res.DropSpread["p"].Runs)
	}
	if res.Attacker["atk"].BeaconsReplayed == 0 {
		t.Error("attacked arm recorded no attacker activity")
	}
	if res.Attacker["af"].BeaconsReplayed != 0 {
		t.Error("attack-free arm recorded attacker activity")
	}
}
