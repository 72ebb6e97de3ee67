package experiment

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/vanetsec/georoute/internal/attack"
)

// fig7aScenario is the paper's default Fig. 7a arm (DSRC, NLoS-worst
// attack range) at the benchmark scale: 40 s of generation + 15 s drain.
func fig7aScenario() Scenario {
	s := Default()
	s.Duration = 40 * time.Second
	s.Drain = 15 * time.Second
	s.AttackMode = attack.InterArea
	return s
}

// serializeResult renders a RunResult to a canonical string: packet
// count, attacker counters, and every bin's (count, rate) pair at full
// float precision. Two runs are bit-identical iff the strings match.
func serializeResult(r RunResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "packets=%d\n", r.PacketsSent)
	fmt.Fprintf(&b, "attacker=%+v\n", r.AttackerStats)
	for i := 0; i < r.Series.Bins(); i++ {
		rate, ok := r.Series.Rate(i)
		fmt.Fprintf(&b, "bin%02d n=%d ok=%v rate=%s\n",
			i, r.Series.Count(i), ok, strconv.FormatFloat(rate, 'g', -1, 64))
	}
	return b.String()
}

// fig7aGolden is the serialized BinSeries of RunOnce(fig7aScenario(), 42)
// captured from the pre-index linear-scan medium. The spatial index must
// reproduce it bit-for-bit: the paper figures depend on the receiver
// sets and edge-hash outcomes being unchanged.
const fig7aGolden = `packets=40
attacker={BeaconsCaptured:1064 BeaconsReplayed:1064 PacketsCaptured:0 PacketsReplayed:0 DecodeErrors:0}
bin00 n=4 ok=true rate=0.25
bin01 n=5 ok=true rate=0
bin02 n=5 ok=true rate=0.4
bin03 n=5 ok=true rate=0
bin04 n=5 ok=true rate=0
bin05 n=5 ok=true rate=0.4
bin06 n=5 ok=true rate=0
bin07 n=6 ok=true rate=0
`

func TestFig7aDeterminismGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full scenario run")
	}
	got := serializeResult(RunOnce(fig7aScenario(), 42, Observe{}))
	if got != fig7aGolden {
		t.Errorf("Fig. 7a output diverged from the linear-scan baseline:\ngot:\n%s\nwant:\n%s", got, fig7aGolden)
	}
}

// TestRunOnceRunToRunDeterminism asserts same seed ⇒ same output without
// referencing the golden, so it also guards future refactors.
func TestRunOnceRunToRunDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full scenario run")
	}
	s := fig7aScenario()
	s.Duration = 20 * time.Second
	s.Drain = 10 * time.Second
	a := serializeResult(RunOnce(s, 7, Observe{}))
	b := serializeResult(RunOnce(s, 7, Observe{}))
	if a != b {
		t.Errorf("same-seed runs diverge:\n%s\nvs:\n%s", a, b)
	}
}

// fig9aGolden is the serialized BinSeries of the registry's Fig. 9a
// atk_mL cell at its base seed: a full 200 s intra-area run whose per-bin
// rates average fractional per-packet reception, so they depend on the
// order the packets are folded in.
const fig9aGolden = `packets=200
attacker={BeaconsCaptured:0 BeaconsReplayed:0 PacketsCaptured:424 PacketsReplayed:200 DecodeErrors:0}
bin00 n=4 ok=true rate=0.8184423322457086
bin01 n=5 ok=true rate=0.7833252943679955
bin02 n=5 ok=true rate=0.7451803666469544
bin03 n=5 ok=true rate=0.746268656716418
bin04 n=5 ok=true rate=0.7746268656716419
bin05 n=5 ok=true rate=0.7442379182156135
bin06 n=5 ok=true rate=0.7405204460966542
bin07 n=5 ok=true rate=0.779182156133829
bin08 n=5 ok=true rate=0.7405204460966542
bin09 n=5 ok=true rate=0.8178438661710038
bin10 n=5 ok=true rate=0.7060478277756201
bin11 n=5 ok=true rate=0.6753731343283581
bin12 n=5 ok=true rate=0.7824333389233609
bin13 n=5 ok=true rate=0.8185886063473289
bin14 n=5 ok=true rate=0.7105263157894737
bin15 n=5 ok=true rate=0.819488279016581
bin16 n=5 ok=true rate=0.752851711026616
bin17 n=5 ok=true rate=0.7534351145038167
bin18 n=5 ok=true rate=0.7924687783334795
bin19 n=5 ok=true rate=0.7611671087533157
bin20 n=5 ok=true rate=0.7641015741015741
bin21 n=5 ok=true rate=0.7584059142198677
bin22 n=5 ok=true rate=0.7910686815672789
bin23 n=5 ok=true rate=0.785849343385214
bin24 n=5 ok=true rate=0.765625
bin25 n=5 ok=true rate=0.8101960784313725
bin26 n=5 ok=true rate=0.7662868612011734
bin27 n=5 ok=true rate=0.7740344215866297
bin28 n=5 ok=true rate=0.7594171528954138
bin29 n=5 ok=true rate=0.7280338961613861
bin30 n=5 ok=true rate=0.7569721115537849
bin31 n=5 ok=true rate=0.7888
bin32 n=5 ok=true rate=0.763855421686747
bin33 n=5 ok=true rate=0.7317301463920197
bin34 n=5 ok=true rate=0.7686757215619695
bin35 n=5 ok=true rate=0.754251012145749
bin36 n=5 ok=true rate=0.7598805375808859
bin37 n=5 ok=true rate=0.7205319504851121
bin38 n=5 ok=true rate=0.7819672131147541
bin39 n=6 ok=true rate=0.7375531268973893
`

// TestFig9aDeterminismGolden pins the intra-area fold order: RunOnce must
// fold per-packet reception fractions in send order, so two runs of the
// same cell agree with each other and with the golden to the last bit.
func TestFig9aDeterminismGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full scenario run")
	}
	s, ok := Figures()["fig9a"].Arm("atk_mL")
	if !ok {
		t.Fatal("fig9a has no atk_mL arm")
	}
	for i := 0; i < 2; i++ {
		if got := serializeResult(RunOnce(s, s.Seed, Observe{})); got != fig9aGolden {
			t.Fatalf("run %d: Fig. 9a output diverged from the golden:\ngot:\n%s\nwant:\n%s", i, got, fig9aGolden)
		}
	}
}
