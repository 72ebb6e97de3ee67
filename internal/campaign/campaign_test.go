package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/vanetsec/georoute/internal/attack"
	"github.com/vanetsec/georoute/internal/experiment"
	"github.com/vanetsec/georoute/internal/metrics"
	"github.com/vanetsec/georoute/internal/showcase"
	"github.com/vanetsec/georoute/internal/telemetry"
)

func fig7aSpec(name string, runs int) Spec {
	return Spec{Name: name, Runs: runs, Figures: []string{"fig7a"}}
}

func TestSpecValidate(t *testing.T) {
	for _, bad := range []Spec{
		{Runs: 1, Figures: []string{"fig7a"}},                 // no name
		{Name: "a/b", Runs: 1, Figures: []string{"fig7a"}},    // path in name
		{Name: "x", Runs: 1, Figures: []string{"no-such-id"}}, // unknown figure
		{Name: "x", Runs: 1},                                  // no cells at all
	} {
		sp := bad
		if err := sp.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", bad)
		}
	}
	sp := Spec{Name: "ok", Figures: []string{"fig7a"}}
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	if sp.Runs != 1 {
		t.Fatalf("Runs not defaulted: %d", sp.Runs)
	}
}

func TestSpecCellsEnumeration(t *testing.T) {
	sp := Spec{Name: "x", Runs: 2, Figures: []string{"fig7a"}, HazardSeeds: 2, Curve: true}
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	cells, err := sp.Cells()
	if err != nil {
		t.Fatal(err)
	}
	arms := len(experiment.Figures()["fig7a"].Arms)
	want := arms*2 + /*hazard*/ 2*2*2 + /*curve*/ 2
	if len(cells) != want {
		t.Fatalf("enumerated %d cells, want %d", len(cells), want)
	}
	seen := make(map[string]bool)
	for _, c := range cells {
		if seen[c.Key()] {
			t.Fatalf("duplicate key %s", c.Key())
		}
		seen[c.Key()] = true
	}
	if !seen["fig12a/af/1"] || !seen["fig12b/atk/2"] || !seen["fig13/af/1"] {
		t.Fatal("showcase cells missing")
	}
	// "all" resolves to the whole registry.
	all := Spec{Name: "x", Runs: 1, Figures: []string{"all"}}
	ids, err := all.figureIDs()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != len(experiment.FigureIDs()) {
		t.Fatalf("all resolved to %d figures", len(ids))
	}
}

func TestSpecHashStable(t *testing.T) {
	a := fig7aSpec("x", 2)
	b := fig7aSpec("x", 2)
	if a.Hash() != b.Hash() {
		t.Fatal("identical specs hash differently")
	}
	c := fig7aSpec("x", 3)
	if a.Hash() == c.Hash() {
		t.Fatal("different runs count must change the hash")
	}
}

// syntheticResult builds a random but shape-correct RunResult for a
// fig7a-family cell.
func syntheticResult(rng *rand.Rand) CellResult {
	s := metrics.NewBinSeries(200*time.Second, 5*time.Second)
	for i := 0; i < 50+rng.IntN(100); i++ {
		s.Add(time.Duration(rng.IntN(200))*time.Second, rng.Float64())
	}
	return CellResult{Run: &experiment.RunResult{
		Series:        s,
		PacketsSent:   50 + rng.IntN(100),
		AttackerStats: attack.Stats{BeaconsReplayed: uint64(rng.IntN(1000))},
	}}
}

func TestJournalRoundTripProperty(t *testing.T) {
	// Property: for random result payloads, writing a journal and
	// replaying it recovers every cell exactly (series bit-for-bit).
	for trial := 0; trial < 5; trial++ {
		rng := rand.New(rand.NewPCG(uint64(trial), 99))
		sp := fig7aSpec("prop", 3)
		if err := sp.Validate(); err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		path := filepath.Join(dir, "journal.jsonl")
		j, replayed, err := OpenJournal(path, sp)
		if err != nil {
			t.Fatal(err)
		}
		if len(replayed) != 0 {
			t.Fatal("fresh journal replayed cells")
		}
		cells, _ := sp.Cells()
		// Record a random subset in a random order.
		perm := rng.Perm(len(cells))
		n := 1 + rng.IntN(len(cells))
		want := make(map[string]CellResult, n)
		for _, i := range perm[:n] {
			res := syntheticResult(rng)
			want[cells[i].Key()] = res
			if err := j.Record(cells[i].Key(), res); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		j2, got, err := OpenJournal(path, sp)
		if err != nil {
			t.Fatal(err)
		}
		j2.Close()
		if len(got) != len(want) {
			t.Fatalf("trial %d: replayed %d cells, want %d", trial, len(got), len(want))
		}
		for k, w := range want {
			g, ok := got[k]
			if !ok {
				t.Fatalf("trial %d: %s missing from replay", trial, k)
			}
			if !reflect.DeepEqual(g.Run.Series, w.Run.Series) ||
				g.Run.PacketsSent != w.Run.PacketsSent ||
				g.Run.AttackerStats != w.Run.AttackerStats {
				t.Fatalf("trial %d: %s replayed differently", trial, k)
			}
		}
	}
}

func TestJournalTornTailRecovery(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	sp := fig7aSpec("torn", 1)
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	j, _, err := OpenJournal(path, sp)
	if err != nil {
		t.Fatal(err)
	}
	cells, _ := sp.Cells()
	if err := j.Record(cells[0].Key(), syntheticResult(rng)); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Simulate a hard kill mid-append: a torn, newline-less JSON prefix.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"type":"cell","key":"fig7a/atk_wN/1","result":{"run":{"packets`)
	f.Close()

	j2, replayed, err := OpenJournal(path, sp)
	if err != nil {
		t.Fatalf("torn journal rejected: %v", err)
	}
	if len(replayed) != 1 {
		t.Fatalf("replayed %d cells, want 1 (torn tail discarded)", len(replayed))
	}
	// The truncated tail must be overwritten cleanly by the next append.
	if err := j2.Record(cells[1].Key(), syntheticResult(rng)); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	_, replayed, err = OpenJournal(path, sp)
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != 2 {
		t.Fatalf("after recovery replayed %d cells, want 2", len(replayed))
	}
}

func TestJournalTornHeaderRecovery(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 2))
	sp := fig7aSpec("tornhead", 1)
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	cells, _ := sp.Cells()
	for _, tc := range []struct {
		name    string
		content string
	}{
		// A hard kill during the very first append leaves a newline-less
		// JSON prefix of the header itself.
		{"torn mid-write", `{"type":"header","campaign":"tornhead","spec_ha`},
		// Header-line corruption: complete line, unreadable JSON.
		{"corrupt json", "{\"type\":\x00garbage\n"},
		// A complete, valid line that is not a header (no spec anchor).
		{"wrong type", `{"type":"cell","key":"fig7a/af_mN/1"}` + "\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "journal.jsonl")
			if err := os.WriteFile(path, []byte(tc.content), 0o644); err != nil {
				t.Fatal(err)
			}
			j, replayed, err := OpenJournal(path, sp)
			if err != nil {
				t.Fatalf("torn header wedged the journal: %v", err)
			}
			if len(replayed) != 0 {
				t.Fatalf("replayed %d cells from an unreadable journal", len(replayed))
			}
			// The unreadable bytes are preserved for forensics…
			backup, err := os.ReadFile(path + ".corrupt")
			if err != nil {
				t.Fatalf("no backup of the corrupt journal: %v", err)
			}
			if string(backup) != tc.content {
				t.Fatal("backup does not hold the original bytes")
			}
			// …and the fresh journal works end to end.
			if err := j.Record(cells[0].Key(), syntheticResult(rng)); err != nil {
				t.Fatal(err)
			}
			j.Close()
			j2, replayed, err := OpenJournal(path, sp)
			if err != nil {
				t.Fatal(err)
			}
			j2.Close()
			if len(replayed) != 1 {
				t.Fatalf("fresh journal replayed %d cells, want 1", len(replayed))
			}
		})
	}
	// An empty (or absent) journal is the ordinary fresh path — no backup.
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	j, _, err := OpenJournal(path, sp)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, err := os.Stat(path + ".corrupt"); err == nil {
		t.Fatal("fresh journal spuriously backed up")
	}
}

func TestParseCellKey(t *testing.T) {
	// Round-trip: every enumerated cell's key parses back to the cell.
	sp := Spec{Name: "x", Runs: 2, Figures: []string{"fig7a"}, HazardSeeds: 1, Curve: true}
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	cells, err := sp.Cells()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		got, err := experiment.ParseCellKey(c.Key())
		if err != nil {
			t.Fatalf("ParseCellKey(%q): %v", c.Key(), err)
		}
		if got != c {
			t.Fatalf("ParseCellKey(%q) = %+v, want %+v", c.Key(), got, c)
		}
	}
	for _, bad := range []string{
		"",                                 // empty
		"fig7a",                            // no arm or seed
		"fig7a/af_mN",                      // no seed
		"fig7a/af_mN/1/2",                  // too many parts
		"fig7a/af_mN/x",                    // non-numeric seed
		"fig7a/af_mN/-1",                   // negative seed
		"/af_mN/1",                         // empty figure
		"fig7a//1",                         // empty arm
		"fig7a/af_mN/1.5",                  // fractional seed
		"fig7a/af_mN/ 1",                   // padded seed
		"fig7a/af_mN/99999999999999999999", // seed overflows uint64
	} {
		if _, err := experiment.ParseCellKey(bad); err == nil {
			t.Errorf("ParseCellKey(%q) accepted", bad)
		}
	}
}

func TestJournalRejectsForeignSpec(t *testing.T) {
	sp := fig7aSpec("mine", 2)
	sp.Validate()
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	j, _, err := OpenJournal(path, sp)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	other := fig7aSpec("mine", 3) // same name, different protocol
	other.Validate()
	if _, _, err := OpenJournal(path, other); err == nil || !strings.Contains(err.Error(), "different spec") {
		t.Fatalf("foreign spec accepted: %v", err)
	}
}

// readArtifacts returns name → contents of every .json artifact in dir.
func readArtifacts(t *testing.T, dir string) map[string]string {
	t.Helper()
	out, err := readArtifactDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func readArtifactDir(dir string) (map[string]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := make(map[string]string)
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".json" {
			continue
		}
		if e.Name() == "resources.json" {
			// Wall-clock measurements: intentionally not byte-identical.
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		out[e.Name()] = string(b)
	}
	return out, nil
}

func TestAggregatorOrderIndependent(t *testing.T) {
	// The same cell results fed in canonical vs shuffled order must
	// finalize to byte-identical artifacts — the property that makes
	// journal-replay order irrelevant.
	sp := fig7aSpec("order", 3)
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	cells, _ := sp.Cells()
	rng := rand.New(rand.NewPCG(5, 6))
	results := make(map[string]CellResult, len(cells))
	for _, c := range cells {
		results[c.Key()] = syntheticResult(rng)
	}

	finalize := func(order []int) map[string]string {
		agg, err := NewAggregator(sp)
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range order {
			if err := agg.Feed(cells[i], results[cells[i].Key()]); err != nil {
				t.Fatal(err)
			}
		}
		dir := t.TempDir()
		if err := agg.Finalize(dir); err != nil {
			t.Fatal(err)
		}
		return readArtifacts(t, dir)
	}

	canonical := make([]int, len(cells))
	for i := range canonical {
		canonical[i] = i
	}
	a := finalize(canonical)
	b := finalize(rng.Perm(len(cells)))
	if len(a) == 0 {
		t.Fatal("no artifacts written")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("shuffled feeding order changed the artifacts")
	}
}

func TestAggregatorRejectsDuplicateAndIncomplete(t *testing.T) {
	sp := fig7aSpec("dup", 1)
	sp.Validate()
	cells, _ := sp.Cells()
	rng := rand.New(rand.NewPCG(8, 9))
	agg, err := NewAggregator(sp)
	if err != nil {
		t.Fatal(err)
	}
	res := syntheticResult(rng)
	if err := agg.Feed(cells[0], res); err != nil {
		t.Fatal(err)
	}
	if err := agg.Feed(cells[0], res); err == nil {
		t.Fatal("duplicate cell accepted")
	}
	if err := agg.Finalize(t.TempDir()); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("incomplete campaign finalized: %v", err)
	}
}

func TestHazardAggregation(t *testing.T) {
	h := &hazardArmAgg{}
	h.feed(&showcase.HazardResult{VehicleCount: []int{10, 20}, GateClosedAt: 60 * time.Second})
	h.feed(&showcase.HazardResult{VehicleCount: []int{20, 40, 60}})
	a := &Aggregator{
		spec:   Spec{HazardSeeds: 2},
		hazard: map[string]map[string]*hazardArmAgg{hazardGFID: {"af": h, "atk": {}}},
	}
	art := a.hazardArtifact(hazardGFID)
	af := art.Arms["af"]
	want := []float64{15, 30, 30}
	if !reflect.DeepEqual(af.MeanVehicleCount, want) {
		t.Fatalf("MeanVehicleCount = %v, want %v", af.MeanVehicleCount, want)
	}
	if af.GateClosedRuns != 1 || af.MeanGateCloseSeconds != 60 {
		t.Fatalf("gate stats: %+v", af)
	}
}

func TestCampaignCancelAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real fig7a and fig13 cells")
	}
	base := t.TempDir()
	sp := Spec{Name: "cancel", Runs: 1, Figures: []string{"fig7a"}, Curve: true}
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	// Cancel after the first completed cell; everything journaled so far
	// must be replayed by the resume.
	ctx, cancel := context.WithCancel(context.Background())
	info, err := Run(ctx, sp, Options{
		ResultsDir: base,
		Workers:    1,
		Progress: func(done, total, replayed int, key string) {
			if key != "" {
				cancel()
			}
		},
	})
	if err == nil {
		t.Fatal("cancelled campaign reported success")
	}
	if info.Executed == 0 {
		t.Fatal("no cells journaled before cancellation took effect")
	}
	info, err = Run(context.Background(), sp, Options{ResultsDir: base, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if info.Replayed == 0 || info.Replayed+info.Executed != info.Total {
		t.Fatalf("resume accounting: %+v", info)
	}
	arts := readArtifacts(t, filepath.Join(base, sp.Name))
	if _, ok := arts["fig7a.json"]; !ok {
		t.Fatal("fig7a artifact missing")
	}
	if _, ok := arts["fig13.json"]; !ok {
		t.Fatal("curve artifact missing")
	}
	if _, ok := arts["summary.json"]; !ok {
		t.Fatal("summary artifact missing")
	}
}

func TestRunFigureRejectsUnknownPairArms(t *testing.T) {
	fig := experiment.Figures()["fig7a"]
	fig.Pairs = []experiment.Pair{{Label: "bad", Free: "af_wN", Attacked: "nope"}}
	if _, err := RunFigure(context.Background(), fig, 1, Options{}); err == nil {
		t.Fatal("pair over an unknown arm accepted")
	}
}

// The byte-identity tests below compare every other way of producing the
// fig7a figure against one reference campaign, run once per test binary
// by referenceArtifacts. readArtifacts skips resources.json, which holds
// wall-clock measurements.
var (
	refOnce sync.Once
	refArts map[string]string
	refErr  error
)

const refRuns = 1

func refSpec() Spec { return fig7aSpec("camp", refRuns) }

// referenceArtifacts runs the reference fig7a campaign on first use and
// returns its artifacts, keyed by file name.
func referenceArtifacts(t *testing.T) map[string]string {
	t.Helper()
	refOnce.Do(func() {
		dir, err := os.MkdirTemp("", "campaign-ref-")
		if err != nil {
			refErr = err
			return
		}
		defer os.RemoveAll(dir)
		sp := refSpec()
		if _, err := Run(context.Background(), sp, Options{ResultsDir: dir}); err != nil {
			refErr = err
			return
		}
		refArts, refErr = readArtifactDir(filepath.Join(dir, sp.Name))
		if refErr == nil && len(refArts) == 0 {
			refErr = errors.New("reference run wrote no artifacts")
		}
	})
	if refErr != nil {
		t.Fatalf("reference campaign: %v", refErr)
	}
	if _, ok := refArts["detection.json"]; ok {
		t.Error("detection-off run wrote detection.json")
	}
	return refArts
}

// runVariant runs the reference spec with opts under a fresh results
// directory and returns its artifacts.
func runVariant(t *testing.T, opts Options) map[string]string {
	t.Helper()
	sp := refSpec()
	opts.ResultsDir = t.TempDir()
	if _, err := Run(context.Background(), sp, opts); err != nil {
		t.Fatal(err)
	}
	return readArtifacts(t, filepath.Join(opts.ResultsDir, sp.Name))
}

// sameArtifacts reports every artifact of want that got does not
// reproduce byte for byte.
func sameArtifacts(t *testing.T, got, want map[string]string, variant string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("artifact sets differ %s: got %v, want %v", variant, keys(got), keys(want))
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("artifact %s differs %s", name, variant)
		}
	}
}

// TestResumeDeterminism interrupts a campaign after two cells, checks a
// re-run without Resume is refused, resumes it from the journal and
// requires the reference artifacts byte for byte.
func TestResumeDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real fig7a cells")
	}
	want := referenceArtifacts(t)
	ctx := context.Background()
	sp := refSpec()
	opts := Options{ResultsDir: t.TempDir(), MaxCells: 2}
	info, err := Run(ctx, sp, opts)
	if err == nil || !strings.Contains(err.Error(), "interrupted") {
		t.Fatalf("MaxCells run: err = %v", err)
	}
	if info.Executed != 2 {
		t.Fatalf("executed %d cells, want 2", info.Executed)
	}
	// Re-running without Resume must refuse.
	opts.MaxCells = 0
	if _, err := Run(ctx, sp, opts); err == nil {
		t.Fatal("second run without Resume accepted")
	}
	opts.Resume = true
	info, err = Run(ctx, sp, opts)
	if err != nil {
		t.Fatal(err)
	}
	if info.Replayed != 2 {
		t.Fatalf("resume replayed %d cells, want 2", info.Replayed)
	}
	sameArtifacts(t, readArtifacts(t, filepath.Join(opts.ResultsDir, sp.Name)), want,
		"between resumed and uninterrupted runs")
}

// TestCampaignTelemetryByteIdentical runs the campaign with a live
// telemetry registry: the artifacts must not change, and the registry
// must actually have observed the run.
func TestCampaignTelemetryByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real fig7a cells")
	}
	want := referenceArtifacts(t)
	reg := telemetry.NewRegistry()
	sameArtifacts(t, runVariant(t, Options{Telemetry: reg}), want, "with telemetry on")
	var done, evTotal float64
	for _, s := range reg.Snapshot() {
		switch s.Name {
		case "georoute_campaign_cells_done":
			done = s.Value
		case "georoute_engine_events_total":
			evTotal = s.Value
		}
	}
	if done == 0 {
		t.Error("campaign progress gauges never updated")
	}
	if evTotal == 0 {
		t.Error("per-worker samplers never pushed event counts")
	}
}

// TestCampaignDetectionArtifact arms the misbehavior-detection monitors:
// detection.json must meet its quality gates, stay out of the summary's
// figure index, and every other artifact must match the reference.
func TestCampaignDetectionArtifact(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real fig7a cells")
	}
	want := referenceArtifacts(t)
	got := runVariant(t, Options{Detect: true})
	raw, ok := got["detection.json"]
	if !ok {
		t.Fatal("detection.json not written")
	}
	// Full recall on the attack arms, a zero false-alarm budget on the
	// benign arms.
	var art DetectionArtifact
	if err := json.Unmarshal([]byte(raw), &art); err != nil {
		t.Fatal(err)
	}
	arms, ok := art.Figures["fig7a"]
	if !ok {
		t.Fatalf("detection.json missing fig7a: %+v", art)
	}
	for label, s := range arms {
		attacked := strings.HasPrefix(label, "atk")
		switch {
		case attacked && s.Recall < 0.9:
			t.Errorf("arm %s: recall %v < 0.9 (%+v)", label, s.Recall, s)
		case attacked && s.MeanLatencySeconds <= 0:
			t.Errorf("arm %s: detected without latency (%+v)", label, s)
		case !attacked && (s.Verdicts != 0 || s.FalseAlarmRate != 0):
			t.Errorf("arm %s: benign arm raised %d verdicts (%+v)", label, s.Verdicts, s)
		}
	}
	// detection.json is not part of the figure index.
	var sum Summary
	if err := json.Unmarshal([]byte(got["summary.json"]), &sum); err != nil {
		t.Fatal(err)
	}
	for _, f := range sum.Figures {
		if f == "detection" {
			t.Error("summary.json lists detection in its figure index")
		}
	}
	delete(got, "detection.json")
	sameArtifacts(t, got, want, "with detection enabled")
}

// TestCampaignMatchesDirectFigureRun runs fig7a directly, without a
// journal, through RunFigure: its artifact must equal the campaign's
// fig7a.json.
func TestCampaignMatchesDirectFigureRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real fig7a cells")
	}
	want := referenceArtifacts(t)
	res, err := RunFigure(context.Background(), experiment.Figures()["fig7a"], refRuns, Options{})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := marshalArtifact(BuildFigureArtifact(res))
	if err != nil {
		t.Fatal(err)
	}
	if string(direct) != want["fig7a.json"] {
		t.Fatal("RunFigure artifact differs from the campaign's fig7a.json")
	}
}

func keys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
