package campaign

import (
	"path/filepath"
	"testing"

	"github.com/vanetsec/georoute/internal/experiment"
)

// TestResourcesJournalRoundTrip: the per-cell resource record written on
// a journal line survives replay intact.
func TestResourcesJournalRoundTrip(t *testing.T) {
	sp := fig7aSpec("camp", 1)
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, _, err := OpenJournal(path, sp)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := sp.Cells()
	if err != nil {
		t.Fatal(err)
	}
	key := cells[0].Key()
	want := CellResources{WallSeconds: 1.5, AllocBytes: 42, PeakHeapBytes: 7 << 20, Events: 99}
	if err := j.Record(key, CellResult{Run: &experiment.RunResult{}, Resources: &want}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, replayed, err := OpenJournal(path, sp)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	got := replayed[key].Resources
	if got == nil || *got != want {
		t.Fatalf("replayed resources = %+v, want %+v", got, want)
	}
}

// TestMeasureCellAttachesResources: every executed cell comes back with
// a populated resource record, Events copied from the simulation result.
func TestMeasureCellAttachesResources(t *testing.T) {
	res, err := measureCell(func() (CellResult, error) {
		return CellResult{Run: &experiment.RunResult{Events: 123}}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	r := res.Resources
	if r == nil {
		t.Fatal("measureCell attached no resources")
	}
	if r.Events != 123 {
		t.Fatalf("Events = %d, want 123", r.Events)
	}
	if r.WallSeconds <= 0 || r.PeakHeapBytes == 0 {
		t.Fatalf("implausible measurement: %+v", r)
	}
}

// TestResourcesArtifactCanonicalOrder: the artifact lists cells in spec
// enumeration order regardless of completion order, and rolls figures
// and totals up consistently.
func TestResourcesArtifactCanonicalOrder(t *testing.T) {
	sp := fig7aSpec("camp", 2)
	agg, err := NewAggregator(sp)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := sp.Cells()
	if err != nil {
		t.Fatal(err)
	}
	// Record resources in reverse completion order (bypassing the full
	// feed, which needs simulated series; the artifact only reads the
	// resource map).
	for i := len(cells) - 1; i >= 0; i-- {
		agg.resources[cells[i].Key()] = CellResources{
			WallSeconds: float64(i + 1), AllocBytes: uint64(i + 1), Events: uint64(i + 1), PeakHeapBytes: uint64(i + 1),
		}
	}
	art, err := agg.resourcesArtifact()
	if err != nil {
		t.Fatal(err)
	}
	if len(art.Cells) != len(cells) {
		t.Fatalf("artifact holds %d cells, want %d", len(art.Cells), len(cells))
	}
	for i, c := range cells {
		if art.Cells[i].Key != c.Key() {
			t.Fatalf("cell %d = %q, want canonical %q", i, art.Cells[i].Key, c.Key())
		}
	}
	if art.Totals.Cells != len(cells) {
		t.Fatalf("totals count %d cells, want %d", art.Totals.Cells, len(cells))
	}
	if art.Totals.PeakHeapBytes != uint64(len(cells)) {
		t.Fatalf("totals peak heap = %d, want max %d", art.Totals.PeakHeapBytes, len(cells))
	}
}
