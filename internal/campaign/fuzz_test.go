package campaign

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"github.com/vanetsec/georoute/internal/experiment"
)

// smokeSpec loads the committed smoke campaign spec.
func smokeSpec(t testing.TB) Spec {
	t.Helper()
	sp, err := LoadSpec(filepath.Join("..", "..", "campaigns", "smoke.json"))
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// FuzzCellKey checks that ParseCellKey inverts Key exactly: whatever it
// accepts must render back to the same bytes, so two spellings of one
// cell can never both reach the journal or the fabric.
func FuzzCellKey(f *testing.F) {
	sp := smokeSpec(f)
	// The smoke spec has no showcase cells; add them so the hazard and
	// curve key shapes are seeded too.
	sp.HazardSeeds, sp.Curve = 1, true
	cells, err := sp.Cells()
	if err != nil {
		f.Fatal(err)
	}
	for _, c := range cells {
		f.Add(c.Key())
	}
	f.Add("fig7a/af_wN/007")
	f.Fuzz(func(t *testing.T, key string) {
		c, err := experiment.ParseCellKey(key)
		if err != nil {
			return
		}
		if got := c.Key(); got != key {
			t.Fatalf("ParseCellKey(%q) = %+v, whose Key is %q", key, c, got)
		}
	})
}

// FuzzJournalReplay appends arbitrary bytes after a valid header line and
// opens the journal. Opening must never panic; a successful open must
// replay only cells of the spec and truncate the file to a byte prefix of
// what was written; and one more Record must survive a reopen next to
// everything replayed before.
func FuzzJournalReplay(f *testing.F) {
	sp := smokeSpec(f)
	cells, err := sp.Cells()
	if err != nil {
		f.Fatal(err)
	}
	valid := make(map[string]bool, len(cells))
	for _, c := range cells {
		valid[c.Key()] = true
	}
	header, err := json.Marshal(entry{Type: "header", Campaign: sp.Name, SpecHash: sp.Hash()})
	if err != nil {
		f.Fatal(err)
	}
	header = append(header, '\n')
	line, err := os.ReadFile(filepath.Join("testdata", "journal-cell-line.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(line)
	f.Add(line[:len(line)/2]) // torn tail
	f.Fuzz(func(t *testing.T, tail []byte) {
		path := filepath.Join(t.TempDir(), "journal.jsonl")
		input := append(append([]byte{}, header...), tail...)
		if err := os.WriteFile(path, input, 0o644); err != nil {
			t.Fatal(err)
		}
		j, replayed, err := OpenJournal(path, sp)
		if err != nil {
			return
		}
		for key := range replayed {
			if !valid[key] {
				j.Close()
				t.Fatalf("replayed key %q is not a cell of the spec", key)
			}
		}
		kept, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(input, kept) {
			j.Close()
			t.Fatalf("journal holds %d bytes that are not a prefix of the %d written", len(kept), len(input))
		}

		// Any spec cell will do; if it was already replayed, the new
		// line wins on replay.
		extra := cells[len(replayed)%len(cells)].Key()
		if err := j.Record(extra, CellResult{}); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		want := make(map[string]CellResult, len(replayed)+1)
		for k, v := range replayed {
			want[k] = v
		}
		want[extra] = CellResult{}
		j, again, err := OpenJournal(path, sp)
		if err != nil {
			t.Fatalf("reopen after Record: %v", err)
		}
		j.Close()
		wantJSON, _ := json.Marshal(want)
		gotJSON, _ := json.Marshal(again)
		if !bytes.Equal(wantJSON, gotJSON) {
			t.Fatalf("reopen replayed %s, want %s", gotJSON, wantJSON)
		}
	})
}
