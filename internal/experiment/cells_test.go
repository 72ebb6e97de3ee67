package experiment

import "testing"

// TestParseCellKeyBoundaries complements the registry-driven round-trip
// in runner_test.go with edge values the registry never enumerates.
func TestParseCellKeyBoundaries(t *testing.T) {
	for _, c := range []Cell{
		{Figure: "fig7a", Arm: "af_mN", Seed: 1},
		{Figure: "fig10b", Arm: "atk_wL", Seed: 100},
		{Figure: "fig12a", Arm: "atk", Seed: 7},
		{Figure: "f", Arm: "a", Seed: 0},
		{Figure: "fig7a", Arm: "af_mN", Seed: ^uint64(0)}, // max seed
	} {
		got, err := ParseCellKey(c.Key())
		if err != nil {
			t.Fatalf("ParseCellKey(%q): %v", c.Key(), err)
		}
		if got != c {
			t.Fatalf("ParseCellKey(%q) = %+v, want %+v", c.Key(), got, c)
		}
	}
}

func TestParseCellKeyRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"",
		"fig7a",
		"fig7a/af_mN",
		"fig7a/af_mN/1/extra",
		"fig7a/af_mN/notanumber",
		"fig7a/af_mN/-3",
		"fig7a/af_mN/18446744073709551616", // uint64 max + 1
		"/af_mN/1",
		"fig7a//1",
		"fig7a/af_wN/007", // non-canonical: Key renders seed 7 as "7"
		"fig7a/af_wN/00",
	} {
		if _, err := ParseCellKey(bad); err == nil {
			t.Errorf("ParseCellKey(%q) accepted", bad)
		}
	}
}
