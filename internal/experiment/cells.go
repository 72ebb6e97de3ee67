package experiment

import (
	"fmt"
	"strconv"
	"strings"
)

// Cell identifies one independently runnable unit of an experiment sweep:
// a single seeded run of one arm of one figure (campaigns name their
// showcase runs the same way). Cell keys are the stable identity used by
// the campaign journal — they must never change meaning across versions,
// or resumed campaigns would silently re-use results from a different
// experiment.
type Cell struct {
	Figure string
	Arm    string
	Seed   uint64
}

// Key renders the cell's stable journal key, "<figure>/<arm>/<seed>".
// Figure IDs and arm labels never contain '/'.
func (c Cell) Key() string {
	return fmt.Sprintf("%s/%s/%d", c.Figure, c.Arm, c.Seed)
}

// ParseCellKey inverts Key. Only canonical keys parse: a key that Key
// would render differently (a zero-padded seed such as "fig7a/af_wN/007")
// is rejected, so a parsed cell's Key always equals the input.
func ParseCellKey(key string) (Cell, error) {
	parts := strings.Split(key, "/")
	if len(parts) != 3 {
		return Cell{}, fmt.Errorf("experiment: malformed cell key %q", key)
	}
	seed, err := strconv.ParseUint(parts[2], 10, 64)
	if err != nil {
		return Cell{}, fmt.Errorf("experiment: malformed seed in cell key %q: %v", key, err)
	}
	if parts[0] == "" || parts[1] == "" {
		return Cell{}, fmt.Errorf("experiment: malformed cell key %q", key)
	}
	c := Cell{Figure: parts[0], Arm: parts[1], Seed: seed}
	if c.Key() != key {
		return Cell{}, fmt.Errorf("experiment: non-canonical cell key %q (canonical %q)", key, c.Key())
	}
	return c, nil
}

// Arm resolves an arm label to its scenario.
func (f Figure) Arm(label string) (Scenario, bool) {
	for _, a := range f.Arms {
		if a.Label == label {
			return a.Scenario, true
		}
	}
	return Scenario{}, false
}

// Cells enumerates the figure's (arm × seed) cells for `runs` repetitions
// per arm, in the canonical order (arm declaration order, then ascending
// seed). Seeds are absolute: the arm scenario's base seed plus the run
// index, exactly the seeds RunArm would use.
func (f Figure) Cells(runs int) []Cell {
	if runs <= 0 {
		runs = 1
	}
	cells := make([]Cell, 0, len(f.Arms)*runs)
	for _, a := range f.Arms {
		for i := 0; i < runs; i++ {
			cells = append(cells, Cell{Figure: f.ID, Arm: a.Label, Seed: a.Scenario.Seed + uint64(i)})
		}
	}
	return cells
}

// RunCell executes one cell of the figure with the given observability
// sinks (see Observe; the zero Observe is an unobserved run).
func (f Figure) RunCell(c Cell, obs Observe) (RunResult, error) {
	if c.Figure != f.ID {
		return RunResult{}, fmt.Errorf("experiment: cell %s run against figure %s", c.Key(), f.ID)
	}
	s, ok := f.Arm(c.Arm)
	if !ok {
		return RunResult{}, fmt.Errorf("experiment: cell %s references unknown arm", c.Key())
	}
	return RunOnce(s, c.Seed, obs), nil
}

// RunIndex converts a cell's absolute seed back to its 0-based run index
// within the arm, the index used to pair attack-free and attacked runs.
func (f Figure) RunIndex(c Cell) (int, error) {
	s, ok := f.Arm(c.Arm)
	if !ok {
		return 0, fmt.Errorf("experiment: cell %s references unknown arm", c.Key())
	}
	if c.Seed < s.Seed {
		return 0, fmt.Errorf("experiment: cell %s has seed below the arm base %d", c.Key(), s.Seed)
	}
	return int(c.Seed - s.Seed), nil
}
