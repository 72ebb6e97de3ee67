package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"strconv"
)

// Reference outputs, recorded with --pin on the commit the benchmark was
// defined at: each campaign cell result (without its wall-clock resources
// block) and finalized artifact as JSON, and the SHA-256 of each world's
// StatsSummary JSON. Campaign cell seeds are fixed by the spec (arm base
// seed plus run index), so campaign references hold for every workload
// seed ("*"); world references are per seed and shared by the sequential
// and the sharded world, whose summaries must be byte-identical.
//
//go:embed reference.json
var referenceJSON []byte

var reference = func() map[string]map[string]map[string]any {
	var r map[string]map[string]map[string]any
	if err := json.Unmarshal(referenceJSON, &r); err != nil {
		panic(fmt.Sprintf("perfbench: reference.json: %v", err))
	}
	return r
}()

// relTol is how far a number may sit from its reference, relative to the
// larger of the two: enough for floating-point sums folded in a different
// order, far below any change in a simulated outcome.
const relTol = 1e-9

// referenceFor returns a workload group's reference outputs at a seed, or
// nil when the seed has none.
func referenceFor(group string, seed uint64) map[string]any {
	if r, ok := reference[group]["*"]; ok {
		return r
	}
	return reference[group][strconv.FormatUint(seed, 10)]
}

// checkReference compares a unit's outputs with the reference, when the
// seed has one; unreferenced seeds rely on crossCheck. Outputs that match
// only within relTol are counted in counts["harness.inexact_outputs"].
func checkReference(group string, seed uint64, got map[string]any, counts map[string]float64) []check {
	want := referenceFor(group, seed)
	if want == nil {
		return nil
	}
	var out []check
	for _, k := range sortedKeys(want) {
		var err error
		if g, ok := got[k]; !ok {
			err = errors.New("output missing")
		} else {
			var exact bool
			if exact, err = compareJSON(g, want[k], k); err == nil && !exact {
				counts["harness.inexact_outputs"]++
			}
		}
		out = append(out, check{name: "reference " + k, err: err})
	}
	return out
}

// compareJSON compares two decoded JSON values. They match when they have
// the same shape and every number agrees within relTol; exact reports
// whether every number is bit-identical.
func compareJSON(got, want any, path string) (exact bool, err error) {
	switch w := want.(type) {
	case map[string]any:
		g, ok := got.(map[string]any)
		if !ok || len(g) != len(w) {
			return false, fmt.Errorf("%s: object shape differs", path)
		}
		exact = true
		for _, k := range sortedKeys(w) {
			gv, ok := g[k]
			if !ok {
				return false, fmt.Errorf("%s.%s: missing", path, k)
			}
			e, err := compareJSON(gv, w[k], path+"."+k)
			if err != nil {
				return false, err
			}
			exact = exact && e
		}
		return exact, nil
	case []any:
		g, ok := got.([]any)
		if !ok || len(g) != len(w) {
			return false, fmt.Errorf("%s: array shape differs", path)
		}
		exact = true
		for i := range w {
			e, err := compareJSON(g[i], w[i], fmt.Sprintf("%s[%d]", path, i))
			if err != nil {
				return false, err
			}
			exact = exact && e
		}
		return exact, nil
	case float64:
		g, ok := got.(float64)
		switch {
		case !ok:
			return false, fmt.Errorf("%s: not a number", path)
		case g == w:
			return true, nil
		case math.Abs(g-w) <= relTol*math.Max(math.Abs(g), math.Abs(w)):
			return false, nil
		}
		return false, fmt.Errorf("%s: %v, reference %v", path, g, w)
	default: // string, bool, null
		if got != want {
			return false, fmt.Errorf("%s: %v, reference %v", path, got, want)
		}
		return true, nil
	}
}

// printReference runs one unit and prints its outputs, for reference.json.
func printReference(wl workload, seed uint64) int {
	u, err := wl.unit(seed, false)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	b, err := json.Marshal(u.outputs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
