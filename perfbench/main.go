// Command perfbench is the simulator's benchmark harness. It drives the
// program only through the public georoute API, times those calls from
// outside, checks every output against pinned digests and the paper's
// bands, and prints one JSON result line.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload fig7a-ab --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics. With --trace 1
// the harness also records a CPU profile and spans, attributes the profile
// to the simulator's layers, writes the spans under .bench_build/trace/ and
// reports the per-layer metrics instead.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

// buildDir holds everything the harness writes, relative to the checkout
// root it runs from.
const buildDir = ".bench_build"

// minUnits is the fewest units a run measures, however long they take, so
// every median has several samples.
const minUnits = 3

// setupProbes is how many extra set-ups a run times before its units. With
// the units' own set-ups they give the set-up median six samples or more.
// They also warm the process, so the units measure no first-use costs.
const setupProbes = 3

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 20, "how long to keep starting new units")
	traced := fs.Int("trace", 0, "1 = per-layer traced run, 0 = end-to-end run")
	pin := fs.Bool("pin", false, "run one unit and print its outputs as JSON, for reference.json, instead of measuring")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if *pin {
		return printReference(wl, *seed)
	}

	res, err := measure(wl, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the harness's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// measure runs units of the workload until the time budget is spent and
// reduces them to the end-to-end or per-layer metrics. Set-up probes and
// work the workload does before its units count toward the budget.
func measure(wl workload, seed uint64, budget time.Duration, traced bool) (result, error) {
	prep := time.Now()
	var after func([]unit) []check
	if wl.before != nil {
		after = wl.before(seed)
		runtime.GC()
	}
	setups := make([]float64, 0, setupProbes)
	for i := 0; i < setupProbes; i++ {
		d, err := wl.setup(seed)
		if err != nil {
			return result{}, fmt.Errorf("%s: %w", wl.name, err)
		}
		setups = append(setups, d.Seconds())
		runtime.GC()
	}
	fmt.Fprintf(os.Stderr, "perfbench: set-up probes %.4f s\n", setups)
	budget -= time.Since(prep)
	var prof bytes.Buffer
	var rec *recorder
	if traced {
		rec = &recorder{}
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return result{}, fmt.Errorf("cpu profile: %w", err)
		}
	}
	heap := startHeapSampler()
	start := time.Now()
	var units []unit
	// Start another unit while it should end within the budget, judging by
	// the mean unit so far.
	for len(units) < minUnits || time.Since(start)*time.Duration(len(units)+1)/time.Duration(len(units)) <= budget {
		u, err := runUnit(wl, seed, rec)
		if err != nil {
			heap.stop()
			if traced {
				pprof.StopCPUProfile()
			}
			return result{}, err
		}
		units = append(units, u)
		fmt.Fprintf(os.Stderr, "perfbench: unit %d: setup %.4fs, timed %.3fs, %.2f sim s/s, cpu %.3fs\n",
			len(units)-1, u.setup.Seconds(), u.timed.Seconds(), u.simSeconds/u.timed.Seconds(), u.cpu.Seconds())
		// Drop the unit's world before the next set-up, so one unit's
		// garbage never inflates the next one's heap or GC work.
		runtime.GC()
	}
	elapsed := time.Since(start)
	heapPeak := heap.stop()
	if traced {
		pprof.StopCPUProfile()
	}

	checks := crossCheck(units)
	if after != nil {
		checks = append(checks, after(units)...)
	}
	for _, u := range units {
		checks = append(checks, u.checks...)
	}
	res := result{Attempted: len(checks), Metrics: map[string]metric{}}
	for _, c := range checks {
		if c.err != nil {
			res.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: FAIL %s: %v\n", c.name, c.err)
		}
	}
	res.Correct = res.Failed == 0
	e2e := endToEnd(units, setups, heapPeak)
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d units in %.1fs, %d checks, %d failed\n",
		wl.name, seed, len(units), elapsed.Seconds(), res.Attempted, res.Failed)
	if !traced {
		res.Metrics = e2e
		printMetrics(res.Metrics)
		return res, nil
	}
	samples, err := parseCPUProfile(prof.Bytes())
	if err != nil {
		return result{}, err
	}
	busy := layerTable(samples)
	res.Metrics = perLayer(units, busy, e2e["sim_s_per_s"].Value)
	printMetrics(res.Metrics)
	printLayers(busy, len(units))
	path := filepath.Join(buildDir, "trace", fmt.Sprintf("%s-seed%d.json", wl.name, seed))
	if err := rec.write(path, wl.name, start, start.Add(elapsed)); err != nil {
		return result{}, err
	}
	return res, nil
}

// runUnit executes one unit and stamps its spans.
func runUnit(wl workload, seed uint64, rec *recorder) (unit, error) {
	u, err := wl.unit(seed, rec != nil)
	if err != nil {
		return u, fmt.Errorf("%s: %w", wl.name, err)
	}
	if rec != nil {
		rec.unit(u)
	}
	return u, nil
}

// endToEnd reduces the units to the end-to-end metrics: medians per unit,
// set-up probes included, except the simulation rate, which is taken over
// all timed phases.
func endToEnd(units []unit, setups []float64, heapPeak uint64) map[string]metric {
	setup := append([]float64(nil), setups...)
	var cpu, cells []float64
	var sim, timed float64
	for _, u := range units {
		setup = append(setup, u.setup.Seconds())
		cpu = append(cpu, u.cpu.Seconds())
		cells = append(cells, u.cells...)
		sim += u.simSeconds
		timed += u.timed.Seconds()
	}
	return map[string]metric{
		"setup_s":      {median(setup), "s"},
		"sim_s_per_s":  {sim / timed, "s/s"},
		"cell_p50_s":   {median(cells), "s"},
		"cpu_s":        {median(cpu), "s"},
		"heap_peak_mb": {float64(heapPeak) / (1 << 20), "MB"},
	}
}

// crossCheck requires every unit of a run to produce the same outputs as
// the first: repeated runs of one seed must agree.
func crossCheck(units []unit) []check {
	var out []check
	for i := 1; i < len(units); i++ {
		for _, k := range sortedKeys(units[0].outputs) {
			var err error
			if got, ok := units[i].outputs[k]; !ok {
				err = errors.New("output missing")
			} else {
				_, err = compareJSON(got, units[0].outputs[k], k)
			}
			out = append(out, check{name: fmt.Sprintf("unit %d repeats %s", i, k), err: err})
		}
	}
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// printMetrics writes a human-readable metric table to standard error.
func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(os.Stderr, "  %-32s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}

// printLayers writes the full profile attribution, every package
// included, per unit, to standard error.
func printLayers(busy map[string]float64, units int) {
	var total float64
	for _, v := range busy {
		total += v
	}
	fmt.Fprintf(os.Stderr, "perfbench: profile %.2f CPU s per unit\n", total/float64(units))
	for _, k := range sortedKeys(busy) {
		fmt.Fprintf(os.Stderr, "  %-12s %8.3f s %6.1f%%\n", k, busy[k]/float64(units), 100*busy[k]/total)
	}
}
