package campaign

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"github.com/vanetsec/georoute/internal/experiment"
	"github.com/vanetsec/georoute/internal/showcase"
	"github.com/vanetsec/georoute/internal/telemetry"
	"github.com/vanetsec/georoute/internal/trace"
)

// ErrInterrupted reports that the campaign stopped before completing all
// cells (context cancellation or a MaxCells budget). Everything finished
// so far is journaled; rerunning with Resume executes only the remainder.
var ErrInterrupted = errors.New("campaign interrupted before completion")

// Options tunes a campaign run.
type Options struct {
	// ResultsDir is the parent directory; the campaign writes into
	// <ResultsDir>/<spec.Name>/. Defaults to "results".
	ResultsDir string
	// Workers bounds the worker pool (default experiment.MaxParallel()).
	Workers int
	// Resume continues an existing journal. Without it, a journal that
	// already holds cells is an error rather than silently extended.
	Resume bool
	// MaxCells stops the run after this many freshly executed cells
	// (0 = unlimited). Used by tests and the CI smoke job to interrupt a
	// campaign at a deterministic point.
	MaxCells int
	// TraceDir, when set, threads a packet-lifecycle tracer through every
	// figure cell executed in this process and writes one
	// <cellkey>.jsonl + <cellkey>.counters.json pair per cell into the
	// directory ('/' in keys becomes "__"). Tracing never changes the
	// simulated outcome, only observes it; replayed (journaled) cells are
	// not re-traced. Showcase cells (fig12/fig13) are not traced.
	TraceDir string
	// Progress, when set, is called after every cell (replayed cells are
	// reported once, up front, with an empty key).
	Progress func(done, total, replayed int, key string)
	// Telemetry, when non-nil, receives live campaign gauges (cells
	// done/total, throughput, ETA) and per-worker run gauges (queue depth,
	// events/sec, CBF occupancy, ...) for /metrics scraping. Telemetry is
	// pure observation: artifacts are byte-identical with it on or off.
	Telemetry *telemetry.Registry
	// Detect runs the misbehavior plausibility monitors in every figure
	// cell and makes Finalize write results/<name>/detection.json — the
	// per-arm detection-latency and precision/recall report. Like tracing
	// and telemetry, detection is pure observation: every other artifact
	// stays byte-identical with it on or off, which is why detection.json
	// (like resources.json) is not listed in summary.json's figure index.
	Detect bool
}

// Info summarizes a finished (or interrupted) campaign run.
type Info struct {
	// Dir is the campaign's results directory.
	Dir string
	// Total is the number of cells the spec enumerates.
	Total int
	// Replayed cells were recovered from the journal instead of re-run.
	Replayed int
	// Executed cells ran in this process.
	Executed int
}

// Run executes the campaign: enumerate cells, replay the journal, shard
// the missing cells across a bounded worker pool, journal each completion,
// and finalize the streaming aggregates into per-figure artifacts. On
// context cancellation it stops dispatching, waits for in-flight cells to
// finish and be journaled, and returns ErrInterrupted — at most the cells
// of a hard kill are ever lost.
func Run(ctx context.Context, sp Spec, opts Options) (Info, error) {
	if err := sp.Validate(); err != nil {
		return Info{}, err
	}
	if opts.ResultsDir == "" {
		opts.ResultsDir = "results"
	}
	dir := filepath.Join(opts.ResultsDir, sp.Name)
	info := Info{Dir: dir}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return info, fmt.Errorf("campaign: %w", err)
	}

	journalPath := filepath.Join(dir, "journal.jsonl")
	if !opts.Resume {
		if st, err := os.Stat(journalPath); err == nil && st.Size() > 0 {
			return info, fmt.Errorf("campaign: %s already exists — resume it or remove the directory to start over", journalPath)
		}
	}
	j, replayed, err := OpenJournal(journalPath, sp)
	if err != nil {
		return info, err
	}
	defer j.Close()

	cells, err := sp.Cells()
	if err != nil {
		return info, err
	}
	info.Total = len(cells)
	info.Replayed = len(replayed)

	agg, err := NewAggregator(sp)
	if err != nil {
		return info, err
	}
	// Feed replayed cells in canonical order (any order aggregates
	// identically, but canonical order gives deterministic error paths).
	var todo []Cell
	for _, c := range cells {
		if res, ok := replayed[c.Key()]; ok {
			if err := agg.Feed(c, res); err != nil {
				return info, err
			}
		} else {
			todo = append(todo, c)
		}
	}

	// Budget for this process: the MaxCells prefix of the canonical
	// remainder, so interruption points are deterministic under test.
	interrupted := false
	dispatch := todo
	if opts.MaxCells > 0 && opts.MaxCells < len(dispatch) {
		dispatch = dispatch[:opts.MaxCells]
		interrupted = true
	}

	if err := runPool(ctx, dispatch, opts, j, agg, &info); err != nil {
		return info, err
	}
	if ctx.Err() != nil || interrupted {
		return info, fmt.Errorf("%w: %d/%d cells journaled", ErrInterrupted, info.Replayed+info.Executed, info.Total)
	}
	return info, agg.Finalize(dir)
}

// RunFigure runs every (arm × seed) cell of one figure, `runs` seeds per
// arm, and returns the folded result: a campaign of one figure without a
// journal or artifacts. It shares the campaign's cell executor and
// aggregator, so the artifact built from its result is byte-identical to
// the one a campaign over the same figure finalizes. fig may be a modified
// copy of a registry figure (for example with every arm's forwarder
// overridden). Of opts it reads only Workers, TraceDir, Telemetry, Detect
// and Progress. On context cancellation it returns ErrInterrupted.
func RunFigure(ctx context.Context, fig experiment.Figure, runs int, opts Options) (experiment.FigureResult, error) {
	if runs <= 0 {
		runs = 1
	}
	for _, p := range fig.Pairs {
		_, okF := fig.Arm(p.Free)
		_, okA := fig.Arm(p.Attacked)
		if !okF || !okA {
			return experiment.FigureResult{}, fmt.Errorf("campaign: figure %s pair %q references unknown arms", fig.ID, p.Label)
		}
	}
	cells := fig.Cells(runs)
	agg := newAggregator(Spec{Runs: runs}, map[string]experiment.Figure{fig.ID: fig}, []string{fig.ID})
	info := Info{Total: len(cells)}
	if err := runPool(ctx, cells, opts, nil, agg, &info); err != nil {
		return experiment.FigureResult{}, err
	}
	if ctx.Err() != nil {
		return experiment.FigureResult{}, fmt.Errorf("%w: %d/%d cells run", ErrInterrupted, info.Executed, info.Total)
	}
	return agg.figureResult(fig.ID), nil
}

// runPool shards the cells across the worker pool, journaling (when j is
// non-nil) and aggregating each completion from a single collector loop.
// It reports progress — replayed cells once, up front, then every
// completion — through opts.Progress and the telemetry campaign gauges.
func runPool(ctx context.Context, dispatch []Cell, opts Options, j *Journal, agg *Aggregator, info *Info) error {
	if opts.Progress != nil {
		opts.Progress(info.Replayed, info.Total, info.Replayed, "")
	}
	cg := telemetry.NewCampaignGauges(opts.Telemetry)
	if cg != nil {
		cg.CellsTotal.Set(float64(info.Total))
		cg.CellsDone.Set(float64(info.Replayed))
		cg.CellsReplayed.Set(float64(info.Replayed))
	}
	if len(dispatch) == 0 {
		return nil
	}
	if opts.TraceDir != "" {
		if err := os.MkdirAll(opts.TraceDir, 0o755); err != nil {
			return fmt.Errorf("campaign: %w", err)
		}
	}
	// A local cancel stops the feeder early when a cell or journal write
	// fails; the caller's context stays untouched.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	workers := opts.Workers
	if workers <= 0 {
		workers = experiment.MaxParallel()
	}
	if workers > len(dispatch) {
		workers = len(dispatch)
	}

	type completion struct {
		cell Cell
		res  CellResult
		err  error
	}
	jobs := make(chan Cell)
	results := make(chan completion)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			gauges := telemetry.NewRunGauges(opts.Telemetry, worker)
			for c := range jobs {
				res, err := runCell(agg.figs, c, opts.TraceDir, opts.Detect, gauges)
				results <- completion{cell: c, res: res, err: err}
			}
		}(w)
	}
	go func() {
		defer close(jobs)
		for _, c := range dispatch {
			select {
			case jobs <- c:
			case <-ctx.Done():
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(results)
	}()

	poolStart := time.Now()

	var firstErr error
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
			cancel()
		}
	}
	for d := range results {
		if d.err != nil {
			fail(d.err)
			continue
		}
		if firstErr != nil {
			continue // drain remaining completions without journaling
		}
		if j != nil {
			if err := j.Record(d.cell.Key(), d.res); err != nil {
				fail(err)
				continue
			}
		}
		if err := agg.Feed(d.cell, d.res); err != nil {
			fail(err)
			continue
		}
		info.Executed++
		if opts.Progress != nil {
			opts.Progress(info.Replayed+info.Executed, info.Total, info.Replayed, d.cell.Key())
		}
		if cg != nil {
			done := info.Replayed + info.Executed
			cg.CellsDone.Set(float64(done))
			elapsed := time.Since(poolStart).Seconds()
			if elapsed > 0 {
				rate := float64(info.Executed) / elapsed
				cg.CellsPerSec.Set(rate)
				if rate > 0 {
					cg.ETASeconds.Set(float64(info.Total-done) / rate)
				}
			}
		}
	}
	return firstErr
}

// ExecuteCell runs one cell exactly as the in-process campaign pool would
// — resource accounting included — without touching any journal. It is
// the execution primitive fabric workers use: the CellResult it returns
// is byte-for-byte the journal-line payload a single-process run of the
// same cell would have recorded (modulo the wall-clock resource fields,
// which are outside the byte-identity guarantee by design).
func ExecuteCell(c Cell, gauges *telemetry.RunGauges) (CellResult, error) {
	return runCell(experiment.Figures(), c, "", false, gauges)
}

// runCell executes one cell of any kind under per-cell resource
// accounting. When traceDir is non-empty, figure cells run with a
// per-cell file tracer writing a JSONL stream and counter rollup named
// after the cell key; detectOn arms the plausibility monitors; gauges
// (nil-safe) feed the live telemetry registry. Showcase cells (hazard,
// curve) have no router receive path to monitor, so detection does not
// apply to them.
func runCell(figs map[string]experiment.Figure, c Cell, traceDir string, detectOn bool, gauges *telemetry.RunGauges) (CellResult, error) {
	return measureCell(func() (CellResult, error) {
		switch c.Figure {
		case hazardGFID, hazardCBFID:
			hc := showcase.CaseGF
			if c.Figure == hazardCBFID {
				hc = showcase.CaseCBF
			}
			r := showcase.RunHazard(showcase.HazardConfig{Case: hc, Attacked: c.Arm == "atk", Seed: c.Seed})
			return CellResult{Hazard: &r}, nil
		case curveID:
			r := showcase.RunCurve(showcase.CurveConfig{Attacked: c.Arm == "atk", Seed: c.Seed})
			return CellResult{Curve: &r}, nil
		}
		fig, ok := figs[c.Figure]
		if !ok {
			return CellResult{}, fmt.Errorf("campaign: cell %s references unknown figure", c.Key())
		}
		var ft *trace.FileTracer
		if traceDir != "" {
			name := strings.ReplaceAll(c.Key(), "/", "__") + ".jsonl"
			var err error
			ft, err = trace.NewFileTracer(filepath.Join(traceDir, name))
			if err != nil {
				return CellResult{}, err
			}
		}
		rr, err := fig.RunCell(c, experiment.Observe{Tracer: ft.Tracer(), Gauges: gauges, Detect: detectOn})
		if ft != nil {
			if cerr := ft.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
		if err != nil {
			return CellResult{}, err
		}
		return CellResult{Run: &rr}, nil
	})
}

// RunHazardArtifact runs the Figure 12 showcase directly (outside a
// campaign) and folds it with the same aggregation the campaign finalize
// uses, so geosim's direct and campaign outputs agree.
func RunHazardArtifact(c showcase.HazardCase, seeds int) HazardArtifact {
	id := hazardGFID
	if c == showcase.CaseCBF {
		id = hazardCBFID
	}
	arms := map[string]*hazardArmAgg{"af": {}, "atk": {}}
	for _, arm := range []string{"af", "atk"} {
		for s := 1; s <= seeds; s++ {
			r := showcase.RunHazard(showcase.HazardConfig{Case: c, Attacked: arm == "atk", Seed: uint64(s)})
			arms[arm].feed(&r)
		}
	}
	a := &Aggregator{spec: Spec{HazardSeeds: seeds}, hazard: map[string]map[string]*hazardArmAgg{id: arms}}
	return a.hazardArtifact(id)
}
