// Command geosim runs the paper's experiments and prints the series and
// summary statistics that regenerate its tables and figures.
//
// Usage:
//
//	geosim -list
//	geosim -experiment fig7a -runs 100
//	geosim -experiment fig9a -runs 10 -format csv
//	geosim -experiment fig7a -runs 10 -format json
//	geosim -experiment fig12a
//	geosim -experiment all -runs 5
//
// Long sweeps run as resumable campaigns (see campaigns/ for bundled
// specs). A campaign journals every completed (figure, arm, seed) cell to
// results/<name>/journal.jsonl; interrupting it (Ctrl-C) and rerunning
// with -resume executes only the missing cells and produces byte-identical
// artifacts:
//
//	geosim -campaign campaigns/full-protocol.json
//	geosim -campaign campaigns/full-protocol.json -resume
//
// Both modes accept -trace <dir>: every simulated (figure, arm, seed)
// cell then also writes its packet-lifecycle trace (strict-schema JSONL,
// see internal/trace) plus a per-node counter rollup into that
// directory. geotrace -validate checks any such file for schema and
// conservation violations.
//
// Campaign mode additionally accepts -detect, which arms the per-node
// misbehavior plausibility monitors (internal/detect) in every figure
// cell and makes finalize write results/<name>/detection.json — per-arm
// detection latency, recall, and per-check precision. Detection is pure
// observation: every other artifact is byte-identical with it on or off.
//
// Both modes also accept -listen <addr>, which serves live telemetry over
// HTTP while the run executes — Prometheus text exposition on /metrics,
// a JSON snapshot on /telemetry.json, and the standard pprof profiles
// under /debug/pprof/ — and -progress, a periodic stderr heartbeat
// (cells done/total, cells/s and ETA). In campaign mode SIGQUIT (Ctrl-\)
// dumps goroutine stacks plus a telemetry snapshot into results/<name>/
// without stopping the run. Telemetry is pure observation: outputs are
// byte-identical with it on or off.
//
// A figure run is a campaign of one figure without a journal: both modes
// execute cells and fold results the same way, so -format json prints the
// bytes a campaign over the same figure writes to
// results/<name>/<figure>.json.
//
// Campaigns can also run distributed: -serve starts the fabric
// coordinator (campaign control plane + /metrics on one listener),
// -worker starts a cell worker against it, and -submit/-fabric-status/
// -drain are the client verbs. Artifacts are byte-identical to a
// single-process run (see internal/fabric):
//
//	geosim -serve :9090
//	geosim -worker http://localhost:9090   # start as many as you like
//	geosim -submit campaigns/smoke.json -to http://localhost:9090 -wait
//
// With -runs 100 and the full 200 s duration a figure takes a while; use
// lower run counts for exploration. Results print to stdout; campaign
// artifacts land in results/<name>/.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/vanetsec/georoute"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list available experiments and exit")
		expID    = flag.String("experiment", "", "experiment ID to run (see -list), or 'all'")
		runs     = flag.Int("runs", 10, "simulation runs per arm")
		format   = flag.String("format", "table", "output format: table, csv or json")
		seeds    = flag.Int("showcase-seeds", 5, "seeds for showcase experiments (fig12a/fig12b)")
		fwd      = flag.String("forwarder", "", "override the forwarding strategy of every arm in -experiment mode (see -list for names)")
		campPath = flag.String("campaign", "", "run a campaign spec (JSON, see campaigns/) instead of a single experiment")
		resume   = flag.Bool("resume", false, "resume an interrupted campaign from its journal")
		results  = flag.String("results", "results", "parent directory for campaign results")
		maxCells = flag.Int("max-cells", 0, "stop the campaign after N fresh cells (testing/CI)")
		workers  = flag.Int("workers", 0, "worker pool size (default: CPUs-1)")
		traceDir = flag.String("trace", "", "write per-cell packet-lifecycle traces (JSONL + counter rollup) into this directory")
		detectOn = flag.Bool("detect", false, "campaign mode: run the misbehavior plausibility monitors in every cell and write results/<name>/detection.json (pure observation; other artifacts are byte-identical)")
		listen   = flag.String("listen", "", "serve live telemetry on this address while running: /metrics (Prometheus), /telemetry.json, /debug/pprof/")
		progress = flag.Bool("progress", false, "print a periodic progress heartbeat to stderr")

		serveAddr    = flag.String("serve", "", "run the distributed-campaign coordinator on this address (e.g. :9090); submit work with -submit")
		workerURL    = flag.String("worker", "", "run as a fabric worker against this coordinator URL (one cell at a time; start several for parallelism)")
		workerID     = flag.String("worker-id", "", "fabric worker identity (default <hostname>-<pid>)")
		submitPath   = flag.String("submit", "", "submit a campaign spec (JSON) to the coordinator at -to")
		fabricStatus = flag.Bool("fabric-status", false, "print the coordinator status snapshot from -to and exit")
		drain        = flag.Bool("drain", false, "ask the coordinator at -to to stop granting leases and exit")
		to           = flag.String("to", "", "coordinator base URL for -submit/-fabric-status/-drain (e.g. http://localhost:9090)")
		wait         = flag.Bool("wait", false, "with -submit: block until the campaign completes or fails")
		leaseTTL     = flag.Duration("lease-ttl", georoute.DefaultFabricLeaseTTL, "coordinator: lease lifetime without a heartbeat before a cell is requeued")
		maxRetries   = flag.Int("max-retries", georoute.DefaultFabricMaxRetries, "coordinator: per-cell retry budget for failures and lease expiries")

		benchWorld    = flag.Bool("bench-world", false, "run one world benchmark variant in this process and print a one-line JSON result (see scripts/benchworld.sh)")
		benchVehicles = flag.Int("bench-vehicles", 100_000, "bench-world: approximate vehicle population")
		benchShards   = flag.Int("bench-shards", 0, "bench-world: engine shards (0 = sequential single-engine world)")
		benchQueue    = flag.String("bench-queue", "wheel", "bench-world: scheduler implementation, wheel or heap")
		benchSim      = flag.Duration("bench-sim", 5*time.Second, "bench-world: simulated duration of the timed Run phase")
		benchSeed     = flag.Uint64("bench-seed", 1, "bench-world: world seed")
	)
	flag.Parse()

	if *list {
		printList()
		return
	}
	if *benchWorld {
		os.Exit(runBenchWorld(*benchVehicles, *benchShards, *benchQueue, *benchSim, *benchSeed))
	}
	switch {
	case *serveAddr != "":
		os.Exit(runServe(*serveAddr, *results, *leaseTTL, *maxRetries))
	case *workerURL != "":
		os.Exit(runWorker(*workerURL, *workerID, *maxCells, *listen))
	case *submitPath != "":
		os.Exit(runSubmit(*submitPath, *to, *resume, *wait))
	case *fabricStatus:
		os.Exit(runFabricStatus(*to))
	case *drain:
		os.Exit(runDrain(*to))
	}
	if *campPath != "" {
		os.Exit(runCampaign(*campPath, *results, *resume, *maxCells, *workers, *traceDir, *listen, *progress, *detectOn))
	}
	if *expID == "" {
		fmt.Fprintln(os.Stderr, "geosim: pass -experiment <id>, -campaign <spec> or -list")
		os.Exit(2)
	}
	if *fwd != "" {
		if _, ok := georoute.LookupForwarder(*fwd); !ok {
			fmt.Fprintf(os.Stderr, "geosim: unknown forwarder %q (registered: %s)\n", *fwd, strings.Join(georoute.ForwarderNames(), ", "))
			os.Exit(2)
		}
	}

	var reg *georoute.TelemetryRegistry
	if *listen != "" {
		reg = georoute.NewTelemetryRegistry()
		georoute.RegisterRuntimeMetrics(reg)
		srv, err := georoute.ServeTelemetry(reg, *listen)
		if err != nil {
			fmt.Fprintf(os.Stderr, "geosim: %v\n", err)
			os.Exit(1)
		}
		defer shutdownTelemetry(srv)
		fmt.Fprintf(os.Stderr, "geosim: telemetry on http://%s/metrics (pprof under /debug/pprof/)\n", srv.Addr)
	}

	ids := []string{*expID}
	if *expID == "all" {
		ids = georoute.FigureIDs()
		ids = append(ids, "fig12a", "fig12b", "fig13", "tableI", "tableII")
	}
	opts := georoute.CampaignOptions{Workers: *workers, TraceDir: *traceDir, Telemetry: reg}
	for _, id := range ids {
		if err := runExperiment(id, *runs, *format, *seeds, *fwd, *progress, opts); err != nil {
			fmt.Fprintf(os.Stderr, "geosim: %v\n", err)
			os.Exit(1)
		}
	}
}

// heartbeat prints "<label>: done/total cells  x cells/s  ETA" to stderr
// every two seconds, fed by CampaignOptions.Progress. Cells replayed from
// a journal count as done but not toward the rate.
type heartbeat struct {
	done, total, replayed atomic.Int64
	quit, exited          chan struct{}
}

func startHeartbeat(label string) *heartbeat {
	h := &heartbeat{quit: make(chan struct{}), exited: make(chan struct{})}
	start := time.Now()
	go func() {
		defer close(h.exited)
		t := time.NewTicker(2 * time.Second)
		defer t.Stop()
		for {
			select {
			case <-h.quit:
				return
			case <-t.C:
			}
			done, total := h.done.Load(), h.total.Load()
			elapsed := time.Since(start).Seconds()
			if total == 0 || elapsed <= 0 {
				continue
			}
			rate := float64(done-h.replayed.Load()) / elapsed
			eta := "n/a"
			if rate > 0 {
				eta = (time.Duration(float64(total-done)/rate) * time.Second).Round(time.Second).String()
			}
			fmt.Fprintf(os.Stderr, "\r%s: %d/%d cells  %.2f cells/s  ETA %-12s", label, done, total, rate, eta)
		}
	}()
	return h
}

// progress has the shape of CampaignOptions.Progress.
func (h *heartbeat) progress(done, total, replayed int, _ string) {
	h.done.Store(int64(done))
	h.total.Store(int64(total))
	h.replayed.Store(int64(replayed))
}

// stop ends the heartbeat and returns once its goroutine has exited.
func (h *heartbeat) stop() {
	close(h.quit)
	<-h.exited
}

// benchWorldResult is the one-line JSON record -bench-world prints. One
// variant per process: the harness (scripts/benchworld.sh) execs geosim
// once per configuration so no variant inherits another's heap growth or
// GC history — the in-process b.Run siblings skew exactly that way (see
// BENCH_engine.json's warm-up note).
type benchWorldResult struct {
	Vehicles     int     `json:"vehicles"`
	Segments     int     `json:"segments"`
	Shards       int     `json:"shards"` // 0 = sequential single-engine world
	Gomaxprocs   int     `json:"gomaxprocs"`
	Queue        string  `json:"queue"`
	SimSeconds   float64 `json:"sim_seconds"`
	BuildSeconds float64 `json:"build_seconds"`
	RunSeconds   float64 `json:"run_seconds"`
	Events       uint64  `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"`
}

// runBenchWorld builds the standard bench geometry (two one-way lanes,
// 500 vehicles per lane per segment, 100 m spacing — the same world as
// BenchmarkWorld*) and times one Run phase.
func runBenchWorld(vehicles, shards int, queue string, simFor time.Duration, seed uint64) int {
	const (
		perLane  = 500
		spawnGap = 100.0
	)
	var kind georoute.QueueKind
	switch queue {
	case "wheel":
		kind = georoute.QueueWheel
	case "heap":
		kind = georoute.QueueHeap
	default:
		fmt.Fprintf(os.Stderr, "geosim: unknown -bench-queue %q (wheel or heap)\n", queue)
		return 2
	}
	segments := vehicles / (2 * perLane)
	if segments == 0 {
		segments = 1
	}
	cfg := georoute.ScaleWorldConfig{
		Seed:        seed,
		Queue:       kind,
		Segments:    segments,
		SegmentRoad: georoute.RoadConfig{Length: spawnGap * (perLane - 1), LanesPerDirection: 2},
		SpawnGap:    spawnGap,
	}
	res := benchWorldResult{
		Segments:   segments,
		Shards:     shards,
		Gomaxprocs: runtime.GOMAXPROCS(0),
		Queue:      queue,
		SimSeconds: simFor.Seconds(),
	}
	buildStart := time.Now()
	var run func(time.Duration)
	var executed func() uint64
	if shards > 0 {
		sw := georoute.BuildShardedScaleWorld(georoute.ShardedScaleWorldConfig{
			ScaleConfig: cfg,
			Shards:      shards,
		})
		res.Vehicles = sw.VehicleCount()
		run, executed = func(d time.Duration) { sw.Run(d) }, sw.Executed
	} else {
		w := georoute.BuildScaleWorld(cfg)
		res.Vehicles = w.VehicleCount()
		run, executed = w.Run, w.Engine.Executed
	}
	res.BuildSeconds = time.Since(buildStart).Seconds()
	runStart := time.Now()
	run(simFor)
	res.RunSeconds = time.Since(runStart).Seconds()
	res.Events = executed()
	res.EventsPerSec = float64(res.Events) / res.RunSeconds
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "geosim: %v\n", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

func printList() {
	fmt.Println("Available experiments:")
	fmt.Println("  tableI      IDM parameters (configuration)")
	fmt.Println("  tableII     DSRC/C-V2X communication ranges (configuration)")
	figs := georoute.Figures()
	for _, id := range georoute.FigureIDs() {
		fmt.Printf("  %-11s %s\n", id, figs[id].Title)
	}
	fmt.Println("  fig12a      Hazard + GF notification: vehicles on road over time")
	fmt.Println("  fig12b      Hazard + CBF notification: vehicles on road over time")
	fmt.Println("  fig13       Blind-curve collision: speed profiles")
	fmt.Println("  all         everything above")
	fmt.Println()
	fmt.Printf("Forwarding strategies (-forwarder): %s\n", strings.Join(georoute.ForwarderNames(), ", "))
	fmt.Println("Campaigns (resumable sweeps): geosim -campaign campaigns/<spec>.json")
}

// runCampaign executes a campaign spec and reports progress on stderr.
// Exit codes: 0 complete, 1 error, 3 interrupted (resume with -resume).
func runCampaign(specPath, resultsDir string, resume bool, maxCells, workers int, traceDir, listen string, progress, detectOn bool) int {
	sp, err := georoute.LoadCampaignSpec(specPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "geosim: %v\n", err)
		return 1
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var reg *georoute.TelemetryRegistry
	if listen != "" || progress {
		reg = georoute.NewTelemetryRegistry()
		georoute.RegisterRuntimeMetrics(reg)
	}
	if listen != "" {
		srv, err := georoute.ServeTelemetry(reg, listen)
		if err != nil {
			fmt.Fprintf(os.Stderr, "geosim: %v\n", err)
			return 1
		}
		// Shutdown (not Close) so a /metrics scrape racing the end of the
		// run is answered before the listener goes away.
		defer shutdownTelemetry(srv)
		fmt.Fprintf(os.Stderr, "geosim: telemetry on http://%s/metrics (pprof under /debug/pprof/)\n", srv.Addr)
	}

	// SIGQUIT (Ctrl-\) dumps goroutine stacks and a telemetry snapshot
	// into the campaign's results directory and keeps running — the
	// live-debugging hatch for a stuck or slow campaign.
	dumpDir := filepath.Join(resultsDir, sp.Name)
	quit := make(chan os.Signal, 1)
	signal.Notify(quit, syscall.SIGQUIT)
	defer signal.Stop(quit)
	go func() {
		for range quit {
			stacks, snap, err := georoute.WriteTelemetryDebugDump(dumpDir, reg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "\ngeosim: debug dump: %v\n", err)
				continue
			}
			fmt.Fprintf(os.Stderr, "\ngeosim: SIGQUIT — wrote %s and %s\n", stacks, snap)
		}
	}()

	start := time.Now()
	var hb *heartbeat
	if progress {
		hb = startHeartbeat("campaign " + sp.Name)
		defer hb.stop()
	}
	last := ""
	info, err := georoute.RunCampaign(ctx, sp, georoute.CampaignOptions{
		ResultsDir: resultsDir,
		Resume:     resume,
		MaxCells:   maxCells,
		Workers:    workers,
		TraceDir:   traceDir,
		Telemetry:  reg,
		Detect:     detectOn,
		Progress: func(done, total, replayed int, key string) {
			if hb != nil {
				hb.progress(done, total, replayed, key)
			}
			if key == "" {
				if replayed > 0 {
					fmt.Fprintf(os.Stderr, "campaign %s: replayed %d/%d cells from journal\n", sp.Name, replayed, total)
				}
				return
			}
			last = key
			fmt.Fprintf(os.Stderr, "\rcampaign %s: %d/%d cells  %-40s", sp.Name, done, total, key)
		},
	})
	if last != "" {
		fmt.Fprintln(os.Stderr)
	}
	switch {
	case errors.Is(err, georoute.ErrCampaignInterrupted):
		fmt.Fprintf(os.Stderr, "geosim: %v\n", err)
		fmt.Fprintf(os.Stderr, "geosim: journal saved — continue with: geosim -campaign %s -resume\n", specPath)
		return 3
	case err != nil:
		fmt.Fprintf(os.Stderr, "geosim: %v\n", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "campaign %s: complete in %v (%d cells: %d replayed, %d executed)\n",
		sp.Name, time.Since(start).Round(time.Second), info.Total, info.Replayed, info.Executed)
	fmt.Printf("artifacts written to %s\n", info.Dir)
	return 0
}

func printJSON(v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func runExperiment(id string, runs int, format string, showcaseSeeds int, forwarder string, progress bool, opts georoute.CampaignOptions) error {
	switch id {
	case "tableI":
		if format == "json" {
			return printJSON(georoute.BuildTablesArtifact())
		}
		printTableI()
		return nil
	case "tableII":
		if format == "json" {
			return printJSON(georoute.BuildTablesArtifact())
		}
		printTableII()
		return nil
	case "fig12a":
		return runHazard(georoute.CaseGF, showcaseSeeds, format)
	case "fig12b":
		return runHazard(georoute.CaseCBF, showcaseSeeds, format)
	case "fig13":
		return runCurve(format)
	}
	fig, ok := georoute.Figures()[id]
	if !ok {
		return fmt.Errorf("unknown experiment %q (try -list)", id)
	}
	if forwarder != "" {
		// Override every arm's strategy; the tournament figures already
		// sweep all of them and are left as defined.
		for i := range fig.Arms {
			fig.Arms[i].Scenario.Forwarder = forwarder
		}
	}
	if format == "json" {
		res, err := runFigure(fig, runs, progress, opts)
		if err != nil {
			return err
		}
		return printJSON(georoute.BuildFigureArtifact(res))
	}
	fmt.Printf("== %s: %s (%d runs/arm) ==\n", fig.ID, fig.Title, runs)
	start := time.Now()
	res, err := runFigure(fig, runs, progress, opts)
	if err != nil {
		return err
	}
	fmt.Printf("-- completed in %v --\n", time.Since(start).Round(time.Second))

	fmt.Println("\nPer-bin reception rates:")
	if format == "csv" {
		fmt.Print(georoute.RenderCSV(res.BinWidth, res.Rates))
	} else {
		fmt.Print(georoute.RenderTable(res.BinWidth, res.Rates))
	}

	fmt.Println("\nOverall reception per arm (mean over runs ± 95% CI):")
	arms := make([]string, 0, len(res.Overall))
	for l := range res.Overall {
		arms = append(arms, l)
	}
	sort.Strings(arms)
	for _, l := range arms {
		fmt.Printf("  %-16s %6.1f%%%s\n", l, 100*res.Overall[l], spreadSuffix(res.ArmSpread[l]))
	}

	fmt.Println("\nDrop rates (γ/λ), measured vs paper:")
	for _, p := range res.Figure.Pairs {
		paper := "   n/a"
		if p.PaperDrop >= 0 {
			paper = fmt.Sprintf("%5.1f%%", 100*p.PaperDrop)
		}
		fmt.Printf("  %-16s measured %5.1f%%   paper %s%s\n",
			p.Label, 100*res.Drops[p.Label], paper, spreadSuffix(res.DropSpread[p.Label]))
	}

	if strings.HasPrefix(id, "fig8") || strings.HasPrefix(id, "fig10") {
		fmt.Println("\nAccumulated drop over time:")
		if format == "csv" {
			fmt.Print(georoute.RenderCSV(res.BinWidth, res.AccumDrops))
		} else {
			fmt.Print(georoute.RenderTable(res.BinWidth, res.AccumDrops))
		}
	}
	fmt.Println()
	return nil
}

// runFigure runs a figure as a journal-less campaign: with opts.TraceDir
// every cell writes <figure>__<arm>__<seed>.jsonl plus its counter rollup,
// opts.Telemetry receives live gauges, and progress prints the heartbeat.
func runFigure(fig georoute.Figure, runs int, progress bool, opts georoute.CampaignOptions) (georoute.FigureResult, error) {
	if progress {
		hb := startHeartbeat(fig.ID)
		defer func() {
			hb.stop()
			fmt.Fprintln(os.Stderr)
		}()
		opts.Progress = hb.progress
	}
	return georoute.RunFigure(context.Background(), fig, runs, opts)
}

// spreadSuffix renders per-run dispersion when there was more than one
// run: sample stddev and the 95% confidence interval of the mean.
func spreadSuffix(s georoute.Spread) string {
	if s.Runs < 2 {
		return ""
	}
	return fmt.Sprintf("   (runs %d: σ=%.1f, 95%% CI %.1f–%.1f%%)",
		s.Runs, 100*s.Stddev, 100*s.CILow, 100*s.CIHigh)
}

func printTableI() {
	fmt.Println("== Table I: Intelligent Driver Model parameters ==")
	fmt.Println("  Desired velocity          30 m/s")
	fmt.Println("  Safe time headway         1.5 s")
	fmt.Println("  Maximum acceleration      1.0 m/s^2")
	fmt.Println("  Comfortable deceleration  3.0 m/s^2")
	fmt.Println("  Acceleration exponent     4")
	fmt.Println("  Minimum distance          2 m")
	fmt.Println("  (vehicle length           4.5 m)")
}

func printTableII() {
	fmt.Println("== Table II: communication ranges (Utah DOT field test) ==")
	fmt.Printf("  %-14s %9s %9s\n", "Comm. range", "DSRC", "C-V2X")
	rows := []struct {
		label string
		class georoute.RangeClass
	}{
		{"LoS (median)", georoute.LoSMedian},
		{"NLoS (median)", georoute.NLoSMedian},
		{"NLoS (worst)", georoute.NLoSWorst},
	}
	for _, r := range rows {
		fmt.Printf("  %-14s %7.0f m %7.0f m\n", r.label,
			georoute.Range(georoute.DSRC, r.class), georoute.Range(georoute.CV2X, r.class))
	}
}

func runHazard(c georoute.HazardCase, seeds int, format string) error {
	art := georoute.RunHazardArtifact(c, seeds)
	if format == "json" {
		return printJSON(art)
	}
	name := "fig12a (GF case)"
	if c == georoute.CaseCBF {
		name = "fig12b (CBF case)"
	}
	fmt.Printf("== %s: vehicles on road over time, %d seeds ==\n", name, seeds)
	af, atk := art.Arms["af"], art.Arms["atk"]
	fmt.Printf("%-8s %12s %12s\n", "t(s)", "af", "atk")
	for i := 0; i < len(af.MeanVehicleCount); i += 10 {
		atkV := 0.0
		if i < len(atk.MeanVehicleCount) {
			atkV = atk.MeanVehicleCount[i]
		}
		fmt.Printf("%-8d %12.1f %12.1f\n", i, af.MeanVehicleCount[i], atkV)
	}
	for _, arm := range []string{"af", "atk"} {
		a := art.Arms[arm]
		fmt.Printf("%s: entrance warned in %d/%d runs", arm, a.GateClosedRuns, seeds)
		if a.GateClosedRuns > 0 {
			fmt.Printf(" (mean %v)", (time.Duration(a.MeanGateCloseSeconds * float64(time.Second))).Round(time.Second))
		}
		fmt.Println()
	}
	fmt.Println()
	return nil
}

func runCurve(format string) error {
	af := georoute.RunCurve(georoute.CurveConfig{Seed: 1})
	atk := georoute.RunCurve(georoute.CurveConfig{Seed: 1, Attacked: true})
	if format == "json" {
		return printJSON(georoute.BuildCurveArtifact(af, atk))
	}
	fmt.Println("== fig13: blind-curve speed profiles ==")
	fmt.Printf("%-8s %10s %10s %10s %10s\n", "t(s)", "V1(af)", "V2(af)", "V1(atk)", "V2(atk)")
	for i := 0; i < len(af.Times); i += 10 {
		row := func(xs []float64) float64 {
			if i < len(xs) {
				return xs[i]
			}
			return 0
		}
		fmt.Printf("%-8.1f %10.1f %10.1f %10.1f %10.1f\n",
			af.Times[i], row(af.V1Speed), row(af.V2Speed), row(atk.V1Speed), row(atk.V2Speed))
	}
	fmt.Printf("af : warning %v -> V2 warned %v, collision=%v (min gap %.1f m)\n",
		af.WarningSentAt.Round(time.Millisecond), af.V2WarnedAt.Round(time.Millisecond), af.Collision, af.MinGap)
	fmt.Printf("atk: warning %v -> V2 warned=%v, collision=%v at %v (min gap %.1f m)\n",
		atk.WarningSentAt.Round(time.Millisecond), atk.V2WarnedAt > 0, atk.Collision,
		atk.CollisionAt.Round(time.Millisecond), atk.MinGap)
	fmt.Println()
	return nil
}
