// Package georoute is a pure-Go reproduction of "Breaking Geographic
// Routing Among Connected Vehicles" (Liu, Shekhar, Peng — DSN 2023).
//
// It contains a complete simulated vehicular networking stack — a
// deterministic discrete-event engine, a unit-disk radio medium with the
// paper's DSRC/C-V2X field-test ranges, an IDM traffic substrate, a
// simulated ITS PKI, and an ETSI EN 302 636-4-1 GeoNetworking router with
// Greedy Forwarding and Contention-Based Forwarding — plus the paper's two
// outsider attacks (inter-area interception, intra-area blockage), its two
// standard-compatible mitigations (GF plausibility check, CBF RHL-drop
// check), and an experiment harness that regenerates every table and
// figure of the paper's evaluation.
//
// # Quick start
//
//	s := georoute.DefaultScenario()
//	s.AttackMode = georoute.AttackInterArea
//	s.AttackRange = georoute.Range(georoute.DSRC, georoute.NLoSWorst)
//	ab := georoute.RunAB(s, 10)
//	fmt.Printf("interception rate γ = %.1f%%\n", 100*ab.DropRate())
//
// Higher-level entry points:
//
//   - Figures returns the registry of runnable paper figures
//     (fig7a…fig14b); RunFigure runs one and produces per-bin reception
//     series, measured γ/λ per arm pair, and the paper-reported values to
//     compare against. RunCampaign runs resumable sweeps of them.
//   - RunHazard and RunCurve reproduce the traffic-efficiency and
//     road-safety showcases (Figs 12 and 13).
//   - BuildWorld exposes the underlying simulation world for custom
//     scenarios (see the examples directory).
package georoute

import (
	"context"
	"io"
	"time"

	"github.com/vanetsec/georoute/internal/attack"
	"github.com/vanetsec/georoute/internal/campaign"
	"github.com/vanetsec/georoute/internal/detect"
	"github.com/vanetsec/georoute/internal/experiment"
	"github.com/vanetsec/georoute/internal/fabric"
	"github.com/vanetsec/georoute/internal/geo"
	"github.com/vanetsec/georoute/internal/geonet"
	"github.com/vanetsec/georoute/internal/metrics"
	"github.com/vanetsec/georoute/internal/mitigation"
	"github.com/vanetsec/georoute/internal/radio"
	"github.com/vanetsec/georoute/internal/showcase"
	"github.com/vanetsec/georoute/internal/sim"
	"github.com/vanetsec/georoute/internal/telemetry"
	"github.com/vanetsec/georoute/internal/trace"
	"github.com/vanetsec/georoute/internal/traffic"
	"github.com/vanetsec/georoute/internal/vanet"
)

// Geometry -----------------------------------------------------------------

// Point is a position on the local plane, in meters.
type Point = geo.Point

// Area is a GeoNetworking destination area (circle, rectangle or ellipse).
type Area = geo.Area

// Pt constructs a Point.
func Pt(x, y float64) Point { return geo.Pt(x, y) }

// NewCircle constructs a circular destination area.
func NewCircle(c Point, r float64) Area { return geo.NewCircle(c, r) }

// NewRect constructs a rectangular destination area with half side
// lengths a (along the azimuth) and b.
func NewRect(c Point, a, b, azimuthDeg float64) Area { return geo.NewRect(c, a, b, azimuthDeg) }

// Radio --------------------------------------------------------------------

// Technology identifies the access-layer technology (DSRC or CV2X).
type Technology = radio.Technology

// RangeClass selects a Table II percentile of the communication range.
type RangeClass = radio.RangeClass

// Access technologies and range classes (paper Table II).
const (
	DSRC = radio.DSRC
	CV2X = radio.CV2X

	LoSMedian  = radio.LoSMedian
	NLoSMedian = radio.NLoSMedian
	NLoSWorst  = radio.NLoSWorst
)

// Range returns the Table II communication range in meters.
func Range(t Technology, c RangeClass) float64 { return radio.Range(t, c) }

// Protocol -----------------------------------------------------------------

// Address is a GeoNetworking address.
type Address = geonet.Address

// Packet is a decoded GeoNetworking PDU.
type Packet = geonet.Packet

// Router is a node's GeoNetworking engine (beaconing, GF, CBF).
type Router = geonet.Router

// PacketKey identifies a packet end-to-end.
type PacketKey = geonet.Key

// Attacks ------------------------------------------------------------------

// AttackType selects one of the paper's attacks.
type AttackType = attack.Type

// Attack modes.
const (
	AttackNone             = attack.None
	AttackInterArea        = attack.InterArea
	AttackIntraArea        = attack.IntraArea
	AttackIntraAreaVariant = attack.IntraAreaVariant
)

// Attacker is the roadside capture-and-replay adversary.
type Attacker = attack.Attacker

// AttackerConfig parameterizes NewAttacker.
type AttackerConfig = attack.Config

// NewAttacker deploys an attacker on a world's medium.
func NewAttacker(cfg AttackerConfig) *Attacker { return attack.NewAttacker(cfg) }

// Mitigations ----------------------------------------------------------------

// Plausibility is the paper's GF mitigation (§V-A): reject next-hop
// candidates whose advertised position is implausibly far.
type Plausibility = mitigation.Plausibility

// RHLDropCheck is the paper's CBF mitigation (§V-B): a duplicate only
// cancels contention when its RHL drop is plausible.
type RHLDropCheck = mitigation.RHLDropCheck

// DefaultRHLMaxDrop is the paper's RHL-drop threshold of 3.
const DefaultRHLMaxDrop = mitigation.DefaultRHLMaxDrop

// World --------------------------------------------------------------------

// World is an assembled simulation: engine, radio, PKI, traffic, routers.
type World = vanet.World

// WorldConfig parameterizes BuildWorld.
type WorldConfig = vanet.Config

// RoadConfig describes road geometry.
type RoadConfig = traffic.RoadConfig

// Vehicle is a simulated car.
type Vehicle = traffic.Vehicle

// BuildWorld assembles a simulation world.
func BuildWorld(cfg WorldConfig) *World { return vanet.New(cfg) }

// AddrOf maps a vehicle to its GeoNetworking address.
func AddrOf(v *Vehicle) Address { return vanet.AddrOf(v) }

// QueueKind selects the engine's scheduler implementation.
type QueueKind = sim.QueueKind

// Scheduler implementations: the hierarchical timing wheel (default) and
// the reference binary heap kept for differential testing and benchmarks.
const (
	QueueWheel = sim.QueueWheel
	QueueHeap  = sim.QueueHeap
)

// ScaleWorldConfig parameterizes BuildScaleWorld.
type ScaleWorldConfig = vanet.ScaleConfig

// BuildScaleWorld assembles a multi-segment world for engine-scale
// benchmarks: several RF-isolated copies of one road segment sharing a
// single engine and medium (see internal/vanet.NewScaleWorld).
func BuildScaleWorld(cfg ScaleWorldConfig) *World { return vanet.NewScaleWorld(cfg) }

// ShardedWorld executes a multi-segment scale world as independent
// per-shard engines advanced in lock-step epochs on a goroutine pool.
// Merged artifacts are byte-identical to the sequential world's
// regardless of worker count, epoch length or goroutine interleaving
// (see internal/vanet.ShardedWorld for the determinism contract).
type ShardedWorld = vanet.ShardedWorld

// ShardedScaleWorldConfig parameterizes BuildShardedScaleWorld.
type ShardedScaleWorldConfig = vanet.ShardedScaleConfig

// BuildShardedScaleWorld partitions a scale world's segments into shards,
// one engine + medium + traffic per shard, coordinated by epoch barriers.
func BuildShardedScaleWorld(cfg ShardedScaleWorldConfig) *ShardedWorld {
	return vanet.NewShardedScaleWorld(cfg)
}

// WorldStats is the canonical merged end-of-run summary produced by both
// sequential and sharded worlds (byte-identical across the two).
type WorldStats = vanet.WorldStats

// Well-known static addresses used by the experiments.
const (
	WestDestAddr = vanet.WestDestAddr
	EastDestAddr = vanet.EastDestAddr
)

// Experiments ----------------------------------------------------------------

// Scenario is a fully parameterized experiment arm.
type Scenario = experiment.Scenario

// Workload selects the traffic pattern (InterArea GUC or IntraArea GBC).
type Workload = experiment.Workload

// Workloads.
const (
	InterArea = experiment.InterArea
	IntraArea = experiment.IntraArea
)

// DefaultScenario returns the paper's default simulation settings (§IV-A).
func DefaultScenario() Scenario { return experiment.Default() }

// Topology selects the world geometry of a scenario.
type Topology = experiment.Topology

// Topologies.
const (
	TopoRoad     = experiment.TopoRoad
	TopoLocalMin = experiment.TopoLocalMin
)

// ForwardStrategy bundles the next-hop and contention policies of one
// registered forwarding strategy (the forwarder arena).
type ForwardStrategy = geonet.Strategy

// DefaultForwarder is the registry name of the standard GF+CBF pair.
const DefaultForwarder = geonet.DefaultForwarder

// ForwarderNames returns the registered strategy names in sorted order.
func ForwarderNames() []string { return geonet.StrategyNames() }

// LookupForwarder resolves a strategy name ("" = the default).
func LookupForwarder(name string) (ForwardStrategy, bool) { return geonet.LookupStrategy(name) }

// RegisterForwarder adds a strategy to the arena; Scenario.Forwarder and
// WorldConfig.Forwarder accept its name afterwards.
func RegisterForwarder(s ForwardStrategy) { geonet.RegisterStrategy(s) }

// RunOnce executes a single seeded run of a scenario arm with the given
// observers threaded through the stack (the zero Observe observes nothing).
func RunOnce(s Scenario, seed uint64, obs Observe) experiment.RunResult {
	return experiment.RunOnce(s, seed, obs)
}

// RunArm executes several seeded runs of one arm and merges the series.
func RunArm(s Scenario, runs int) experiment.RunResult { return experiment.RunArm(s, runs) }

// RunAB executes the attack-free and attacked arms of a scenario.
func RunAB(s Scenario, runs int) metrics.ABResult { return experiment.RunAB(s, runs) }

// Figure is a runnable reproduction of one of the paper's plots.
type Figure = experiment.Figure

// FigureResult carries a figure's measured series and drop rates.
type FigureResult = experiment.FigureResult

// Figures returns the registry of reproducible experiments keyed by ID
// (fig7a…fig14b, fig9-range-sweep, ...).
func Figures() map[string]Figure { return experiment.Figures() }

// FigureIDs returns the registry keys in sorted order.
func FigureIDs() []string { return experiment.FigureIDs() }

// Tracing --------------------------------------------------------------------
//
// The lifecycle tracer (internal/trace) observes every packet event —
// originate, TX, RX, deliver, every categorized drop, CBF arm/cancel,
// GF buffering, unicast losses, attacker captures and replays — without
// changing simulated outcomes. A nil tracer costs nothing on the hot
// receive path.

// Tracer fans packet-lifecycle records out to its sinks.
type Tracer = trace.Tracer

// TraceRecord is one typed lifecycle event.
type TraceRecord = trace.Record

// TraceSink consumes lifecycle records.
type TraceSink = trace.Sink

// TraceMemorySink buffers records in memory (tests, post-run analysis).
type TraceMemorySink = trace.MemorySink

// TraceCounters is the per-node event and drop-reason counter registry.
type TraceCounters = trace.Counters

// FileTracer writes a JSONL trace plus a counter-rollup artifact.
type FileTracer = trace.FileTracer

// TraceAnalysis is the post-hoc per-packet chain reconstruction with the
// conservation check (delivered + dropped + buffered + armed per intake).
type TraceAnalysis = trace.Analysis

// NewTracer builds a tracer over the given sinks (nil when none).
func NewTracer(sinks ...TraceSink) *Tracer { return trace.New(sinks...) }

// NewFileTracer opens a JSONL trace file; Close writes the counter
// rollup next to it.
func NewFileTracer(path string) (*FileTracer, error) { return trace.NewFileTracer(path) }

// AnalyzeTrace reconstructs per-packet hop chains from records and runs
// the conservation check.
func AnalyzeTrace(recs []TraceRecord) *TraceAnalysis { return trace.Analyze(recs) }

// Telemetry ------------------------------------------------------------------
//
// The telemetry registry (internal/telemetry) samples live run and
// campaign state — engine queue depth, events/sec, radio in-flight
// counts, CBF contention-buffer occupancy, campaign progress — into
// lock-free gauge/counter cells, and serves them over HTTP as Prometheus
// text exposition, JSON, and net/http/pprof profiles. A nil registry
// disables everything: handles come back nil and every publish is an
// inlined no-op, so instrumented hot paths cost nothing with telemetry
// off. Sampling is pure observation — simulated outcomes and campaign
// artifacts are byte-identical with telemetry on or off.

// TelemetryRegistry holds live metric cells and serves snapshots.
type TelemetryRegistry = telemetry.Registry

// TelemetrySample is one metric value in a registry snapshot.
type TelemetrySample = telemetry.Sample

// TelemetryServer is a live /metrics + /telemetry.json + /debug/pprof
// HTTP server over a registry.
type TelemetryServer = telemetry.Server

// RunTelemetry bundles the per-run gauge handles sampled by a world.
type RunTelemetry = telemetry.RunGauges

// NewTelemetryRegistry builds an empty registry.
func NewTelemetryRegistry() *TelemetryRegistry { return telemetry.NewRegistry() }

// NewRunTelemetry registers one worker slot's run gauges (nil registry →
// nil, which every sample site tolerates).
func NewRunTelemetry(r *TelemetryRegistry, worker int) *RunTelemetry {
	return telemetry.NewRunGauges(r, worker)
}

// NewShardRunTelemetry registers one engine shard's run gauges: the same
// bundle as NewRunTelemetry with an extra shard label, so several engines
// under one worker publish distinct series instead of clobbering one.
func NewShardRunTelemetry(r *TelemetryRegistry, worker, shard int) *RunTelemetry {
	return telemetry.NewShardRunGauges(r, worker, shard)
}

// RegisterRuntimeMetrics adds Go-runtime memory/GC/goroutine gauges,
// refreshed only when scraped.
func RegisterRuntimeMetrics(r *TelemetryRegistry) { telemetry.RegisterRuntime(r) }

// ServeTelemetry starts the exposition server on addr (":0" picks a free
// port; the resolved address is in Server.Addr).
func ServeTelemetry(r *TelemetryRegistry, addr string) (*TelemetryServer, error) {
	return telemetry.ListenAndServe(r, addr)
}

// WriteTelemetryDebugDump writes a full goroutine stack dump and a
// telemetry snapshot into dir (the SIGQUIT handler's backend) and returns
// both paths.
func WriteTelemetryDebugDump(dir string, r *TelemetryRegistry) (stackPath, snapPath string, err error) {
	return telemetry.WriteDebugDump(dir, r)
}

// ValidateMetricsExposition strict-checks a Prometheus text-format
// exposition (as served on /metrics) for well-formedness.
func ValidateMetricsExposition(r io.Reader) error { return telemetry.ValidateExposition(r) }

// TelemetryHistogram is a fixed-bucket distribution metric exposed as
// Prometheus histogram series (_bucket/_sum/_count); a nil handle makes
// Observe a no-op. Register one via TelemetryRegistry.Histogram.
type TelemetryHistogram = telemetry.Histogram

// HistogramLogBuckets builds n exponentially spaced upper bounds for
// TelemetryRegistry.Histogram (start, start*factor, ...).
func HistogramLogBuckets(start, factor float64, n int) []float64 {
	return telemetry.LogBuckets(start, factor, n)
}

// Observe bundles the optional per-run observers (lifecycle tracer,
// telemetry gauges, misbehavior-detection monitors).
type Observe = experiment.Observe

// Misbehavior detection --------------------------------------------------
//
// The detection layer (internal/detect) runs per-node plausibility
// monitors on the router's receive path as pure observers — beacon
// inter-arrival, position plausibility, replay recency, LocT churn —
// and aggregates their verdicts per run. Like tracing and telemetry, a
// nil Detector disables everything at zero cost and simulated outcomes
// are byte-identical with detection on or off. Campaigns run with
// CampaignOptions.Detect fold run summaries into detection.json.

// Detector aggregates misbehavior verdicts for one run and hands out
// per-node monitors (nil = disabled).
type Detector = detect.Detector

// DetectorConfig tunes detection thresholds, ground-truth labeling, and
// the optional verdict sink and histograms.
type DetectorConfig = detect.Config

// DetectMonitor is one node's plausibility monitor.
type DetectMonitor = detect.Monitor

// DetectCheck identifies one plausibility-monitor class.
type DetectCheck = detect.Check

// Plausibility-monitor classes.
const (
	DetectCheckBeacon   = detect.CheckBeacon
	DetectCheckPosition = detect.CheckPosition
	DetectCheckReplay   = detect.CheckReplay
	DetectCheckChurn    = detect.CheckChurn
)

// DetectVerdict is one detection event (node accuses suspect, with
// evidence).
type DetectVerdict = detect.Verdict

// DetectSummary is one run's aggregate detection outcome.
type DetectSummary = detect.Summary

// DetectArmSummary is the per-arm detection report folded into
// detection.json (recall, mean latency, per-check precision).
type DetectArmSummary = detect.ArmSummary

// DetectionArtifact is results/<campaign>/detection.json.
type DetectionArtifact = campaign.DetectionArtifact

// AttackerPseudonym is the default link-layer identity the attacker
// replays under — the ground-truth label detection compares suspects
// against.
const AttackerPseudonym = attack.DefaultPseudonym

// NewDetector builds a run-scoped detector with defaults applied.
func NewDetector(cfg DetectorConfig) *Detector { return detect.New(cfg) }

// ReplayDetect runs the offline detector over a recorded lifecycle trace
// (geotrace -detect): the same plausibility checks the online monitors
// run, reconstructed from RX and drop records.
func ReplayDetect(recs []TraceRecord, cfg DetectorConfig) *Detector {
	return detect.Replay(recs, cfg)
}

// Campaigns ------------------------------------------------------------------
//
// A campaign runs a declarative experiment sweep — (figure × arm × seed)
// cells over the registry, plus optional showcases — as a resumable job:
// every completed cell is journaled to results/<name>/journal.jsonl, a
// restart replays the journal and executes only the missing cells, and
// the finalize step writes per-figure JSON artifacts whose bytes are
// identical whether or not the campaign was interrupted.

// CampaignSpec declares a campaign (see the campaigns/ directory).
type CampaignSpec = campaign.Spec

// CampaignOptions tunes a campaign run (results directory, worker count,
// resume).
type CampaignOptions = campaign.Options

// CampaignInfo summarizes a finished or interrupted campaign run.
type CampaignInfo = campaign.Info

// CampaignCell identifies one runnable unit of a campaign.
type CampaignCell = campaign.Cell

// ErrCampaignInterrupted reports a campaign stopped before completing;
// rerun with Resume to continue it.
var ErrCampaignInterrupted = campaign.ErrInterrupted

// LoadCampaignSpec reads and validates a JSON campaign spec.
func LoadCampaignSpec(path string) (CampaignSpec, error) { return campaign.LoadSpec(path) }

// RunCampaign executes (or resumes) a campaign.
func RunCampaign(ctx context.Context, sp CampaignSpec, opts CampaignOptions) (CampaignInfo, error) {
	return campaign.Run(ctx, sp, opts)
}

// RunFigure runs one figure with `runs` seeds per arm through the campaign
// executor, without a journal, and returns its folded result. Of opts it
// reads Workers, TraceDir, Telemetry, Detect and Progress.
func RunFigure(ctx context.Context, fig Figure, runs int, opts CampaignOptions) (FigureResult, error) {
	return campaign.RunFigure(ctx, fig, runs, opts)
}

// ParseCampaignCellKey inverts CampaignCell.Key ("<figure>/<arm>/<seed>"
// — the identity the journal and the fabric lease protocol share).
func ParseCampaignCellKey(key string) (CampaignCell, error) { return experiment.ParseCellKey(key) }

// Distributed campaign fabric ----------------------------------------------
//
// The fabric shards a campaign's cells across worker processes (and
// machines): an HTTP coordinator leases cells with heartbeat-renewed
// leases, requeues expired leases, retries failures with backoff, and
// appends completions to the standard campaign journal — so the merged
// artifacts are byte-identical to a single-process run. See geosim -serve
// / -worker / -submit and scripts/fabric-local.sh.

// Default fabric tuning knobs (lease lifetime without a heartbeat, and
// the per-cell retry budget after failures or expiries).
const (
	DefaultFabricLeaseTTL   = fabric.DefaultLeaseTTL
	DefaultFabricMaxRetries = fabric.DefaultMaxRetries
)

// FabricCoordinator is the distributed-campaign control plane.
type FabricCoordinator = fabric.Coordinator

// FabricCoordinatorConfig tunes a coordinator (results dir, lease TTL,
// retry budget, telemetry registry).
type FabricCoordinatorConfig = fabric.CoordinatorConfig

// FabricWorker pulls cell leases from a coordinator and executes them
// with the single-process execution path.
type FabricWorker = fabric.Worker

// FabricWorkerConfig tunes a worker (coordinator URL, id, poll interval).
type FabricWorkerConfig = fabric.WorkerConfig

// FabricClient is the typed HTTP client for the coordinator API
// (submit/status/drain), used by geosim's client modes.
type FabricClient = fabric.Client

// FabricCampaignStatus is one campaign's progress snapshot.
type FabricCampaignStatus = fabric.CampaignStatus

// FabricStatusResponse is the full coordinator snapshot.
type FabricStatusResponse = fabric.StatusResponse

// NewFabricCoordinator builds a coordinator and starts its lease-expiry
// sweeper; Close it to flush journals.
func NewFabricCoordinator(cfg FabricCoordinatorConfig) *FabricCoordinator {
	return fabric.NewCoordinator(cfg)
}

// NewFabricWorker builds a fabric worker.
func NewFabricWorker(cfg FabricWorkerConfig) *FabricWorker { return fabric.NewWorker(cfg) }

// NewFabricClient builds a coordinator API client for the base URL.
func NewFabricClient(base string) *FabricClient { return fabric.NewClient(base) }

// FigureArtifact is the machine-readable per-figure result written by
// campaign finalization and by geosim -format json.
type FigureArtifact = campaign.FigureArtifact

// HazardArtifact is the machine-readable Figure 12 showcase result.
type HazardArtifact = campaign.HazardArtifact

// CurveArtifact is the machine-readable Figure 13 showcase result.
type CurveArtifact = campaign.CurveArtifact

// TablesArtifact is the machine-readable Table I/II configuration.
type TablesArtifact = campaign.TablesArtifact

// BuildFigureArtifact converts a FigureResult into its artifact form.
func BuildFigureArtifact(res FigureResult) FigureArtifact {
	return campaign.BuildFigureArtifact(res)
}

// BuildCurveArtifact assembles the Figure 13 artifact from a run pair.
func BuildCurveArtifact(free, attacked CurveResult) CurveArtifact {
	return campaign.BuildCurveArtifact(free, attacked)
}

// BuildTablesArtifact assembles the configuration artifact.
func BuildTablesArtifact() TablesArtifact { return campaign.BuildTablesArtifact() }

// RunHazardArtifact runs a Figure 12 case over several seeds and folds it
// with the campaign aggregation.
func RunHazardArtifact(c HazardCase, seeds int) HazardArtifact {
	return campaign.RunHazardArtifact(c, seeds)
}

// Metrics --------------------------------------------------------------------

// ABResult pairs attack-free and attacked measurement series. RunAB
// populates its Spread fields with per-run dispersion statistics.
type ABResult = metrics.ABResult

// BinSeries accumulates per-time-bin reception rates.
type BinSeries = metrics.BinSeries

// Spread reports per-run dispersion (sample mean, stddev, 95% CI).
type Spread = metrics.Spread

// RenderTable renders labeled per-bin series as an aligned text table.
func RenderTable(width time.Duration, series map[string][]float64) string {
	return metrics.Table(width, series)
}

// RenderCSV renders labeled per-bin series as CSV.
func RenderCSV(width time.Duration, series map[string][]float64) string {
	return metrics.CSV(width, series)
}

// Showcases ------------------------------------------------------------------

// HazardCase selects a Figure 12 case (CaseGF or CaseCBF).
type HazardCase = showcase.HazardCase

// Figure 12 cases.
const (
	CaseGF  = showcase.CaseGF
	CaseCBF = showcase.CaseCBF
)

// HazardConfig parameterizes RunHazard.
type HazardConfig = showcase.HazardConfig

// HazardResult is the outcome of a Figure 12 run.
type HazardResult = showcase.HazardResult

// RunHazard executes a Figure 12 traffic-efficiency scenario.
func RunHazard(cfg HazardConfig) HazardResult { return showcase.RunHazard(cfg) }

// CurveConfig parameterizes RunCurve.
type CurveConfig = showcase.CurveConfig

// CurveResult is the outcome of a Figure 13 run.
type CurveResult = showcase.CurveResult

// RunCurve executes the Figure 13 blind-curve road-safety scenario.
func RunCurve(cfg CurveConfig) CurveResult { return showcase.RunCurve(cfg) }
