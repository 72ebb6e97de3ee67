package experiment

import (
	"math/rand/v2"
	"runtime"
	"sync"
	"time"

	"github.com/vanetsec/georoute/internal/attack"
	"github.com/vanetsec/georoute/internal/detect"
	"github.com/vanetsec/georoute/internal/geo"
	"github.com/vanetsec/georoute/internal/geonet"
	"github.com/vanetsec/georoute/internal/metrics"
	"github.com/vanetsec/georoute/internal/mitigation"
	"github.com/vanetsec/georoute/internal/telemetry"
	"github.com/vanetsec/georoute/internal/trace"
	"github.com/vanetsec/georoute/internal/traffic"
	"github.com/vanetsec/georoute/internal/vanet"
)

// tracked is the bookkeeping for one generated packet.
type tracked struct {
	sentAt time.Duration
	// InterArea: the destination address that must receive the packet.
	dest geonet.Address
	// IntraArea: the on-road population at send time and who of it
	// received the packet.
	targets  map[geonet.Address]bool
	received map[geonet.Address]bool
}

// RunResult carries the measured series of a single arm plus run-level
// diagnostics.
type RunResult struct {
	Series *metrics.BinSeries
	// PacketsSent counts generated packets across all merged runs.
	PacketsSent int
	// AttackerStats aggregates the attacker counters (zero for af arms).
	AttackerStats attack.Stats
	// Protocol aggregates the GeoNetworking counters of every router in
	// the run (including despawned vehicles) — the per-reason drop
	// rollup surfaced in the JSON artifacts.
	Protocol geonet.Stats
	// Events counts simulation events executed by the run's engine, a
	// determinism-stable measure of work used by per-cell resource
	// accounting. Excluded from figure artifacts.
	Events uint64
	// LatencySumSeconds and LatencyCount fold the end-to-end latency of
	// every FIRST delivery (per packet per receiver) across merged runs;
	// their ratio is the arm's mean delivery latency. Both fold in seed
	// order so campaign aggregation reproduces them bit-identically.
	LatencySumSeconds float64
	LatencyCount      uint64
	// Detection is the run's misbehavior-detection summary, present only
	// when the run was observed with Observe.Detect. Like per-cell
	// resources it lives outside the byte-identity surface: campaign
	// aggregation folds it into detection.json, never summary.json.
	Detection *detect.Summary `json:"Detection,omitempty"`
}

// Observe bundles the optional observability sinks of a run: the packet-
// lifecycle tracer (internal/trace), the runtime-health gauge bundle
// (internal/telemetry), and the misbehavior-detection monitors
// (internal/detect). Everything may be nil/false; the zero Observe is an
// unobserved run.
type Observe struct {
	Tracer *trace.Tracer
	Gauges *telemetry.RunGauges
	// Detect arms per-node plausibility monitors for the run. Ground
	// truth is labeled from the scenario (the attacker's replay pseudonym
	// on attack arms; no suspect is ever true on attack-free arms), and
	// the run result gains a Detection summary. Pure observation: the
	// measured series are bit-identical with detection on or off.
	Detect bool
	// Verdicts, when non-nil alongside Detect, receives every individual
	// verdict (evidence rendered). Campaign runs leave it nil and keep
	// only the aggregate summary.
	Verdicts func(detect.Verdict)
}

// RunOnce executes a single seeded run of the scenario arm with the given
// observability sinks threaded through the world (see Observe; the zero
// Observe is an unobserved run) and returns its bin series. No sink
// influences the event stream, so the measured series are identical with
// or without them. A tracer's sinks see the run's records from a single
// goroutine, but distinct concurrent runs need distinct tracers.
func RunOnce(s Scenario, seed uint64, obs Observe) RunResult {
	tr := obs.Tracer
	reg := make(map[geonet.Key]*tracked)

	var cfgFilter geonet.ForwardFilter
	if s.PlausibilityThreshold > 0 {
		cfgFilter = mitigation.Plausibility{Threshold: s.PlausibilityThreshold}
	}
	var cfgRule geonet.DuplicateRule
	if s.RHLMaxDrop > 0 {
		cfgRule = mitigation.RHLDropCheck{MaxDrop: s.RHLMaxDrop}
	}

	var det *detect.Detector
	if obs.Detect {
		dcfg := detect.Config{Sink: obs.Verdicts}
		if s.AttackMode != attack.None {
			// The attacker replays under its pseudonym from t=0; any
			// verdict naming it is a true detection.
			pseudonym := uint64(attack.DefaultPseudonym)
			dcfg.Truth = func(suspect uint64) bool { return suspect == pseudonym }
		}
		if g := obs.Gauges; g != nil {
			dcfg.LatencyHist = g.DetectLatency
			dcfg.BeaconGapHist = g.DetectBeaconGap
			dcfg.PosErrorHist = g.DetectPosError
		}
		det = detect.New(dcfg)
	}

	var w *vanet.World
	// sent lists the tracked packets in send order: the series folds them
	// in this order, so float sums are the same on every run (map order
	// is not).
	var sent []*tracked
	track := func(key geonet.Key, t *tracked) {
		t.sentAt = w.Engine.Now()
		t.received = make(map[geonet.Address]bool)
		reg[key] = t
		sent = append(sent, t)
	}

	var latSum float64
	var latCount uint64
	firstDelivery := func(t *tracked, addr geonet.Address) {
		if t.received[addr] {
			return
		}
		t.received[addr] = true
		latSum += (w.Engine.Now() - t.sentAt).Seconds()
		latCount++
	}
	w = vanet.New(vanet.Config{
		Seed:             seed,
		Tech:             s.Tech,
		RangeClass:       s.VehicleRangeClass,
		Road:             traffic.RoadConfig{Length: s.RoadLength, LanesPerDirection: s.LanesPerDirection, TwoWay: s.TwoWay},
		SpawnGap:         s.Spacing,
		Prepopulate:      s.Prepopulate && s.Topology == TopoRoad,
		SpawnDisabled:    s.Topology == TopoLocalMin,
		LocTTTL:          s.LocTTTL,
		NeighborLifetime: s.NeighborLifetime,
		MaxHopLimit:      s.MaxHopLimit,
		EdgeFactor:       s.RadioEdgeFactor,
		Forwarder:        s.Forwarder,
		ForwardFilter:    cfgFilter,
		DuplicateRule:    cfgRule,
		Tracer:           tr,
		Telemetry:        obs.Gauges,
		Detector:         det,
		OnDeliver: func(addr geonet.Address, p *geonet.Packet) {
			t, ok := reg[p.Key()]
			if !ok {
				return
			}
			switch s.Workload {
			case InterArea:
				if addr == t.dest {
					firstDelivery(t, addr)
				}
			case IntraArea:
				if t.targets[addr] {
					firstDelivery(t, addr)
				}
			}
		},
	})

	switch {
	case s.Topology == TopoLocalMin:
		src, relays, dest := LocalMinLayout(s.VehicleRange())
		w.AddStatic(LocalMinSourceAddr, src, 0)
		for i, p := range relays {
			w.AddStatic(LocalMinSourceAddr+1+geonet.Address(i), p, 0)
		}
		w.AddStatic(vanet.EastDestAddr, dest, 0)
	case s.Workload == InterArea:
		w.AddStatic(vanet.WestDestAddr, geo.Pt(-20, 0), 0)
		w.AddStatic(vanet.EastDestAddr, geo.Pt(s.RoadLength+20, 0), 0)
	}

	var atk *attack.Attacker
	if s.AttackMode != attack.None {
		ax, ay := s.AttackerPosition()
		atk = attack.NewAttacker(attack.Config{
			Engine:          w.Engine,
			Medium:          w.Medium,
			Position:        geo.Pt(ax, ay),
			Range:           s.AttackRange,
			ProcessingDelay: s.AttackerDelay,
			Mode:            s.AttackMode,
			Tracer:          tr,
		})
	}

	// The workload generator has its own RNG stream so the packet
	// population is identical across A/B arms.
	wrand := rand.New(rand.NewPCG(seed^0x9e3779b97f4a7c15, seed+0x632be59bd9b4e019))
	area := geo.NewRect(geo.Pt(s.RoadLength/2, 0), s.RoadLength/2, 30, 90)

	generate := func() {
		if s.Topology == TopoLocalMin {
			// The static source unicasts toward the east destination; the
			// interesting behaviour is how each forwarder copes with the
			// designed dead end, not who sends.
			r := w.Router(LocalMinSourceAddr)
			if r == nil {
				return
			}
			_, _, destPos := LocalMinLayout(s.VehicleRange())
			track(r.SendGeoUnicast(vanet.EastDestAddr, destPos, nil), &tracked{dest: vanet.EastDestAddr})
			return
		}
		switch s.Workload {
		case InterArea:
			type pair struct {
				v   *traffic.Vehicle
				dst geonet.Address
			}
			var pairs []pair
			for _, v := range w.Vehicles() {
				x := v.X()
				if s.VulnerableEast(x) {
					pairs = append(pairs, pair{v, vanet.EastDestAddr})
				}
				if s.VulnerableWest(x) {
					pairs = append(pairs, pair{v, vanet.WestDestAddr})
				}
			}
			if len(pairs) == 0 {
				return
			}
			p := pairs[wrand.IntN(len(pairs))]
			r := w.RouterOf(p.v)
			if r == nil {
				return
			}
			destPos := geo.Pt(-20, 0)
			if p.dst == vanet.EastDestAddr {
				destPos = geo.Pt(s.RoadLength+20, 0)
			}
			track(r.SendGeoUnicast(p.dst, destPos, nil), &tracked{dest: p.dst})
		case IntraArea:
			vs := w.Vehicles()
			if len(vs) == 0 {
				return
			}
			src := vs[wrand.IntN(len(vs))]
			r := w.RouterOf(src)
			if r == nil {
				return
			}
			targets := make(map[geonet.Address]bool, len(vs))
			for _, v := range vs {
				if v.ID == src.ID {
					continue
				}
				targets[vanet.AddrOf(v)] = true
			}
			track(r.SendGeoBroadcast(area, nil), &tracked{targets: targets})
		}
	}

	// Generate from t=1s through the end of the window, then drain.
	for t := s.PacketInterval; t <= s.Duration; t += s.PacketInterval {
		w.Engine.ScheduleAt(t, "experiment.generate", generate)
	}
	w.Run(s.Duration + s.Drain)
	// Flush the tail between the last probe firing and the end of the run
	// so telemetry counters account for every event.
	w.SampleTelemetry()

	series := metrics.NewBinSeries(s.Duration, s.BinWidth)
	for _, t := range sent {
		switch s.Workload {
		case InterArea:
			v := 0.0
			if t.received[t.dest] {
				v = 1
			}
			series.Add(t.sentAt, v)
		case IntraArea:
			if len(t.targets) == 0 {
				continue
			}
			series.Add(t.sentAt, float64(len(t.received))/float64(len(t.targets)))
		}
	}
	res := RunResult{
		Series:            series,
		PacketsSent:       len(reg),
		Protocol:          w.ProtocolStats(),
		Events:            w.Engine.Executed(),
		LatencySumSeconds: latSum,
		LatencyCount:      latCount,
	}
	if atk != nil {
		res.AttackerStats = atk.Stats()
	}
	res.Detection = det.Summary()
	return res
}

// runJob is one seeded RunOnce executed by the shared worker pool.
type runJob struct {
	s    Scenario
	seed uint64
	out  *RunResult
}

// runJobs executes every job on MaxParallel() workers pulling from one
// shared queue. Jobs are independent seeded runs writing to disjoint
// result slots, so the output is deterministic regardless of scheduling.
func runJobs(jobs []runJob) {
	workers := MaxParallel()
	if workers > len(jobs) {
		workers = len(jobs)
	}
	ch := make(chan runJob)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range ch {
				*j.out = RunOnce(j.s, j.seed, Observe{})
			}
		}()
	}
	for _, j := range jobs {
		ch <- j
	}
	close(ch)
	wg.Wait()
}

// armJobs appends one job per seeded repetition of an arm.
func armJobs(jobs []runJob, s Scenario, out []RunResult) []runJob {
	for i := range out {
		jobs = append(jobs, runJob{s: s, seed: s.Seed + uint64(i), out: &out[i]})
	}
	return jobs
}

// mergeRuns folds per-run results into one RunResult.
func mergeRuns(out []RunResult) RunResult {
	merged := out[0]
	for _, r := range out[1:] {
		merged.Series.Merge(r.Series)
		merged.PacketsSent += r.PacketsSent
		merged.AttackerStats.Add(r.AttackerStats)
		merged.Protocol.Add(r.Protocol)
		merged.Events += r.Events
		merged.LatencySumSeconds += r.LatencySumSeconds
		merged.LatencyCount += r.LatencyCount
	}
	// Per-run detection summaries don't sum into one run's summary;
	// arm-level folding is detect.Fold's job (campaign aggregation).
	merged.Detection = nil
	return merged
}

// RunArm executes `runs` seeded repetitions of one arm in parallel and
// merges their series. Results are deterministic for a given (scenario,
// runs) pair regardless of scheduling.
func RunArm(s Scenario, runs int) RunResult {
	if runs <= 0 {
		runs = 1
	}
	out := make([]RunResult, runs)
	runJobs(armJobs(nil, s, out))
	return mergeRuns(out)
}

// armSpread folds each run's overall reception rate into a Welford stream
// in seed order (the canonical feeding order shared with the campaign
// aggregator, so both report bit-identical statistics).
func armSpread(out []RunResult) metrics.Spread {
	var st metrics.Stream
	for i := range out {
		st.Add(out[i].Series.Overall())
	}
	return st.Spread()
}

// pairedDropSpread folds the per-seed-pair drop rates (γ/λ of run i's
// attack-free series against run i's attacked series) into a spread, again
// in seed order.
func pairedDropSpread(free, atk []RunResult) metrics.Spread {
	var st metrics.Stream
	n := len(free)
	if len(atk) < n {
		n = len(atk)
	}
	for i := 0; i < n; i++ {
		st.Add(metrics.ABResult{Free: free[i].Series, Attacked: atk[i].Series}.DropRate())
	}
	return st.Spread()
}

// RunAB executes the attack-free and attacked arms of a scenario and
// returns the paired result, including per-run spread statistics (overall
// reception per arm and the seed-paired drop rate). Both arms' runs feed
// one shared worker pool: with 2×runs independent jobs in flight the tail
// of the first arm no longer idles most cores the way running the arms
// back-to-back did.
func RunAB(s Scenario, runs int) metrics.ABResult {
	if runs <= 0 {
		runs = 1
	}
	freeOut := make([]RunResult, runs)
	atkOut := make([]RunResult, runs)
	jobs := make([]runJob, 0, 2*runs)
	jobs = armJobs(jobs, s.withoutAttack(), freeOut)
	jobs = armJobs(jobs, s, atkOut)
	runJobs(jobs)
	// Spreads read per-run series and must run before mergeRuns, which
	// folds every run into the first slot's series in place.
	res := metrics.ABResult{
		FreeSpread:     armSpread(freeOut),
		AttackedSpread: armSpread(atkOut),
		DropSpread:     pairedDropSpread(freeOut, atkOut),
	}
	res.Free = mergeRuns(freeOut).Series
	res.Attacked = mergeRuns(atkOut).Series
	return res
}

// MaxParallel reports the worker count used by the shared run pools: one
// fewer than the CPU count so an interactive shell (or the campaign's
// journal writer) stays responsive, and never less than one.
func MaxParallel() int {
	n := runtime.NumCPU() - 1
	if n < 1 {
		n = 1
	}
	return n
}
