package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"github.com/vanetsec/georoute"
)

// workload is one benchmark input set. unit runs one closed-loop unit of
// it: a whole campaign, or one world built and run.
type workload struct {
	name string
	unit func(seed uint64, traced bool) (unit, error)
	// setup sets the workload up once more, outside any unit, and
	// returns the set-up time; extra samples steady the set-up median.
	setup func(seed uint64) (time.Duration, error)
	// before, when set, runs ahead of the measured units and returns
	// checks to apply to them.
	before func(seed uint64) func(units []unit) []check
}

// unit is one measured execution of a workload.
type unit struct {
	start      time.Time
	setup      time.Duration // start to the first simulated event
	timed      time.Duration // the phase sim_s_per_s is taken over
	simSeconds float64       // simulated seconds advanced in the timed phase
	cpu        time.Duration // process CPU over the timed phase
	cells      []float64     // campaign cell walls; a world's Run wall
	checks     []check
	outputs    map[string]any     // outputs compared with the reference and across units
	counts     map[string]float64 // per-layer counts of this unit
	spans      []timedSpan
}

// check is one correctness verdict; err is nil when it passed.
type check struct {
	name string
	err  error
}

// The fig7a-ab spec is campaigns/smoke.json, name included, so its
// artifacts are byte-comparable with a geosim run of that file.
var workloads = map[string]workload{
	"fig7a-ab":           campaignWorkload("fig7a-ab", georoute.CampaignSpec{Name: "smoke", Runs: 2, Figures: []string{"fig7a"}}, false),
	"fig9a-detect":       campaignWorkload("fig9a-detect", georoute.CampaignSpec{Name: "fig9a-detect", Runs: 2, Figures: []string{"fig9a"}}, true),
	"world-100k":         worldWorkload("world-100k", false),
	"world-100k-sharded": worldWorkload("world-100k-sharded", true),
}

func campaignWorkload(name string, spec georoute.CampaignSpec, detect bool) workload {
	return workload{
		name:  name,
		unit:  func(_ uint64, traced bool) (unit, error) { return runCampaign(name, spec, detect, traced) },
		setup: func(uint64) (time.Duration, error) { return campaignSetup(spec, detect) },
	}
}

func worldWorkload(name string, sharded bool) workload {
	wl := workload{
		name: name,
		unit: func(seed uint64, traced bool) (unit, error) { return runWorld(seed, sharded, traced), nil },
		setup: func(seed uint64) (time.Duration, error) {
			start := time.Now()
			buildWorld(seed, sharded)
			return time.Since(start), nil
		},
	}
	if sharded {
		wl.before = sequentialReference
	}
	return wl
}

func workloadNames() string { return strings.Join(sortedKeys(workloads), ", ") }

// Campaigns ------------------------------------------------------------------

// campaignArtifacts are the finalized files compared with the reference;
// resources.json and the journal carry wall-clock measurements.
var campaignArtifacts = map[string][]string{
	"fig7a-ab":     {"fig7a.json", "summary.json"},
	"fig9a-detect": {"fig9a.json", "summary.json", "detection.json"},
}

// journalCell is the part of a journaled cell result the harness reads.
type journalCell struct {
	Run struct {
		Protocol      map[string]float64
		AttackerStats map[string]float64
		Events        float64
		Detection     *struct {
			Verdicts float64 `json:"verdicts"`
		}
	} `json:"run"`
	Resources struct {
		WallSeconds float64 `json:"wall_s"`
	} `json:"resources"`
}

// runCampaign runs one campaign in-process in a fresh results directory
// and checks its journal and artifacts.
func runCampaign(name string, spec georoute.CampaignSpec, detect, traced bool) (unit, error) {
	dir, err := os.MkdirTemp(buildDir, "campaign-")
	if err != nil {
		return unit{}, err
	}
	defer os.RemoveAll(dir)

	var marks []progressMark
	opts := campaignOptions(dir, detect, &marks)
	var poll *gaugePoller
	if traced {
		opts.Telemetry = georoute.NewTelemetryRegistry()
		poll = startGaugePoller(opts.Telemetry)
	}
	rt0 := readRuntime()
	cpu0 := cpuTime()
	start := time.Now()
	info, err := georoute.RunCampaign(context.Background(), spec, opts)
	end := time.Now()
	cpu := cpuTime() - cpu0
	rt := readRuntime().since(rt0)
	var gaugeMax map[string]float64
	if poll != nil {
		gaugeMax = poll.stop()
	}
	if err != nil {
		return unit{}, err
	}
	if len(marks) == 0 {
		return unit{}, errors.New("campaign ran no cells")
	}

	journal := filepath.Join(info.Dir, "journal.jsonl")
	cells, outputs, err := readJournal(journal)
	if err != nil {
		return unit{}, err
	}
	u := unit{start: start, outputs: outputs, counts: rt.counts()}
	firstStart, lastDone := end, start
	proto, attacker := map[string]float64{}, map[string]float64{}
	for _, m := range marks {
		c, ok := cells[m.key]
		if !ok {
			return unit{}, fmt.Errorf("cell %s reported but not journaled", m.key)
		}
		cellStart := m.at.Add(-time.Duration(c.Resources.WallSeconds * float64(time.Second)))
		if cellStart.Before(firstStart) {
			firstStart = cellStart
		}
		if m.at.After(lastDone) {
			lastDone = m.at
		}
		u.cells = append(u.cells, c.Resources.WallSeconds)
		u.spans = append(u.spans, timedSpan{name: "cell " + m.key, start: cellStart, end: m.at})
		sim, err := cellSimSeconds(m.key)
		if err != nil {
			return unit{}, err
		}
		u.simSeconds += sim
		for k, v := range c.Run.Protocol {
			proto[k] += v
		}
		for k, v := range c.Run.AttackerStats {
			attacker[k] += v
		}
		u.counts["sim.events"] += c.Run.Events
		if c.Run.Detection != nil {
			u.counts["detect.verdicts"] += c.Run.Detection.Verdicts
		}
	}
	u.setup = firstStart.Sub(start)
	u.timed = lastDone.Sub(firstStart)
	u.cpu = cpu
	u.spans = append(u.spans,
		timedSpan{name: "setup", start: start, end: firstStart},
		timedSpan{name: "finalize", start: lastDone, end: end})
	addProtocolCounts(u.counts, proto)
	u.counts["attack.replays"] = attacker["BeaconsReplayed"] + attacker["PacketsReplayed"]
	u.counts["campaign.finalize_s"] = end.Sub(lastDone).Seconds()
	if st, err := os.Stat(journal); err == nil {
		u.counts["campaign.journal_bytes"] = float64(st.Size())
	}
	if traced {
		addTelemetryCounts(u.counts, opts.Telemetry.Snapshot(), gaugeMax)
	}

	for _, a := range campaignArtifacts[name] {
		b, err := os.ReadFile(filepath.Join(info.Dir, a))
		if err != nil {
			return unit{}, err
		}
		var v any
		if err := json.Unmarshal(b, &v); err != nil {
			return unit{}, fmt.Errorf("%s: %w", a, err)
		}
		outputs[a] = v
	}
	if len(cells) != info.Total || info.Executed != info.Total {
		u.checks = append(u.checks, check{name: "cell count", err: fmt.Errorf("journaled %d, executed %d of %d", len(cells), info.Executed, info.Total)})
	}
	u.checks = append(u.checks, checkReference(name, 0, outputs, u.counts)...)
	bands, err := campaignBands(filepath.Join(info.Dir, "summary.json"))
	if err != nil {
		return unit{}, err
	}
	u.checks = append(u.checks, bands...)
	return u, nil
}

// progressMark is one Progress call: the cell key finished at at.
type progressMark struct {
	at  time.Time
	key string
}

// campaignOptions runs a campaign in dir, recording each finished cell.
func campaignOptions(dir string, detect bool, marks *[]progressMark) georoute.CampaignOptions {
	return georoute.CampaignOptions{
		ResultsDir: dir,
		Workers:    max(1, runtime.NumCPU()-1),
		Detect:     detect,
		Progress: func(_, _, _ int, key string) {
			if key != "" { // the up-front call reports replayed cells
				*marks = append(*marks, progressMark{time.Now(), key})
			}
		},
	}
}

// campaignSetup runs a campaign only up to its first cell (MaxCells 1)
// and returns its set-up time, taken as for a whole campaign.
func campaignSetup(spec georoute.CampaignSpec, detect bool) (time.Duration, error) {
	dir, err := os.MkdirTemp(buildDir, "campaign-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	var marks []progressMark
	opts := campaignOptions(dir, detect, &marks)
	opts.MaxCells = 1
	start := time.Now()
	info, err := georoute.RunCampaign(context.Background(), spec, opts)
	if !errors.Is(err, georoute.ErrCampaignInterrupted) || len(marks) != 1 {
		return 0, fmt.Errorf("set-up probe ran %d cells: %v", len(marks), err)
	}
	cells, _, err := readJournal(filepath.Join(info.Dir, "journal.jsonl"))
	if err != nil {
		return 0, err
	}
	wall := time.Duration(cells[marks[0].key].Resources.WallSeconds * float64(time.Second))
	return marks[0].at.Add(-wall).Sub(start), nil
}

// readJournal returns each journaled cell, and its result without the
// wall-clock resources block as a generic JSON value.
func readJournal(path string) (map[string]journalCell, map[string]any, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	cells := map[string]journalCell{}
	outputs := map[string]any{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		var e struct {
			Type   string                     `json:"type"`
			Key    string                     `json:"key"`
			Result map[string]json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, nil, fmt.Errorf("journal: %w", err)
		}
		if e.Type != "cell" {
			continue
		}
		raw, err := json.Marshal(e.Result)
		if err != nil {
			return nil, nil, err
		}
		var c journalCell
		if err := json.Unmarshal(raw, &c); err != nil {
			return nil, nil, fmt.Errorf("journal cell %s: %w", e.Key, err)
		}
		delete(e.Result, "resources")
		canon, err := json.Marshal(e.Result)
		if err != nil {
			return nil, nil, err
		}
		var v any
		if err := json.Unmarshal(canon, &v); err != nil {
			return nil, nil, err
		}
		cells[e.Key] = c
		outputs[e.Key] = v
	}
	return cells, outputs, sc.Err()
}

// figures caches the public figure registry for simulated-time lookups.
var figures = georoute.Figures()

// cellSimSeconds is the simulated time one cell advances: the arm's
// duration plus its drain.
func cellSimSeconds(key string) (float64, error) {
	c, err := georoute.ParseCampaignCellKey(key)
	if err != nil {
		return 0, err
	}
	s, ok := figures[c.Figure].Arm(c.Arm)
	if !ok {
		return 0, fmt.Errorf("cell %s: unknown arm", key)
	}
	return (s.Duration + s.Drain).Seconds(), nil
}

// campaignBands checks the paper's bands on summary.json: every attacked
// Fig. 7a arm intercepts more than 15% (γ > 0.15), and the Fig. 9a pair
// the paper reports (NLoS median, 38.5%) blocks 20-55% (λ).
func campaignBands(path string) ([]check, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sum struct {
		Drops map[string]map[string]struct {
			Drop float64 `json:"drop"`
		} `json:"drops"`
	}
	if err := json.Unmarshal(b, &sum); err != nil {
		return nil, fmt.Errorf("summary.json: %w", err)
	}
	var out []check
	band := func(name string, v, lo, hi float64, ok bool) {
		var err error
		switch {
		case !ok:
			err = errors.New("missing from summary.json")
		case v <= lo || v > hi:
			err = fmt.Errorf("%.4f outside (%.2f, %.2f]", v, lo, hi)
		}
		out = append(out, check{name: name, err: err})
	}
	if pairs, ok := sum.Drops["fig7a"]; ok {
		for _, p := range []string{"wN", "mN", "mL"} {
			d, ok := pairs[p]
			band("fig7a gamma "+p, d.Drop, 0.15, 1, ok)
		}
	}
	if pairs, ok := sum.Drops["fig9a"]; ok {
		d, ok := pairs["mN"]
		band("fig9a lambda mN", d.Drop, 0.2, 0.55, ok)
	}
	return out, nil
}

// Worlds ---------------------------------------------------------------------

// The scale world: 100 RF-isolated segments of two one-way lanes with 500
// vehicles per lane at 100 m spacing, run for 5 simulated seconds.
const (
	worldSegments = 100
	worldPerLane  = 500
	worldSpawnGap = 100.0
	worldShards   = 8
	worldSim      = 5 * time.Second
	// probeEvery matches the telemetry sampler's interval.
	probeEvery = 8192
)

func scaleConfig(seed uint64) georoute.ScaleWorldConfig {
	return georoute.ScaleWorldConfig{
		Seed:        seed,
		Segments:    worldSegments,
		SegmentRoad: georoute.RoadConfig{Length: worldSpawnGap * (worldPerLane - 1), LanesPerDirection: 2},
		SpawnGap:    worldSpawnGap,
	}
}

// world is the part of a sequential or sharded world a unit drives.
type world struct {
	run         func(time.Duration)
	summary     func() georoute.WorldStats
	events      func() uint64
	poolHitFrac func() float64
	// probe installs fn on every engine; fn gets the engine's deepest
	// wheel slot.
	probe       func(fn func(engine, depth int))
	engines     int
	parallelism int
	vehicles    int // population right after the build
}

func buildWorld(seed uint64, sharded bool) world {
	if !sharded {
		w := georoute.BuildScaleWorld(scaleConfig(seed))
		return world{
			run:     w.Run,
			summary: w.StatsSummary,
			events:  w.Engine.Executed,
			poolHitFrac: func() float64 {
				p := w.Medium.PoolStats()
				return frac(p.Hits(), p.Hits()+p.Misses())
			},
			probe: func(fn func(int, int)) {
				w.Engine.SetProbe(probeEvery, func() { fn(0, w.Engine.QueueStats().MaxSlotDepth) })
			},
			engines:     1,
			parallelism: 1,
			vehicles:    w.VehicleCount(),
		}
	}
	par := runtime.NumCPU()
	sw := georoute.BuildShardedScaleWorld(georoute.ShardedScaleWorldConfig{
		ScaleConfig: scaleConfig(seed),
		Shards:      worldShards,
		Parallelism: par,
	})
	return world{
		run:     func(d time.Duration) { sw.Run(d) },
		summary: sw.StatsSummary,
		events:  sw.Executed,
		poolHitFrac: func() float64 {
			var hits, all uint64
			for _, s := range sw.Shards() {
				p := s.Medium.PoolStats()
				hits += p.Hits()
				all += p.Hits() + p.Misses()
			}
			return frac(hits, all)
		},
		probe: func(fn func(int, int)) {
			for i, s := range sw.Shards() {
				i, e := i, s.Engine
				e.SetProbe(probeEvery, func() { fn(i, e.QueueStats().MaxSlotDepth) })
			}
		},
		engines:     len(sw.Shards()),
		parallelism: par,
		vehicles:    sw.VehicleCount(),
	}
}

// runWorld builds and runs one scale world.
func runWorld(seed uint64, sharded, traced bool) unit {
	rt0 := readRuntime()
	start := time.Now()
	w := buildWorld(seed, sharded)
	built := time.Now()
	depth := make([]int, w.engines)
	if traced {
		// Each engine's probe writes only its own slot.
		w.probe(func(i, d int) { depth[i] = max(depth[i], d) })
	}
	cpu0 := cpuTime()
	w.run(worldSim)
	ran := time.Now()
	cpu := cpuTime() - cpu0
	stats := w.summary()
	rt := readRuntime().since(rt0)

	u := unit{
		start:      start,
		setup:      built.Sub(start),
		timed:      ran.Sub(built),
		simSeconds: worldSim.Seconds(),
		cpu:        cpu,
		cells:      []float64{ran.Sub(built).Seconds()},
		counts:     rt.counts(),
		spans: []timedSpan{
			{name: "setup", start: start, end: built},
			{name: "run", start: built, end: ran},
			{name: "finalize", start: ran, end: time.Now()},
		},
	}
	b, err := json.Marshal(stats)
	if err != nil {
		panic(err) // WorldStats is plain counters and slices
	}
	u.outputs = map[string]any{"stats_summary_sha256": digest(b)}
	u.checks = append(checkReference("world-100k", seed, u.outputs, u.counts), worldBands(stats, w.vehicles)...)

	proto := map[string]float64{}
	var pb []byte
	if pb, err = json.Marshal(stats.Protocol); err == nil {
		err = json.Unmarshal(pb, &proto)
	}
	if err != nil {
		panic(err)
	}
	addProtocolCounts(u.counts, proto)
	frames := float64(stats.Radio.Transmitted)
	deliveries := float64(stats.Radio.Delivered + stats.Radio.Overheard)
	u.counts["radio.frames_tx"] = frames
	u.counts["radio.deliveries"] = deliveries
	u.counts["radio.fanout"] = deliveries / max(frames, 1)
	u.counts["radio.pool_hit_ratio"] = w.poolHitFrac()
	u.counts["traffic.vehicles"] = float64(stats.Vehicles)
	u.counts["sim.events"] = float64(w.events())
	deepest := 0
	for _, d := range depth {
		deepest = max(deepest, d)
	}
	u.counts["sim.queue_max_slot_depth"] = float64(deepest)
	if sharded {
		u.counts["sim.group_idle_frac"] = 1 - cpu.Seconds()/(u.timed.Seconds()*float64(w.parallelism))
	}
	return u
}

// worldBands are sanity bounds on a world summary: the full population was
// built, every vehicle on the road beaconed, beacons were heard, and no
// frame failed to decode or verify.
func worldBands(s georoute.WorldStats, built int) []check {
	want := worldSegments * (2*worldPerLane - 1)
	var errs []string
	if built != want || s.Vehicles <= 0 || s.Vehicles > built {
		errs = append(errs, fmt.Sprintf("built %d vehicles (want %d), %d at the end", built, want, s.Vehicles))
	}
	if s.Protocol.BeaconsSent < uint64(s.Vehicles) {
		errs = append(errs, fmt.Sprintf("%d beacons sent by %d vehicles", s.Protocol.BeaconsSent, s.Vehicles))
	}
	if s.Protocol.BeaconsReceived < s.Protocol.BeaconsSent {
		errs = append(errs, fmt.Sprintf("%d beacons received of %d sent", s.Protocol.BeaconsReceived, s.Protocol.BeaconsSent))
	}
	if s.Protocol.DecodeErrors+s.Protocol.AuthFailures != 0 {
		errs = append(errs, fmt.Sprintf("%d decode errors, %d auth failures", s.Protocol.DecodeErrors, s.Protocol.AuthFailures))
	}
	var err error
	if len(errs) > 0 {
		err = errors.New(strings.Join(errs, "; "))
	}
	return []check{{name: "world bands", err: err}}
}

// sequentialReference checks the sharded world against the sequential
// one. Pinned seeds already compare both with the same pinned digest; an
// unpinned seed runs the sequential world once, untimed, before the
// measured units, and every sharded unit must match it.
func sequentialReference(seed uint64) func(units []unit) []check {
	if referenceFor("world-100k", seed) != nil {
		return nil
	}
	want := runWorld(seed, false, false).outputs["stats_summary_sha256"]
	return func(units []unit) []check {
		var out []check
		for i, u := range units {
			var err error
			if got := u.outputs["stats_summary_sha256"]; got != want {
				err = fmt.Errorf("sharded %v, sequential %v", got, want)
			}
			out = append(out, check{name: fmt.Sprintf("unit %d sharded equals sequential", i), err: err})
		}
		return out
	}
}

// addProtocolCounts adds the GeoNetworking counters of a geonet.Stats,
// keyed by field name, to a unit's counts.
func addProtocolCounts(counts, p map[string]float64) {
	counts["geonet.beacons_rx"] = p["BeaconsReceived"]
	counts["geonet.forwards"] = p["GFForwarded"] + p["CBFForwarded"] + p["TSBForwarded"]
	counts["geonet.duplicates"] = p["Duplicates"]
	counts["geonet.cbf_cancel_ratio"] = p["CBFCanceled"] / max(p["CBFBuffered"], 1)
}

func frac(part, whole uint64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}
