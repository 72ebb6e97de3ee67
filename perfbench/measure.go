package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strconv"
	"sync"
	"syscall"
	"time"

	"github.com/vanetsec/georoute"
)

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// Runtime metrics read around each unit.
const (
	mGCCycles  = "/gc/cycles/total:gc-cycles"
	mAllocB    = "/gc/heap/allocs:bytes"
	mAllocObjs = "/gc/heap/allocs:objects"
	mGCCPU     = "/cpu/classes/gc/total:cpu-seconds"
	mGCPauses  = "/sched/pauses/total/gc:seconds"
	mSchedLat  = "/sched/latencies:seconds"
	mHeapObjs  = "/memory/classes/heap/objects:bytes"
)

// rtSnap is one read of the runtime metrics; since() turns two reads
// into a delta.
type rtSnap struct {
	gcCycles, allocB, allocObjs uint64
	gcCPU                       float64
	pauses, schedLat            *metrics.Float64Histogram
}

func readRuntime() rtSnap {
	s := []metrics.Sample{{Name: mGCCycles}, {Name: mAllocB}, {Name: mAllocObjs}, {Name: mGCCPU}, {Name: mGCPauses}, {Name: mSchedLat}}
	metrics.Read(s)
	u := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	h := func(i int) *metrics.Float64Histogram {
		if s[i].Value.Kind() == metrics.KindFloat64Histogram {
			return s[i].Value.Float64Histogram()
		}
		return nil
	}
	var gcCPU float64
	if s[3].Value.Kind() == metrics.KindFloat64 {
		gcCPU = s[3].Value.Float64()
	}
	return rtSnap{gcCycles: u(0), allocB: u(1), allocObjs: u(2), gcCPU: gcCPU, pauses: h(4), schedLat: h(5)}
}

// rtDelta is the runtime work done between two snapshots.
type rtDelta struct {
	gcCycles, allocB, allocObjs float64
	gcCPU, pauseSum, schedP50   float64
}

func (s rtSnap) since(old rtSnap) rtDelta {
	pauseCounts := histDelta(s.pauses, old.pauses)
	latCounts := histDelta(s.schedLat, old.schedLat)
	d := rtDelta{
		gcCycles:  float64(s.gcCycles - old.gcCycles),
		allocB:    float64(s.allocB - old.allocB),
		allocObjs: float64(s.allocObjs - old.allocObjs),
		gcCPU:     s.gcCPU - old.gcCPU,
	}
	if s.pauses != nil {
		for i, c := range pauseCounts {
			d.pauseSum += float64(c) * bucketMid(s.pauses.Buckets, i)
		}
	}
	if s.schedLat != nil {
		d.schedP50 = histQuantile(s.schedLat.Buckets, latCounts, 0.5)
	}
	return d
}

// counts turns the delta into a unit's runtime per-layer counts.
func (d rtDelta) counts() map[string]float64 {
	return map[string]float64{
		"runtime.gc_cycles":         d.gcCycles,
		"runtime.alloc_mb":          d.allocB / (1 << 20),
		"runtime.allocs":            d.allocObjs,
		"runtime.gc_cpu_s":          d.gcCPU,
		"runtime.gc_pause_ms":       d.pauseSum * 1e3,
		"runtime.sched_wait_p50_us": d.schedP50 * 1e6,
	}
}

func histDelta(now, old *metrics.Float64Histogram) []uint64 {
	if now == nil {
		return nil
	}
	out := make([]uint64, len(now.Counts))
	for i, c := range now.Counts {
		out[i] = c
		if old != nil && i < len(old.Counts) {
			out[i] -= old.Counts[i]
		}
	}
	return out
}

// bucketMid is the midpoint of histogram bucket i, using the finite edge
// for the open-ended first and last buckets.
func bucketMid(b []float64, i int) float64 {
	lo, hi := b[i], b[i+1]
	switch {
	case math.IsInf(lo, -1):
		return hi
	case math.IsInf(hi, 1):
		return lo
	}
	return (lo + hi) / 2
}

func histQuantile(b []float64, counts []uint64, q float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen >= target {
			return bucketMid(b, i)
		}
	}
	return 0
}

// heapSampler polls the live Go heap and keeps its peak.
type heapSampler struct {
	done chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{done: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: mHeapObjs}}
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			select {
			case <-h.done:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak heap in bytes.
func (h *heapSampler) stop() uint64 {
	close(h.done)
	h.wg.Wait()
	return h.peak
}

// gaugePoller keeps the maxima of the campaign telemetry gauges that only
// hold a latest value.
type gaugePoller struct {
	done chan struct{}
	wg   sync.WaitGroup
	max  map[string]float64
}

// Gauges polled during traced campaigns.
const (
	gaugeSlotDepth = "georoute_engine_queue_max_slot_depth"
	gaugeRouters   = "georoute_geonet_routers"
)

func startGaugePoller(reg *georoute.TelemetryRegistry) *gaugePoller {
	p := &gaugePoller{done: make(chan struct{}), max: map[string]float64{}}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			for _, s := range reg.Snapshot() {
				if s.Name == gaugeSlotDepth || s.Name == gaugeRouters {
					p.max[s.Name] = max(p.max[s.Name], s.Value)
				}
			}
			select {
			case <-p.done:
				return
			case <-t.C:
			}
		}
	}()
	return p
}

func (p *gaugePoller) stop() map[string]float64 {
	close(p.done)
	p.wg.Wait()
	return p.max
}

// addTelemetryCounts adds the radio counters a campaign's telemetry
// registry accumulated, and the polled gauge maxima, to a unit's counts.
func addTelemetryCounts(counts map[string]float64, snap []georoute.TelemetrySample, gaugeMax map[string]float64) {
	sum := map[string]float64{}
	for _, s := range snap {
		sum[s.Name] += s.Value
	}
	frames := sum["georoute_radio_frames_total"]
	deliveries := sum["georoute_radio_deliveries_total"]
	hits, misses := sum["georoute_radio_pool_hits_total"], sum["georoute_radio_pool_misses_total"]
	counts["radio.frames_tx"] = frames
	counts["radio.deliveries"] = deliveries
	counts["radio.fanout"] = deliveries / max(frames, 1)
	counts["radio.pool_hit_ratio"] = hits / max(hits+misses, 1)
	counts["traffic.vehicles"] = gaugeMax[gaugeRouters]
	counts["sim.queue_max_slot_depth"] = gaugeMax[gaugeSlotDepth]
}

// perLayerMetrics are the traced run's metrics, in BENCHMARK.json order.
var perLayerMetrics = []struct{ name, unit string }{
	{"geonet.busy_s", "s"}, {"geonet.beacons_rx", "count"}, {"geonet.forwards", "count"},
	{"geonet.duplicates", "count"}, {"geonet.cbf_cancel_ratio", "ratio"},
	{"radio.busy_s", "s"}, {"radio.frames_tx", "count"}, {"radio.deliveries", "count"},
	{"radio.fanout", "count/frame"}, {"radio.pool_hit_ratio", "ratio"},
	{"security.busy_s", "s"},
	{"traffic.busy_s", "s"}, {"traffic.vehicles", "count"},
	{"sim.busy_s", "s"}, {"sim.events", "count"}, {"sim.queue_max_slot_depth", "count"},
	{"sim.group_idle_frac", "ratio"}, {"runtime.sched_wait_p50_us", "us"},
	{"detect.busy_s", "s"}, {"detect.verdicts", "count"},
	{"attack.busy_s", "s"}, {"attack.replays", "count"}, {"experiment.busy_s", "s"},
	{"campaign.busy_s", "s"}, {"campaign.finalize_s", "s"}, {"campaign.journal_bytes", "bytes"},
	{"vanet.busy_s", "s"},
	{"runtime.busy_s", "s"}, {"runtime.gc_cpu_s", "s"}, {"runtime.alloc_mb", "MB"},
	{"runtime.allocs", "count"}, {"runtime.gc_cycles", "count"}, {"runtime.gc_pause_ms", "ms"},
	{"harness.unattributed_frac", "ratio"}, {"harness.sim_s_per_s", "s/s"},
	{"harness.inexact_outputs", "count"},
}

// perLayer reduces a traced run to the per-layer metrics, each per unit:
// profile busy time per layer, and the units' counts averaged. Metrics a
// workload has no layer for (campaign.* on the worlds) read 0.
func perLayer(units []unit, busy map[string]float64, simRate float64) map[string]metric {
	n := float64(len(units))
	vals := map[string]float64{}
	for _, u := range units {
		for k, v := range u.counts {
			vals[k] += v / n
		}
	}
	var total, attributed float64
	for _, v := range busy {
		total += v
	}
	for _, l := range layers {
		vals[l+".busy_s"] = busy[l] / n
		attributed += busy[l]
	}
	if total > 0 {
		vals["harness.unattributed_frac"] = 1 - attributed/total
	}
	vals["harness.sim_s_per_s"] = simRate
	out := make(map[string]metric, len(perLayerMetrics))
	for _, m := range perLayerMetrics {
		out[m.name] = metric{vals[m.name], m.unit}
	}
	return out
}

// timedSpan is one traced interval inside a unit.
type timedSpan struct {
	name       string
	start, end time.Time
}

// recorder keeps a traced run's spans in memory until the run ends.
type recorder struct {
	spans []spanRecord
	units int
}

type spanRecord struct {
	ID     string  `json:"id"`
	Name   string  `json:"name"`
	Parent string  `json:"parent,omitempty"`
	Start  float64 `json:"start_unix_s"`
	End    float64 `json:"end_unix_s"`
}

func unixSeconds(t time.Time) float64 { return float64(t.UnixNano()) / 1e9 }

// unit records one unit's span and its child spans.
func (r *recorder) unit(u unit) {
	id := "unit" + strconv.Itoa(r.units)
	r.units++
	end := u.start
	for _, s := range u.spans {
		if s.end.After(end) {
			end = s.end
		}
	}
	r.spans = append(r.spans, spanRecord{ID: id, Name: "unit", Parent: "workload", Start: unixSeconds(u.start), End: unixSeconds(end)})
	for i, s := range u.spans {
		r.spans = append(r.spans, spanRecord{ID: id + "." + strconv.Itoa(i), Name: s.name, Parent: id, Start: unixSeconds(s.start), End: unixSeconds(s.end)})
	}
}

// write adds the workload root span and writes every span as JSON.
func (r *recorder) write(path, workload string, start, end time.Time) error {
	all := append([]spanRecord{{ID: "workload", Name: workload, Start: unixSeconds(start), End: unixSeconds(end)}}, r.spans...)
	b, err := json.MarshalIndent(all, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
