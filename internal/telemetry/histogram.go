package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// histogramState is the shared storage behind one histogram series: a
// fixed ascending list of upper bounds, one atomic occupancy cell per
// bucket (the last cell is the +Inf overflow), and a CAS-accumulated
// float sum. Observing is wait-free except for the sum, which retries a
// compare-and-swap under contention; scraping only loads atomics.
type histogramState struct {
	bounds  []float64       // ascending, finite, exclusive of +Inf
	buckets []atomic.Uint64 // len(bounds)+1; buckets[i] counts v <= bounds[i]
	sumBits atomic.Uint64   // math.Float64bits of the running sum
}

// Histogram is a handle to a fixed-bucket distribution metric. A nil
// handle is the disabled state: Observe returns immediately, so the same
// nil-fast-path discipline as Counter/Gauge applies at instrumentation
// sites.
type Histogram struct {
	m *metric
}

// Histogram registers (or looks up) a histogram with the given bucket
// upper bounds. Bounds must be finite and strictly ascending; an implicit
// +Inf bucket is always appended. Re-registering an existing identity
// with different bounds (or a different kind) is a programming error and
// panics. On a nil registry it returns nil, whose Observe is a no-op.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	if len(bounds) == 0 {
		panic(fmt.Sprintf("telemetry: histogram %q registered with no buckets", name))
	}
	for i, b := range bounds {
		if math.IsInf(b, 0) || math.IsNaN(b) {
			panic(fmt.Sprintf("telemetry: histogram %q bound %d is not finite", name, i))
		}
		if i > 0 && b <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram %q bounds not strictly ascending at %d", name, i))
		}
	}
	id := metricID(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.index[id]; ok {
		if m.kind != kindHistogram {
			panic(fmt.Sprintf("telemetry: metric %q re-registered as histogram (was %v)", name, m.kind))
		}
		if !equalBounds(m.hist.bounds, bounds) {
			panic(fmt.Sprintf("telemetry: histogram %q re-registered with different bounds", name))
		}
		return &Histogram{m: m}
	}
	st := &histogramState{
		bounds:  append([]float64(nil), bounds...),
		buckets: make([]atomic.Uint64, len(bounds)+1),
	}
	m := &metric{name: name, help: help, kind: kindHistogram, labels: append([]Label(nil), labels...), hist: st}
	r.index[id] = m
	r.metrics = append(r.metrics, m)
	return &Histogram{m: m}
}

func equalBounds(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Observe records one value. Safe on nil and safe for concurrent use.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	st := h.m.hist
	st.buckets[sort.SearchFloat64s(st.bounds, v)].Add(1)
	st.addSum(v)
}

// addSum folds v into the running sum with a compare-and-swap loop.
func (st *histogramState) addSum(v float64) {
	for {
		old := st.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if st.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Tally is a single-goroutine staging area for a Histogram: plain
// bucket counts and a float sum, with no atomics on the observe path.
// Flush adds them to the shared histogram in one step, so a hot loop
// pays an array increment per observation instead of an atomic add plus
// a CAS loop. A nil Tally (from a nil Histogram) is the disabled state.
type Tally struct {
	st     *histogramState
	counts []uint64 // len(st.buckets), same bucket layout
	sum    float64
}

// Tally returns a fresh staging area for h; nil on a nil Histogram.
func (h *Histogram) Tally() *Tally {
	if h == nil {
		return nil
	}
	return &Tally{st: h.m.hist, counts: make([]uint64, len(h.m.hist.buckets))}
}

// Observe records one value in the tally. Safe on nil; not safe for
// concurrent use.
func (t *Tally) Observe(v float64) {
	if t == nil {
		return
	}
	t.counts[sort.SearchFloat64s(t.st.bounds, v)]++
	t.sum += v
}

// Flush adds the tallied observations to the histogram and empties the
// tally. The histogram's bucket counts end up exactly as if every value
// had been observed on it directly; its sum differs only by the float
// rounding of adding the tally's partial sum in one step. Safe on nil.
func (t *Tally) Flush() {
	if t == nil {
		return
	}
	for i, c := range t.counts {
		if c != 0 {
			t.st.buckets[i].Add(c)
			t.counts[i] = 0
		}
	}
	t.st.addSum(t.sum)
	t.sum = 0
}

// Count reads the total number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.m.hist.buckets {
		n += h.m.hist.buckets[i].Load()
	}
	return n
}

// Sum reads the running sum of observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.m.hist.sumBits.Load())
}

// snapshot reads the per-bucket occupancies once and returns them as
// cumulative counts (Prometheus le semantics) plus the total. The total
// is derived from the same reads, so bucket{le="+Inf"} always equals
// _count within one scrape even under concurrent observation.
func (st *histogramState) snapshot() (cum []uint64, total uint64) {
	cum = make([]uint64, len(st.buckets))
	for i := range st.buckets {
		total += st.buckets[i].Load()
		cum[i] = total
	}
	return cum, total
}

// LogBuckets returns n strictly ascending bucket bounds starting at start
// and growing by factor each step — the fixed log-spaced layout used for
// latency-style distributions. start must be positive, factor > 1, n >= 1.
func LogBuckets(start, factor float64, n int) []float64 {
	if !(start > 0) || !(factor > 1) || n < 1 {
		panic("telemetry: LogBuckets requires start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}
