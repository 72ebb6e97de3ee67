package telemetry

import (
	"strings"
	"testing"
)

func TestHistogramObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "help", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Errorf("Count = %d, want 5", got)
	}
	if got := h.Sum(); got != 556.5 {
		t.Errorf("Sum = %g, want 556.5", got)
	}
	cum, total := h.m.hist.snapshot()
	// le-inclusive: 0.5 and 1 land in le="1"; 5 in le="10"; 50 in
	// le="100"; 500 overflows to +Inf.
	want := []uint64{2, 3, 4, 5}
	if total != 5 {
		t.Errorf("snapshot total = %d, want 5", total)
	}
	for i, w := range want {
		if cum[i] != w {
			t.Errorf("cum[%d] = %d, want %d", i, cum[i], w)
		}
	}
}

func TestTallyFlush(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "help", []float64{1, 10, 100})
	direct := r.Histogram("d", "help", []float64{1, 10, 100})
	tl := h.Tally()
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		tl.Observe(v)
		direct.Observe(v)
	}
	if h.Count() != 0 {
		t.Fatal("tally reached the histogram before Flush")
	}
	tl.Flush()
	tl.Flush() // an empty tally adds nothing
	if h.Count() != 5 || h.Sum() != 556.5 {
		t.Errorf("after Flush: Count = %d, Sum = %g, want 5, 556.5", h.Count(), h.Sum())
	}
	got, _ := h.m.hist.snapshot()
	want, _ := direct.m.hist.snapshot()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("cum[%d] = %d, direct observing gives %d", i, got[i], want[i])
		}
	}
	var nilTally *Tally
	if (*Histogram)(nil).Tally() != nil {
		t.Error("nil histogram returned a tally")
	}
	nilTally.Observe(1) // must not panic
	nilTally.Flush()
}

func TestHistogramNilSafe(t *testing.T) {
	var h *Histogram
	h.Observe(1) // must not panic
	if h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil histogram reports nonzero state")
	}
	var r *Registry
	if r.Histogram("h", "", []float64{1}) != nil {
		t.Error("nil registry returned non-nil histogram")
	}
}

func TestHistogramReregistration(t *testing.T) {
	r := NewRegistry()
	a := r.Histogram("h", "help", []float64{1, 2})
	b := r.Histogram("h", "help", []float64{1, 2})
	a.Observe(1.5)
	if b.Count() != 1 {
		t.Error("re-registration with equal bounds did not return the same series")
	}
	mustPanic(t, "different bounds", func() { r.Histogram("h", "", []float64{1, 3}) })
	mustPanic(t, "kind conflict", func() { r.Counter("h", "") })
	mustPanic(t, "kind conflict reversed", func() {
		r.Counter("c", "").Add(1)
		r.Histogram("c", "", []float64{1})
	})
	mustPanic(t, "empty bounds", func() { r.Histogram("e", "", nil) })
	mustPanic(t, "descending bounds", func() { r.Histogram("d", "", []float64{2, 1}) })
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}

func TestLogBuckets(t *testing.T) {
	got := LogBuckets(0.001, 10, 4)
	want := []float64{0.001, 0.01, 0.1, 1}
	if len(got) != len(want) {
		t.Fatalf("LogBuckets len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if diff := got[i] - want[i]; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("LogBuckets[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	mustPanic(t, "bad start", func() { LogBuckets(0, 2, 3) })
	mustPanic(t, "bad factor", func() { LogBuckets(1, 1, 3) })
	mustPanic(t, "bad n", func() { LogBuckets(1, 2, 0) })
}

func TestHistogramExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "Latency.", []float64{0.5, 2}, Label{Key: "worker", Value: "0"})
	h.Observe(0.1)
	h.Observe(1)
	h.Observe(10)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	want := `# HELP lat_seconds Latency.
# TYPE lat_seconds histogram
lat_seconds_bucket{worker="0",le="0.5"} 1
lat_seconds_bucket{worker="0",le="2"} 2
lat_seconds_bucket{worker="0",le="+Inf"} 3
lat_seconds_sum{worker="0"} 11.1
lat_seconds_count{worker="0"} 3
`
	if got != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if err := ValidateExposition(strings.NewReader(got)); err != nil {
		t.Errorf("own exposition fails validation: %v", err)
	}
}

func TestHistogramSnapshot(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", []float64{1})
	h.Observe(0.5)
	h.Observe(5)
	samples := r.Snapshot()
	byName := make(map[string]Sample)
	for _, s := range samples {
		byName[s.Name] = s
	}
	if s := byName["h_bucket"]; s.Kind != "histogram" {
		t.Errorf("h_bucket kind = %q, want histogram", s.Kind)
	}
	if s := byName["h_sum"]; s.Value != 5.5 {
		t.Errorf("h_sum = %g, want 5.5", s.Value)
	}
	if s := byName["h_count"]; s.Value != 2 {
		t.Errorf("h_count = %g, want 2", s.Value)
	}
	// Two bucket samples (le="1", le="+Inf") must both be present.
	nBuckets := 0
	for _, s := range samples {
		if s.Name == "h_bucket" {
			nBuckets++
			if s.Labels["le"] == "" {
				t.Error("h_bucket sample missing le label")
			}
		}
	}
	if nBuckets != 2 {
		t.Errorf("snapshot has %d h_bucket samples, want 2", nBuckets)
	}
}

func TestValidateExpositionHistogramGrammar(t *testing.T) {
	accept := []string{
		"# TYPE x histogram\nx_bucket{le=\"1\"} 1\nx_bucket{le=\"+Inf\"} 2\nx_sum 3\nx_count 2\n",
		"# TYPE x summary\nx_sum 1\nx_count 2\n",
	}
	for i, in := range accept {
		if err := ValidateExposition(strings.NewReader(in)); err != nil {
			t.Errorf("accept[%d]: %v", i, err)
		}
	}
	reject := map[string]string{
		"bucket missing le":       "# TYPE x histogram\nx_bucket 1\n",
		"bucket without TYPE":     "x_bucket{le=\"1\"} 1\n",
		"bucket under counter":    "# TYPE x counter\nx_bucket{le=\"1\"} 1\n",
		"sum under counter":       "# TYPE x counter\nx_sum 1\n",
		"bucket under summary":    "# TYPE x summary\nx_bucket{le=\"1\"} 1\n",
		"bare suffix name":        "# TYPE x histogram\n_bucket{le=\"1\"} 1\n",
		"duplicate bucket series": "# TYPE x histogram\nx_bucket{le=\"1\"} 1\nx_bucket{le=\"1\"} 2\n",
	}
	for name, in := range reject {
		if err := ValidateExposition(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected validation error", name)
		}
	}
}
