package fabric

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/vanetsec/georoute/internal/attack"
	"github.com/vanetsec/georoute/internal/campaign"
	"github.com/vanetsec/georoute/internal/experiment"
	"github.com/vanetsec/georoute/internal/metrics"
	"github.com/vanetsec/georoute/internal/telemetry"
)

func fig7aSpec(name string, runs int) campaign.Spec {
	sp := campaign.Spec{Name: name, Runs: runs, Figures: []string{"fig7a"}}
	if err := sp.Validate(); err != nil {
		panic(err)
	}
	return sp
}

// syntheticResults builds one deterministic, shape-correct result per
// cell of the spec, keyed by cell key — the same payload regardless of
// which "worker" or coordinator incarnation delivers it, mirroring the
// determinism of real cells.
func syntheticResults(t *testing.T, sp campaign.Spec) map[string]campaign.CellResult {
	t.Helper()
	cells, err := sp.Cells()
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]campaign.CellResult, len(cells))
	for i, c := range cells {
		rng := rand.New(rand.NewPCG(uint64(i), 42))
		s := metrics.NewBinSeries(200*time.Second, 5*time.Second)
		for n := 0; n < 50+rng.IntN(100); n++ {
			s.Add(time.Duration(rng.IntN(200))*time.Second, rng.Float64())
		}
		out[c.Key()] = campaign.CellResult{Run: &experiment.RunResult{
			Series:        s,
			PacketsSent:   50 + rng.IntN(100),
			AttackerStats: attack.Stats{BeaconsReplayed: uint64(rng.IntN(1000))},
		}}
	}
	return out
}

// referenceArtifacts finalizes the spec's synthetic results through the
// plain journal+aggregator path — what a single-process run would write.
func referenceArtifacts(t *testing.T, sp campaign.Spec, results map[string]campaign.CellResult) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), sp.Name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	j, _, err := campaign.OpenJournal(filepath.Join(dir, "journal.jsonl"), sp)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := campaign.NewAggregator(sp)
	if err != nil {
		t.Fatal(err)
	}
	cells, _ := sp.Cells()
	for _, c := range cells {
		if err := j.Record(c.Key(), results[c.Key()]); err != nil {
			t.Fatal(err)
		}
		if err := agg.Feed(c, results[c.Key()]); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := agg.Finalize(dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

// readArtifacts loads every byte-identity artifact in dir (resources.json
// is wall-clock data and intentionally excluded).
func readArtifacts(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string)
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".json" || e.Name() == "resources.json" {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(b)
	}
	if len(out) == 0 {
		t.Fatalf("no artifacts in %s", dir)
	}
	return out
}

func compareArtifacts(t *testing.T, refDir, gotDir string) {
	t.Helper()
	ref, got := readArtifacts(t, refDir), readArtifacts(t, gotDir)
	if len(ref) != len(got) {
		t.Fatalf("artifact sets differ: ref %d files, got %d", len(ref), len(got))
	}
	for name, want := range ref {
		if got[name] != want {
			t.Fatalf("artifact %s differs from the single-process reference", name)
		}
	}
}

func TestSubmitLeaseCompleteFinalize(t *testing.T) {
	sp := fig7aSpec("camp", 2)
	results := syntheticResults(t, sp)
	refDir := referenceArtifacts(t, sp, results)

	resultsDir := t.TempDir()
	reg := telemetry.NewRegistry()
	coord := NewCoordinator(CoordinatorConfig{ResultsDir: resultsDir, Telemetry: reg})
	defer coord.Close()
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	client := NewClient(srv.URL)
	ctx := context.Background()

	st, err := client.Submit(ctx, sp, false)
	if err != nil {
		t.Fatal(err)
	}
	if st.Total != len(results) || st.Phase != "running" {
		t.Fatalf("submitted status %+v", st)
	}
	// Resubmission of the identical spec is idempotent…
	if _, err := client.Submit(ctx, sp, false); err != nil {
		t.Fatalf("idempotent resubmit rejected: %v", err)
	}
	// …but a drifted spec under the same name is not.
	drifted := fig7aSpec("camp", 3)
	if _, err := client.Submit(ctx, drifted, false); err == nil {
		t.Fatal("spec-hash mismatch accepted")
	}

	// Two synthetic "workers" drain the queue over HTTP, completions
	// landing in whatever order the lease scan hands them out.
	var firstKey string
	for {
		lease, err := client.Lease(ctx, "wA")
		if err != nil {
			t.Fatal(err)
		}
		if !lease.Granted {
			break
		}
		if firstKey == "" {
			firstKey = lease.Key
		}
		hb, err := client.Heartbeat(ctx, HeartbeatRequest{Worker: "wA", Campaign: lease.Campaign, Key: lease.Key, Lease: lease.Lease})
		if err != nil || !hb.OK {
			t.Fatalf("heartbeat on live lease: %+v err=%v", hb, err)
		}
		resp, err := client.Complete(ctx, CompleteRequest{
			Worker: "wA", Campaign: lease.Campaign, Key: lease.Key, Lease: lease.Lease, Result: results[lease.Key],
		})
		if err != nil || resp.Duplicate {
			t.Fatalf("complete %s: %+v err=%v", lease.Key, resp, err)
		}
	}
	st, ok := coord.CampaignStatus(sp.Name)
	if !ok || st.Phase != "complete" || st.Done != st.Total {
		t.Fatalf("campaign did not finalize: %+v", st)
	}
	// A straggler completion after finalize is a duplicate, not an error.
	resp, err := client.Complete(ctx, CompleteRequest{
		Worker: "wB", Campaign: sp.Name, Key: firstKey, Lease: "stale", Result: results[firstKey],
	})
	if err != nil || !resp.Duplicate {
		t.Fatalf("post-finalize completion: %+v err=%v", resp, err)
	}

	compareArtifacts(t, refDir, filepath.Join(resultsDir, sp.Name))

	// The fabric gauges made it to the exposition surface.
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, metric := range []string{
		"georoute_fabric_cells_total 12",
		"georoute_fabric_cells_done 12",
		"georoute_fabric_completed_total 12",
		"georoute_fabric_worker_up{worker=\"wA\"} 1",
	} {
		if !strings.Contains(b.String(), metric) {
			t.Errorf("/metrics missing %q", metric)
		}
	}
}

func TestSubmitRejectsUnexpectedJournal(t *testing.T) {
	sp := fig7aSpec("camp", 1)
	resultsDir := t.TempDir()
	dir := filepath.Join(resultsDir, sp.Name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	// Leave a non-empty journal behind, as a previous coordinator would.
	j, _, err := campaign.OpenJournal(filepath.Join(dir, "journal.jsonl"), sp)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()

	coord := NewCoordinator(CoordinatorConfig{ResultsDir: resultsDir})
	defer coord.Close()
	if _, err := coord.Submit(sp, false); err == nil {
		t.Fatal("submit over an existing journal without resume accepted")
	}
	if _, err := coord.Submit(sp, true); err != nil {
		t.Fatalf("resume submit rejected: %v", err)
	}
}

func TestLeaseExpiryRequeuesAcrossWorkers(t *testing.T) {
	sp := fig7aSpec("camp", 1) // 6 cells
	results := syntheticResults(t, sp)
	refDir := referenceArtifacts(t, sp, results)

	resultsDir := t.TempDir()
	coord := NewCoordinator(CoordinatorConfig{
		ResultsDir:  resultsDir,
		LeaseTTL:    150 * time.Millisecond, // sweep period floors at 50ms
		BackoffBase: time.Millisecond,
	})
	defer coord.Close()
	if _, err := coord.Submit(sp, false); err != nil {
		t.Fatal(err)
	}

	// A worker leases the first cell and "crashes": no heartbeat, no
	// completion. The sweeper must requeue it.
	crashed := coord.Lease("crashed")
	if !crashed.Granted {
		t.Fatal("no lease granted")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, _ := coord.CampaignStatus(sp.Name)
		if st.Requeued >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("lease never expired: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// A healthy worker drains the whole campaign, crashed cell included.
	for {
		lease := coord.Lease("healthy")
		if !lease.Granted {
			st, _ := coord.CampaignStatus(sp.Name)
			if st.Phase == "complete" {
				break
			}
			// The requeued cell may still be in its backoff window.
			time.Sleep(5 * time.Millisecond)
			continue
		}
		if _, err := coord.Complete(CompleteRequest{
			Worker: "healthy", Campaign: lease.Campaign, Key: lease.Key, Lease: lease.Lease, Result: results[lease.Key],
		}); err != nil {
			t.Fatal(err)
		}
	}

	// The crashed worker finishes anyway: its completion is a duplicate.
	resp, err := coord.Complete(CompleteRequest{
		Worker: "crashed", Campaign: crashed.Campaign, Key: crashed.Key, Lease: crashed.Lease, Result: results[crashed.Key],
	})
	if err != nil || !resp.Duplicate {
		t.Fatalf("late completion from crashed worker: %+v err=%v", resp, err)
	}

	compareArtifacts(t, refDir, filepath.Join(resultsDir, sp.Name))
}

func TestCoordinatorRestartResume(t *testing.T) {
	sp := fig7aSpec("camp", 2) // 12 cells
	results := syntheticResults(t, sp)
	refDir := referenceArtifacts(t, sp, results)
	resultsDir := t.TempDir()

	// First incarnation: complete half the cells, then die (Close flushes
	// the journal — the only durable state).
	coord1 := NewCoordinator(CoordinatorConfig{ResultsDir: resultsDir})
	if _, err := coord1.Submit(sp, false); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		lease := coord1.Lease("w1")
		if !lease.Granted {
			t.Fatalf("lease %d not granted", i)
		}
		if _, err := coord1.Complete(CompleteRequest{
			Worker: "w1", Campaign: lease.Campaign, Key: lease.Key, Lease: lease.Lease, Result: results[lease.Key],
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := coord1.Close(); err != nil {
		t.Fatal(err)
	}

	// Second incarnation resumes from the journal and finishes.
	coord2 := NewCoordinator(CoordinatorConfig{ResultsDir: resultsDir})
	defer coord2.Close()
	st, err := coord2.Submit(sp, true)
	if err != nil {
		t.Fatal(err)
	}
	if st.Replayed != 6 || st.Done != 6 {
		t.Fatalf("resume replayed %d/%d done, want 6", st.Replayed, st.Done)
	}
	for {
		lease := coord2.Lease("w2")
		if !lease.Granted {
			break
		}
		if _, err := coord2.Complete(CompleteRequest{
			Worker: "w2", Campaign: lease.Campaign, Key: lease.Key, Lease: lease.Lease, Result: results[lease.Key],
		}); err != nil {
			t.Fatal(err)
		}
	}
	st, _ = coord2.CampaignStatus(sp.Name)
	if st.Phase != "complete" {
		t.Fatalf("campaign not complete after resume: %+v", st)
	}
	compareArtifacts(t, refDir, filepath.Join(resultsDir, sp.Name))
}

func TestResumeAfterLastCellFinalizesImmediately(t *testing.T) {
	sp := fig7aSpec("camp", 1)
	results := syntheticResults(t, sp)
	resultsDir := t.TempDir()

	coord1 := NewCoordinator(CoordinatorConfig{ResultsDir: resultsDir})
	if _, err := coord1.Submit(sp, false); err != nil {
		t.Fatal(err)
	}
	cells, _ := sp.Cells()
	for range cells {
		lease := coord1.Lease("w1")
		if _, err := coord1.Complete(CompleteRequest{
			Worker: "w1", Campaign: lease.Campaign, Key: lease.Key, Lease: lease.Lease, Result: results[lease.Key],
		}); err != nil {
			t.Fatal(err)
		}
	}
	coord1.Close()
	// Delete the artifacts but keep the journal: the resume must
	// re-finalize from replay alone, with no cells left to run.
	entries, _ := os.ReadDir(filepath.Join(resultsDir, sp.Name))
	for _, e := range entries {
		if e.Name() != "journal.jsonl" {
			os.Remove(filepath.Join(resultsDir, sp.Name, e.Name()))
		}
	}
	coord2 := NewCoordinator(CoordinatorConfig{ResultsDir: resultsDir})
	defer coord2.Close()
	st, err := coord2.Submit(sp, true)
	if err != nil {
		t.Fatal(err)
	}
	if st.Phase != "complete" {
		t.Fatalf("fully-journaled resume phase %q, want complete", st.Phase)
	}
	if _, err := os.Stat(filepath.Join(resultsDir, sp.Name, "summary.json")); err != nil {
		t.Fatalf("artifacts not rewritten: %v", err)
	}
}

func TestRetryBudgetFailsCampaign(t *testing.T) {
	sp := fig7aSpec("camp", 1)
	resultsDir := t.TempDir()
	coord := NewCoordinator(CoordinatorConfig{ResultsDir: resultsDir, MaxRetries: 1, BackoffBase: time.Millisecond})
	defer coord.Close()
	if _, err := coord.Submit(sp, false); err != nil {
		t.Fatal(err)
	}
	// Fail every grant until some cell exhausts its budget (maxRetries=1
	// → a cell's second failure parks it and fails the campaign).
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, _ := coord.CampaignStatus(sp.Name)
		if st.Phase == "failed" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign never failed: %+v", st)
		}
		lease := coord.Lease("w1")
		if !lease.Granted {
			time.Sleep(2 * time.Millisecond) // retry backoff window
			continue
		}
		coord.Fail(FailRequest{Worker: "w1", Campaign: lease.Campaign, Key: lease.Key, Lease: lease.Lease, Error: "synthetic failure"})
	}
	st, _ := coord.CampaignStatus(sp.Name)
	if st.Phase != "failed" || st.FailedCells == 0 {
		t.Fatalf("campaign not failed after budget exhaustion: %+v", st)
	}
	if !strings.Contains(st.Failure, "retry budget") {
		t.Fatalf("failure message %q", st.Failure)
	}
}

func TestDrainStopsGrants(t *testing.T) {
	sp := fig7aSpec("camp", 1)
	coord := NewCoordinator(CoordinatorConfig{ResultsDir: t.TempDir()})
	defer coord.Close()
	if _, err := coord.Submit(sp, false); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	client := NewClient(srv.URL)
	ctx := context.Background()

	if _, err := client.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	lease, err := client.Lease(ctx, "w1")
	if err != nil {
		t.Fatal(err)
	}
	if lease.Granted || !lease.Draining {
		t.Fatalf("post-drain lease %+v, want draining without grant", lease)
	}
	st, err := client.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Draining {
		t.Fatal("status does not report draining")
	}
}

// TestDistributedMatchesSingleProcess is the end-to-end byte-identity
// check with real cells and real workers: two fabric workers (plus one
// deliberately crashed lease) must produce artifacts byte-identical to a
// single-process campaign.Run of the same spec.
func TestDistributedMatchesSingleProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real fig7a cells")
	}
	sp := fig7aSpec("camp", 1) // 6 cells
	base := t.TempDir()

	// Single-process reference.
	refParent := filepath.Join(base, "ref")
	if _, err := campaign.Run(context.Background(), sp, campaign.Options{ResultsDir: refParent}); err != nil {
		t.Fatal(err)
	}

	// Distributed run: coordinator + a crashed lease + two real workers.
	distParent := filepath.Join(base, "dist")
	coord := NewCoordinator(CoordinatorConfig{
		ResultsDir:  distParent,
		LeaseTTL:    500 * time.Millisecond,
		BackoffBase: 5 * time.Millisecond,
		Logf:        t.Logf,
	})
	defer coord.Close()
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	client := NewClient(srv.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	if _, err := client.Submit(ctx, sp, false); err != nil {
		t.Fatal(err)
	}
	// Simulated crash: take a lease and vanish. The cell must be requeued
	// by expiry and completed by a live worker.
	crashed, err := client.Lease(ctx, "crashed")
	if err != nil || !crashed.Granted {
		t.Fatalf("crashed worker lease: %+v err=%v", crashed, err)
	}

	workerDone := make(chan error, 2)
	for i := 0; i < 2; i++ {
		w := NewWorker(WorkerConfig{
			Coordinator: srv.URL,
			ID:          []string{"wA", "wB"}[i],
			Poll:        50 * time.Millisecond,
			Logf:        t.Logf,
		})
		go func() { workerDone <- w.Run(ctx) }()
	}

	final, err := client.WaitCampaign(ctx, sp.Name, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.Requeued < 1 {
		t.Fatalf("crashed lease was never requeued: %+v", final)
	}
	// Drain so the workers exit, then collect them.
	if _, err := client.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := <-workerDone; err != nil {
			t.Fatalf("worker exited with error: %v", err)
		}
	}

	compareArtifacts(t, filepath.Join(refParent, sp.Name), filepath.Join(distParent, sp.Name))
}

// TestStaleFailIsNotARetry reports a failure on a lease that already
// expired and was requeued: the report is ignored, so neither the retry
// counter gauge nor the log may count it.
func TestStaleFailIsNotARetry(t *testing.T) {
	sp := fig7aSpec("camp", 1)
	var clock atomic.Int64
	clock.Store(time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC).UnixNano())
	reg := telemetry.NewRegistry()
	var mu sync.Mutex
	var logged []string
	coord := NewCoordinator(CoordinatorConfig{
		ResultsDir: t.TempDir(),
		LeaseTTL:   100 * time.Millisecond, // sweep period floors at 50ms
		Telemetry:  reg,
		Logf: func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			logged = append(logged, fmt.Sprintf(format, args...))
		},
		now: func() time.Time { return time.Unix(0, clock.Load()) },
	})
	defer coord.Close()
	if _, err := coord.Submit(sp, false); err != nil {
		t.Fatal(err)
	}
	lease := coord.Lease("w1")
	if !lease.Granted {
		t.Fatal("no lease granted")
	}
	clock.Add(int64(time.Hour)) // far past the TTL: the sweeper requeues
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, _ := coord.CampaignStatus(sp.Name)
		if st.Requeued >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("lease never expired: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}

	coord.Fail(FailRequest{Worker: "w1", Campaign: lease.Campaign, Key: lease.Key, Lease: lease.Lease, Error: "late failure"})
	st, _ := coord.CampaignStatus(sp.Name)
	if st.Retried != 0 {
		t.Fatalf("stale failure counted as a retry: %+v", st)
	}
	var gauge float64 = -1
	for _, s := range reg.Snapshot() {
		if s.Name == "georoute_fabric_retried_total" {
			gauge = s.Value
		}
	}
	if gauge != float64(st.Retried) {
		t.Fatalf("georoute_fabric_retried_total = %v, CampaignStatus.Retried = %d", gauge, st.Retried)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, line := range logged {
		if strings.Contains(line, "failed "+lease.Key) {
			t.Fatalf("stale failure logged: %q", line)
		}
	}
}
