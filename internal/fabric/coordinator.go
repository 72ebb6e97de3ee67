package fabric

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/vanetsec/georoute/internal/campaign"
	"github.com/vanetsec/georoute/internal/experiment"
	"github.com/vanetsec/georoute/internal/telemetry"
)

// CoordinatorConfig tunes a coordinator.
type CoordinatorConfig struct {
	// ResultsDir is the parent directory for campaign results; each
	// campaign writes into <ResultsDir>/<name>/ exactly like a
	// single-process run. Defaults to "results".
	ResultsDir string
	// LeaseTTL is how long a granted lease lives without a heartbeat
	// before the cell is requeued (default DefaultLeaseTTL).
	LeaseTTL time.Duration
	// MaxRetries bounds per-cell re-grants after failures or expiries
	// (default DefaultMaxRetries); past it the cell parks as failed and
	// the campaign cannot finalize.
	MaxRetries int
	// BackoffBase seeds the exponential retry backoff (default
	// DefaultBackoffBase; attempt n waits base·2^(n-1), capped).
	BackoffBase time.Duration
	// Telemetry, when non-nil, receives the fabric gauges; mount
	// telemetry.Register on the same mux to scrape them.
	Telemetry *telemetry.Registry
	// Logf, when non-nil, receives one line per noteworthy transition
	// (submission, requeue, retry exhaustion, finalize).
	Logf func(format string, args ...any)

	// now overrides the clock in tests.
	now func() time.Time
}

// campaignState is one registered campaign on the coordinator.
type campaignState struct {
	spec     campaign.Spec
	dir      string
	journal  *campaign.Journal
	agg      *campaign.Aggregator
	cells    []campaign.Cell // canonical order
	leases   *leaseTable
	total    int
	replayed int
	executed int
	started  time.Time
	phase    string // "running", "complete", "failed"
	failure  string
}

// workerState is the coordinator's bookkeeping for one worker id.
type workerState struct {
	lastSeen  time.Time
	completed int
}

// Coordinator is the campaign fabric's control plane: it owns the
// journals and aggregators of every registered campaign, leases cells to
// workers, and finalizes artifacts when the last cell lands. All state
// mutations happen under one mutex; the sweeper goroutine (lease expiry,
// liveness) takes the same lock, so the lease state machine is strictly
// serialized.
type Coordinator struct {
	cfg    CoordinatorConfig
	gauges *telemetry.FabricGauges

	mu        sync.Mutex
	campaigns map[string]*campaignState
	order     []string
	workers   map[string]*workerState
	draining  bool

	stop     chan struct{}
	stopOnce sync.Once
	swept    sync.WaitGroup
}

// NewCoordinator builds a coordinator and starts its lease-expiry
// sweeper. Call Close to stop the sweeper and flush every journal.
func NewCoordinator(cfg CoordinatorConfig) *Coordinator {
	if cfg.ResultsDir == "" {
		cfg.ResultsDir = "results"
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = DefaultMaxRetries
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = DefaultBackoffBase
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	c := &Coordinator{
		cfg:       cfg,
		gauges:    telemetry.NewFabricGauges(cfg.Telemetry),
		campaigns: make(map[string]*campaignState),
		workers:   make(map[string]*workerState),
		stop:      make(chan struct{}),
	}
	c.swept.Add(1)
	go c.sweep()
	return c
}

// logf forwards to the configured logger, if any.
func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// sweep periodically requeues expired leases and refreshes the liveness
// gauges. The period is a fraction of the TTL so an expired lease is
// picked up promptly relative to how long leases live.
func (c *Coordinator) sweep() {
	defer c.swept.Done()
	period := c.cfg.LeaseTTL / 4
	if period < 50*time.Millisecond {
		period = 50 * time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.mu.Lock()
			now := c.cfg.now()
			for _, name := range c.order {
				st := c.campaigns[name]
				if st.phase != "running" {
					continue
				}
				for _, key := range st.leases.expire(now) {
					c.gauges.RequeuedTotal.Inc()
					c.logf("fabric: campaign %s: lease on %s expired, requeued (retry %d)",
						name, key, st.leases.byKey[key].retries)
				}
				if n := len(st.leases.failedCells()); n > 0 && st.phase == "running" {
					c.failCampaignLocked(st, fmt.Sprintf("%d cells exhausted their retry budget", n))
				}
			}
			c.refreshGaugesLocked(now)
			c.mu.Unlock()
		}
	}
}

// Close stops the sweeper and closes every journal (flushing buffered
// lines). In-flight HTTP requests racing Close see ordinary errors; the
// journal is the durable state and survives.
func (c *Coordinator) Close() error {
	c.stopOnce.Do(func() { close(c.stop) })
	c.swept.Wait()
	c.mu.Lock()
	defer c.mu.Unlock()
	var firstErr error
	for _, name := range c.order {
		st := c.campaigns[name]
		if st.journal != nil {
			if err := st.journal.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
			st.journal = nil
		}
	}
	return firstErr
}

// Submit registers a campaign: open (or resume) its journal, replay
// completed cells into a fresh aggregator, and queue the remainder for
// leasing. Submission is idempotent on the spec hash.
func (c *Coordinator) Submit(sp campaign.Spec, resume bool) (CampaignStatus, error) {
	if err := sp.Validate(); err != nil {
		return CampaignStatus{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if st, ok := c.campaigns[sp.Name]; ok {
		if st.spec.Hash() != sp.Hash() {
			return CampaignStatus{}, fmt.Errorf("fabric: campaign %q already registered with a different spec", sp.Name)
		}
		return c.statusLocked(st), nil
	}
	dir := filepath.Join(c.cfg.ResultsDir, sp.Name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return CampaignStatus{}, fmt.Errorf("fabric: %w", err)
	}
	journalPath := filepath.Join(dir, "journal.jsonl")
	if !resume {
		if fi, err := os.Stat(journalPath); err == nil && fi.Size() > 0 {
			return CampaignStatus{}, fmt.Errorf("fabric: %s already exists — submit with resume or remove the directory", journalPath)
		}
	}
	j, replayed, err := campaign.OpenJournal(journalPath, sp)
	if err != nil {
		return CampaignStatus{}, err
	}
	agg, err := campaign.NewAggregator(sp)
	if err != nil {
		j.Close()
		return CampaignStatus{}, err
	}
	cells, err := sp.Cells()
	if err != nil {
		j.Close()
		return CampaignStatus{}, err
	}
	// Replay in canonical order, exactly like the single-process runner:
	// the aggregator accepts any order, but canonical replay keeps error
	// paths deterministic.
	completed := make(map[string]bool, len(replayed))
	keys := make([]string, len(cells))
	for i, cell := range cells {
		keys[i] = cell.Key()
		if res, ok := replayed[keys[i]]; ok {
			if err := agg.Feed(cell, res); err != nil {
				j.Close()
				return CampaignStatus{}, err
			}
			completed[keys[i]] = true
		}
	}
	st := &campaignState{
		spec:     sp,
		dir:      dir,
		journal:  j,
		agg:      agg,
		cells:    cells,
		leases:   newLeaseTable(keys, completed, c.cfg.LeaseTTL, c.cfg.MaxRetries, c.cfg.BackoffBase),
		total:    len(cells),
		replayed: len(replayed),
		started:  c.cfg.now(),
		phase:    "running",
	}
	c.campaigns[sp.Name] = st
	c.order = append(c.order, sp.Name)
	c.logf("fabric: campaign %s submitted: %d cells (%d replayed from journal)", sp.Name, st.total, st.replayed)
	if st.leases.done == st.total {
		// Everything was already journaled — finalize immediately, the
		// resume-after-the-last-cell case.
		c.finalizeLocked(st)
	}
	c.refreshGaugesLocked(c.cfg.now())
	return c.statusLocked(st), nil
}

// Lease grants one cell to worker, scanning campaigns in submission
// order. Draining coordinators grant nothing.
func (c *Coordinator) Lease(worker string) LeaseResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.now()
	c.touchWorkerLocked(worker, now)
	if c.draining {
		return LeaseResponse{Draining: true}
	}
	for _, name := range c.order {
		st := c.campaigns[name]
		if st.phase != "running" {
			continue
		}
		key, lease, ok := st.leases.grant(now, worker)
		if !ok {
			continue
		}
		c.gauges.LeasesTotal.Inc()
		c.refreshGaugesLocked(now)
		return LeaseResponse{
			Granted:    true,
			Campaign:   name,
			Key:        key,
			Lease:      lease,
			TTLSeconds: c.cfg.LeaseTTL.Seconds(),
		}
	}
	return LeaseResponse{}
}

// Heartbeat renews a lease.
func (c *Coordinator) Heartbeat(req HeartbeatRequest) HeartbeatResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.now()
	c.touchWorkerLocked(req.Worker, now)
	st, ok := c.campaigns[req.Campaign]
	if !ok {
		return HeartbeatResponse{Lost: true}
	}
	if lost := st.leases.heartbeat(now, req.Key, req.Lease); lost {
		return HeartbeatResponse{Lost: true}
	}
	return HeartbeatResponse{OK: true}
}

// Complete accepts one finished cell: first completion wins (journal
// append + aggregator feed under the lock), later ones are acknowledged
// as duplicates and discarded. When the last cell lands the campaign
// finalizes — the same Aggregator.Finalize a single-process run ends
// with, so the artifacts are byte-identical.
func (c *Coordinator) Complete(req CompleteRequest) (CompleteResponse, error) {
	cell, err := experiment.ParseCellKey(req.Key)
	if err != nil {
		return CompleteResponse{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.now()
	c.touchWorkerLocked(req.Worker, now)
	st, ok := c.campaigns[req.Campaign]
	if !ok {
		return CompleteResponse{}, fmt.Errorf("fabric: unknown campaign %q", req.Campaign)
	}
	if st.phase == "complete" {
		st.leases.duplicates++
		c.gauges.DuplicatesTotal.Inc()
		return CompleteResponse{Duplicate: true}, nil
	}
	accepted, duplicate := st.leases.complete(req.Key)
	if duplicate {
		c.gauges.DuplicatesTotal.Inc()
		return CompleteResponse{Duplicate: true}, nil
	}
	if !accepted {
		return CompleteResponse{}, fmt.Errorf("fabric: %s is not a cell of campaign %q", req.Key, req.Campaign)
	}
	// The journal line is appended exactly once per cell: the done
	// transition above and this append happen under one mutex hold, so a
	// racing duplicate can never double-journal (the exactly-once
	// completion argument — see DESIGN.md).
	if err := st.journal.Record(req.Key, req.Result); err != nil {
		c.failCampaignLocked(st, err.Error())
		return CompleteResponse{}, err
	}
	if err := st.agg.Feed(cell, req.Result); err != nil {
		c.failCampaignLocked(st, err.Error())
		return CompleteResponse{}, err
	}
	st.executed++
	if w := c.workers[req.Worker]; w != nil {
		w.completed++
	}
	c.gauges.CompletedTotal.Inc()
	if st.leases.done == st.total {
		c.finalizeLocked(st)
	}
	c.refreshGaugesLocked(now)
	return CompleteResponse{}, nil
}

// Fail requeues a cell after a worker-reported execution error.
func (c *Coordinator) Fail(req FailRequest) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.now()
	c.touchWorkerLocked(req.Worker, now)
	st, ok := c.campaigns[req.Campaign]
	if !ok {
		return
	}
	st.leases.fail(now, req.Key, req.Lease, req.Error)
	c.gauges.RetriedTotal.Inc()
	c.logf("fabric: campaign %s: worker %s failed %s: %s", req.Campaign, req.Worker, req.Key, req.Error)
	if n := len(st.leases.failedCells()); n > 0 && st.phase == "running" {
		c.failCampaignLocked(st, fmt.Sprintf("%d cells exhausted their retry budget", n))
	}
	c.refreshGaugesLocked(now)
}

// Drain stops granting leases; in-flight cells complete normally and
// idle workers exit on their next poll.
func (c *Coordinator) Drain() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.draining {
		c.draining = true
		c.logf("fabric: draining — no further leases will be granted")
	}
}

// Status snapshots the coordinator.
func (c *Coordinator) Status() StatusResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.now()
	resp := StatusResponse{Draining: c.draining}
	for _, name := range c.order {
		resp.Campaigns = append(resp.Campaigns, c.statusLocked(c.campaigns[name]))
	}
	for id, w := range c.workers {
		resp.Workers = append(resp.Workers, WorkerStatus{
			ID:              id,
			LastSeenSeconds: now.Sub(w.lastSeen).Seconds(),
			Live:            c.workerLiveLocked(w, now),
			Completed:       w.completed,
		})
	}
	return resp
}

// CampaignStatus reports one campaign by name.
func (c *Coordinator) CampaignStatus(name string) (CampaignStatus, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.campaigns[name]
	if !ok {
		return CampaignStatus{}, false
	}
	return c.statusLocked(st), true
}

// finalizeLocked writes the campaign artifacts and closes the journal.
func (c *Coordinator) finalizeLocked(st *campaignState) {
	if err := st.agg.Finalize(st.dir); err != nil {
		c.failCampaignLocked(st, err.Error())
		return
	}
	if err := st.journal.Close(); err != nil {
		c.failCampaignLocked(st, err.Error())
		return
	}
	st.journal = nil
	st.phase = "complete"
	c.logf("fabric: campaign %s complete — artifacts in %s", st.spec.Name, st.dir)
}

// failCampaignLocked parks the campaign in the failed phase. The journal
// stays on disk: every completed cell survives for a resume once the
// underlying fault is fixed.
func (c *Coordinator) failCampaignLocked(st *campaignState, reason string) {
	if st.phase == "failed" {
		return
	}
	st.phase = "failed"
	st.failure = reason
	c.logf("fabric: campaign %s failed: %s", st.spec.Name, reason)
}

// statusLocked snapshots one campaign's progress.
func (c *Coordinator) statusLocked(st *campaignState) CampaignStatus {
	lt := st.leases
	s := CampaignStatus{
		Name:        st.spec.Name,
		SpecHash:    st.spec.Hash(),
		Phase:       st.phase,
		Failure:     st.failure,
		Total:       st.total,
		Done:        lt.done,
		Replayed:    st.replayed,
		Executed:    st.executed,
		Pending:     lt.pending,
		Leased:      lt.leased,
		FailedCells: lt.failed,
		Requeued:    lt.requeued,
		Retried:     lt.retried,
		Duplicates:  lt.duplicates,
		Dir:         st.dir,
	}
	elapsed := c.cfg.now().Sub(st.started).Seconds()
	if st.executed > 0 && elapsed > 0 {
		s.CellsPerSec = float64(st.executed) / elapsed
		if s.CellsPerSec > 0 {
			s.ETASeconds = float64(st.total-lt.done) / s.CellsPerSec
		}
	}
	return s
}

// touchWorkerLocked records a worker contact and flips its liveness
// gauge up.
func (c *Coordinator) touchWorkerLocked(id string, now time.Time) {
	if id == "" {
		return
	}
	w, ok := c.workers[id]
	if !ok {
		w = &workerState{}
		c.workers[id] = w
	}
	w.lastSeen = now
	c.gauges.WorkerUp(id).Set(1)
}

// workerLiveLocked: a worker is live while its last contact is within
// two lease TTLs — generously past the heartbeat period, so one dropped
// request does not flap the gauge.
func (c *Coordinator) workerLiveLocked(w *workerState, now time.Time) bool {
	return now.Sub(w.lastSeen) <= 2*c.cfg.LeaseTTL
}

// refreshGaugesLocked republishes the aggregate fabric gauges.
func (c *Coordinator) refreshGaugesLocked(now time.Time) {
	if c.gauges == nil {
		return
	}
	var total, pending, leased, done, failed int
	var rate, etaCells float64
	for _, name := range c.order {
		st := c.campaigns[name]
		lt := st.leases
		total += st.total
		pending += lt.pending
		leased += lt.leased
		done += lt.done
		failed += lt.failed
		if st.phase == "running" {
			elapsed := now.Sub(st.started).Seconds()
			if st.executed > 0 && elapsed > 0 {
				rate += float64(st.executed) / elapsed
			}
			etaCells += float64(st.total - lt.done)
		}
	}
	c.gauges.CellsTotal.Set(float64(total))
	c.gauges.CellsPending.Set(float64(pending))
	c.gauges.CellsLeased.Set(float64(leased))
	c.gauges.CellsDone.Set(float64(done))
	c.gauges.CellsFailed.Set(float64(failed))
	c.gauges.CellsPerSec.Set(rate)
	if rate > 0 {
		c.gauges.ETASeconds.Set(etaCells / rate)
	} else {
		c.gauges.ETASeconds.Set(0)
	}
	live := 0
	for id, w := range c.workers {
		if c.workerLiveLocked(w, now) {
			live++
			c.gauges.WorkerUp(id).Set(1)
		} else {
			c.gauges.WorkerUp(id).Set(0)
		}
	}
	c.gauges.WorkersLive.Set(float64(live))
}

// Handler builds the coordinator's HTTP API. When a telemetry registry
// is configured, /metrics, /telemetry.json and /debug/pprof/ are mounted
// on the same mux, so one listener serves both the fabric control plane
// and its observability.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	if c.cfg.Telemetry != nil {
		telemetry.Register(mux, c.cfg.Telemetry)
	}
	mux.HandleFunc(PathSubmit, func(w http.ResponseWriter, r *http.Request) {
		var req SubmitRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		st, err := c.Submit(req.Spec, req.Resume)
		if err != nil {
			httpError(w, http.StatusConflict, err)
			return
		}
		writeJSON(w, SubmitResponse{Campaign: st})
	})
	mux.HandleFunc(PathLease, func(w http.ResponseWriter, r *http.Request) {
		var req LeaseRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		writeJSON(w, c.Lease(req.Worker))
	})
	mux.HandleFunc(PathHeartbeat, func(w http.ResponseWriter, r *http.Request) {
		var req HeartbeatRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		writeJSON(w, c.Heartbeat(req))
	})
	mux.HandleFunc(PathComplete, func(w http.ResponseWriter, r *http.Request) {
		var req CompleteRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		resp, err := c.Complete(req)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, resp)
	})
	mux.HandleFunc(PathFail, func(w http.ResponseWriter, r *http.Request) {
		var req FailRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		c.Fail(req)
		writeJSON(w, struct{}{})
	})
	mux.HandleFunc(PathDrain, func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("fabric: drain requires POST"))
			return
		}
		c.Drain()
		writeJSON(w, c.Status())
	})
	mux.HandleFunc(PathStatus, func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, c.Status())
	})
	return mux
}

// decodeJSON strictly decodes a POSTed JSON body, writing the HTTP error
// itself on failure.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("fabric: %s requires POST", r.URL.Path))
		return false
	}
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("fabric: decoding %s request: %w", r.URL.Path, err))
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// httpError sends the error as a JSON body so clients can surface it.
func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
