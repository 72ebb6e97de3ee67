package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"github.com/vanetsec/georoute/internal/campaign"
	"github.com/vanetsec/georoute/internal/experiment"
	"github.com/vanetsec/georoute/internal/telemetry"
)

// WorkerConfig tunes a fabric worker.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL (http://host:port).
	Coordinator string
	// ID identifies this worker in leases and liveness gauges. Defaults
	// to "<hostname>-<pid>".
	ID string
	// Poll is the idle re-poll interval when no work is available
	// (default 500ms). Coordinator-unreachable backoff also grows from
	// here, capped at ten polls.
	Poll time.Duration
	// MaxCells stops the worker after completing this many cells
	// (0 = unlimited) — the deterministic interruption point used by
	// tests and CI, mirroring campaign.Options.MaxCells.
	MaxCells int
	// Telemetry, when non-nil, receives the worker's per-run engine
	// gauges (worker slot 0), so a worker's own -listen endpoint shows
	// the usual engine/radio/geonet series while cells execute.
	Telemetry *telemetry.Registry
	// Logf, when non-nil, receives one line per cell transition.
	Logf func(format string, args ...any)
}

// Worker pulls cell leases from a coordinator, executes them with the
// exact single-process execution path (campaign.ExecuteCell), and streams
// results back. One cell runs at a time; scale out by running more worker
// processes (scripts/fabric-local.sh).
type Worker struct {
	cfg    WorkerConfig
	client *Client
	gauges *telemetry.RunGauges
}

// NewWorker builds a worker.
func NewWorker(cfg WorkerConfig) *Worker {
	if cfg.ID == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		cfg.ID = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if cfg.Poll <= 0 {
		cfg.Poll = 500 * time.Millisecond
	}
	return &Worker{
		cfg:    cfg,
		client: NewClient(cfg.Coordinator),
		gauges: telemetry.NewRunGauges(cfg.Telemetry, 0),
	}
}

// ID returns the worker's identity.
func (w *Worker) ID() string { return w.cfg.ID }

// logf forwards to the configured logger, if any.
func (w *Worker) logf(format string, args ...any) {
	if w.cfg.Logf != nil {
		w.cfg.Logf(format, args...)
	}
}

// Run is the worker loop. It exits nil when the context is cancelled
// (graceful drain: an in-flight cell finishes and its completion is
// posted before returning), when the coordinator reports draining with
// no work left, or when MaxCells is reached. A vanished coordinator is
// not fatal — the worker backs off and keeps polling, so a restarted
// coordinator picks its workers back up without intervention.
func (w *Worker) Run(ctx context.Context) error {
	completed := 0
	idleBackoff := w.cfg.Poll
	for {
		if ctx.Err() != nil {
			return nil
		}
		lease, err := w.client.Lease(ctx, w.cfg.ID)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			w.logf("fabric worker %s: lease request failed (%v), backing off %v", w.cfg.ID, err, idleBackoff)
			if !sleepCtx(ctx, idleBackoff) {
				return nil
			}
			if idleBackoff < 10*w.cfg.Poll {
				idleBackoff *= 2
			}
			continue
		}
		idleBackoff = w.cfg.Poll
		if !lease.Granted {
			if lease.Draining {
				w.logf("fabric worker %s: coordinator draining, exiting", w.cfg.ID)
				return nil
			}
			if !sleepCtx(ctx, w.cfg.Poll) {
				return nil
			}
			continue
		}
		w.runLease(ctx, lease)
		completed++
		if w.cfg.MaxCells > 0 && completed >= w.cfg.MaxCells {
			w.logf("fabric worker %s: MaxCells=%d reached, exiting", w.cfg.ID, w.cfg.MaxCells)
			return nil
		}
	}
}

// runLease executes one leased cell and reports the outcome. The cell
// itself is never interrupted: cancellation is observed between cells
// and the completion post uses a detached context, so a drained worker
// still lands the work it already paid for.
func (w *Worker) runLease(ctx context.Context, lease LeaseResponse) {
	cell, err := experiment.ParseCellKey(lease.Key)
	if err != nil {
		// A key the coordinator handed out but we cannot parse is a
		// protocol bug; report it as a cell failure so it surfaces in
		// the campaign status rather than spinning.
		w.postFail(lease, err)
		return
	}
	// Heartbeat while the cell runs, at a third of the TTL so two beats
	// can be lost before the lease expires.
	hbCtx, stopHB := context.WithCancel(context.Background())
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		ttl := time.Duration(lease.TTLSeconds * float64(time.Second))
		t := time.NewTicker(ttl / 3)
		defer t.Stop()
		for {
			select {
			case <-hbCtx.Done():
				return
			case <-t.C:
				resp, err := w.client.Heartbeat(hbCtx, HeartbeatRequest{
					Worker: w.cfg.ID, Campaign: lease.Campaign, Key: lease.Key, Lease: lease.Lease,
				})
				if err == nil && resp.Lost {
					// Keep running: our completion is still valid if it
					// arrives first, and a duplicate otherwise.
					w.logf("fabric worker %s: lease on %s lost (expired?); finishing anyway", w.cfg.ID, lease.Key)
					return
				}
			}
		}
	}()
	w.logf("fabric worker %s: running %s/%s", w.cfg.ID, lease.Campaign, lease.Key)
	res, runErr := campaign.ExecuteCell(cell, w.gauges)
	stopHB()
	<-hbDone
	if runErr != nil {
		w.logf("fabric worker %s: cell %s failed: %v", w.cfg.ID, lease.Key, runErr)
		w.postFail(lease, runErr)
		return
	}
	// Post the completion with retries on a detached context: losing a
	// finished cell to one dropped request would waste a whole re-run.
	postCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	backoff := w.cfg.Poll
	for {
		resp, err := w.client.Complete(postCtx, CompleteRequest{
			Worker: w.cfg.ID, Campaign: lease.Campaign, Key: lease.Key, Lease: lease.Lease, Result: res,
		})
		if err == nil {
			if resp.Duplicate {
				w.logf("fabric worker %s: %s was already completed elsewhere", w.cfg.ID, lease.Key)
			}
			return
		}
		// A rejected completion (4xx) will never succeed on retry.
		var se *StatusError
		if errors.As(err, &se) && se.Permanent() {
			w.logf("fabric worker %s: completion of %s rejected: %v", w.cfg.ID, lease.Key, err)
			return
		}
		if !sleepCtx(postCtx, backoff) {
			w.logf("fabric worker %s: giving up posting %s: %v", w.cfg.ID, lease.Key, err)
			return
		}
		if backoff < 5*time.Second {
			backoff *= 2
		}
	}
}

// postFail best-effort reports a failed cell.
func (w *Worker) postFail(lease LeaseResponse, runErr error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = w.client.Fail(ctx, FailRequest{
		Worker: w.cfg.ID, Campaign: lease.Campaign, Key: lease.Key, Lease: lease.Lease, Error: runErr.Error(),
	})
}

// sleepCtx sleeps d or until ctx is done; false means the context won.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// Client is a thin typed HTTP client for the coordinator API, shared by
// workers, the geosim submit/status/drain modes, and tests.
type Client struct {
	base string
	http *http.Client
}

// NewClient builds a client for the coordinator at base URL.
func NewClient(base string) *Client {
	return &Client{
		base: strings.TrimRight(base, "/"),
		http: &http.Client{Timeout: 30 * time.Second},
	}
}

// Submit registers a campaign (idempotent on the spec hash).
func (c *Client) Submit(ctx context.Context, sp campaign.Spec, resume bool) (CampaignStatus, error) {
	var resp SubmitResponse
	err := c.post(ctx, PathSubmit, SubmitRequest{Spec: sp, Resume: resume}, &resp)
	return resp.Campaign, err
}

// Lease requests one cell.
func (c *Client) Lease(ctx context.Context, worker string) (LeaseResponse, error) {
	var resp LeaseResponse
	err := c.post(ctx, PathLease, LeaseRequest{Worker: worker}, &resp)
	return resp, err
}

// Heartbeat renews a lease.
func (c *Client) Heartbeat(ctx context.Context, req HeartbeatRequest) (HeartbeatResponse, error) {
	var resp HeartbeatResponse
	err := c.post(ctx, PathHeartbeat, req, &resp)
	return resp, err
}

// Complete posts a finished cell.
func (c *Client) Complete(ctx context.Context, req CompleteRequest) (CompleteResponse, error) {
	var resp CompleteResponse
	err := c.post(ctx, PathComplete, req, &resp)
	return resp, err
}

// Fail reports a failed cell.
func (c *Client) Fail(ctx context.Context, req FailRequest) error {
	return c.post(ctx, PathFail, req, &struct{}{})
}

// Drain asks the coordinator to stop granting leases.
func (c *Client) Drain(ctx context.Context) (StatusResponse, error) {
	var resp StatusResponse
	err := c.post(ctx, PathDrain, DrainRequest{}, &resp)
	return resp, err
}

// Status fetches the coordinator snapshot.
func (c *Client) Status(ctx context.Context) (StatusResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+PathStatus, nil)
	if err != nil {
		return StatusResponse{}, err
	}
	var resp StatusResponse
	if err := c.do(req, &resp); err != nil {
		return StatusResponse{}, err
	}
	return resp, nil
}

// WaitCampaign polls until the named campaign completes (nil), fails
// (error), or ctx expires.
func (c *Client) WaitCampaign(ctx context.Context, name string, poll time.Duration) (CampaignStatus, error) {
	if poll <= 0 {
		poll = 500 * time.Millisecond
	}
	for {
		st, err := c.Status(ctx)
		if err == nil {
			for _, cs := range st.Campaigns {
				if cs.Name != name {
					continue
				}
				switch cs.Phase {
				case "complete":
					return cs, nil
				case "failed":
					return cs, fmt.Errorf("fabric: campaign %s failed: %s", name, cs.Failure)
				}
			}
		}
		if !sleepCtx(ctx, poll) {
			return CampaignStatus{}, ctx.Err()
		}
	}
}

func (c *Client) post(ctx context.Context, path string, body, out any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(b))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.do(req, out)
}

func (c *Client) do(req *http.Request, out any) error {
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		msg := fmt.Sprintf("fabric: %s returned %s", req.URL.Path, resp.Status)
		if json.Unmarshal(body, &e) == nil && e.Error != "" {
			msg = e.Error
		}
		return &StatusError{Code: resp.StatusCode, Msg: msg}
	}
	return json.Unmarshal(body, out)
}

// StatusError is a non-200 coordinator response. 4xx codes are permanent
// rejections — retrying the identical request cannot succeed.
type StatusError struct {
	Code int
	Msg  string
}

func (e *StatusError) Error() string { return e.Msg }

// Permanent reports whether retrying is pointless.
func (e *StatusError) Permanent() bool { return e.Code >= 400 && e.Code < 500 }
