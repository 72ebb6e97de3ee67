package fabric

import (
	"fmt"
	"time"
)

// cellPhase is one cell's position in the lease state machine:
//
//	pending ──grant──▶ leased ──complete──▶ done
//	   ▲                  │
//	   │   expiry/fail    │ (retries++, backoff; over budget → failed)
//	   └──────────────────┘
//
// done is absorbing: a completion wins exactly once, and every later
// completion for the same cell is reported as a duplicate and discarded.
type cellPhase uint8

const (
	cellPending cellPhase = iota
	cellLeased
	cellDone
	cellFailed
)

// leaseCell is one cell's lease-tracking state.
type leaseCell struct {
	key     string
	phase   cellPhase
	worker  string
	lease   string
	expires time.Time
	// retries counts grants that did not end in a completion (lease
	// expiries and reported failures).
	retries int
	// eligibleAt gates re-granting after a retry: exponential backoff
	// keeps a crash-looping cell from monopolizing the lease queue.
	eligibleAt time.Time
	lastErr    string
}

// leaseTable tracks lease state for one campaign's cells. It is not
// goroutine-safe; the coordinator serializes access under its mutex.
type leaseTable struct {
	cells []*leaseCell // canonical campaign order
	byKey map[string]*leaseCell

	ttl         time.Duration
	maxRetries  int
	backoffBase time.Duration
	nextLease   uint64

	pending, leased, done, failed int
	requeued, retried, duplicates int
}

// newLeaseTable builds the table over the campaign's canonical cell
// order; keys already completed (journal replay) start in done.
func newLeaseTable(keys []string, completed map[string]bool, ttl time.Duration, maxRetries int, backoffBase time.Duration) *leaseTable {
	t := &leaseTable{
		byKey:       make(map[string]*leaseCell, len(keys)),
		ttl:         ttl,
		maxRetries:  maxRetries,
		backoffBase: backoffBase,
	}
	for _, k := range keys {
		c := &leaseCell{key: k}
		if completed[k] {
			c.phase = cellDone
			t.done++
		} else {
			t.pending++
		}
		t.cells = append(t.cells, c)
		t.byKey[k] = c
	}
	return t
}

// grant leases the first eligible pending cell, in canonical order, to
// worker. Returns false when nothing is currently grantable (all cells
// done, leased, failed, or backing off).
func (t *leaseTable) grant(now time.Time, worker string) (key, lease string, ok bool) {
	for _, c := range t.cells {
		if c.phase != cellPending || now.Before(c.eligibleAt) {
			continue
		}
		t.nextLease++
		c.phase = cellLeased
		c.worker = worker
		c.lease = fmt.Sprintf("L%d", t.nextLease)
		c.expires = now.Add(t.ttl)
		t.pending--
		t.leased++
		return c.key, c.lease, true
	}
	return "", "", false
}

// heartbeat renews the lease's expiry. It reports lost when the quoted
// lease is no longer the cell's live lease (expired and requeued, or the
// cell completed).
func (t *leaseTable) heartbeat(now time.Time, key, lease string) (lost bool) {
	c, ok := t.byKey[key]
	if !ok || c.phase != cellLeased || c.lease != lease {
		return true
	}
	c.expires = now.Add(t.ttl)
	return false
}

// complete transitions the cell to done. The first completion wins
// regardless of which lease (live, expired, or none) delivered it — the
// result is deterministic, so ownership does not matter for correctness,
// only for avoiding wasted work. Duplicate reports a completion that
// arrived after the cell was already done.
func (t *leaseTable) complete(key string) (accepted, duplicate bool) {
	c, ok := t.byKey[key]
	if !ok {
		return false, false
	}
	switch c.phase {
	case cellDone:
		t.duplicates++
		return false, true
	case cellLeased:
		t.leased--
	case cellPending:
		t.pending--
	case cellFailed:
		// A completion that raced a retry-budget exhaustion: still take
		// the result — the cell is what matters, not the bookkeeping.
		t.failed--
	}
	c.phase = cellDone
	c.worker, c.lease = "", ""
	t.done++
	return true, false
}

// fail requeues a cell after a worker-reported execution error, with
// exponential backoff, and reports whether it did. A stale lease is
// ignored (the cell was already requeued or completed). Over the retry
// budget the cell parks in failed and the campaign cannot finalize.
func (t *leaseTable) fail(now time.Time, key, lease, errMsg string) bool {
	c, ok := t.byKey[key]
	if !ok || c.phase != cellLeased || c.lease != lease {
		return false
	}
	c.lastErr = errMsg
	t.leased--
	t.retried++
	t.requeueLocked(c, now)
	return true
}

// expire requeues every lease whose deadline passed — the crash/partition
// recovery path. Returns the requeued cell keys.
func (t *leaseTable) expire(now time.Time) []string {
	var requeued []string
	for _, c := range t.cells {
		if c.phase != cellLeased || now.Before(c.expires) {
			continue
		}
		t.leased--
		t.requeued++
		t.requeueLocked(c, now)
		if c.phase == cellPending {
			requeued = append(requeued, c.key)
		}
	}
	return requeued
}

// requeueLocked returns a cell to pending with backoff, or parks it in
// failed once the retry budget is spent.
func (t *leaseTable) requeueLocked(c *leaseCell, now time.Time) {
	c.worker, c.lease = "", ""
	c.retries++
	if c.retries > t.maxRetries {
		c.phase = cellFailed
		t.failed++
		return
	}
	backoff := t.backoffBase << (c.retries - 1)
	if backoff > maxBackoff || backoff <= 0 {
		backoff = maxBackoff
	}
	c.phase = cellPending
	c.eligibleAt = now.Add(backoff)
	t.pending++
}

// failedCells lists cells that exhausted their retry budget, with the
// last error each one reported.
func (t *leaseTable) failedCells() []string {
	var out []string
	for _, c := range t.cells {
		if c.phase == cellFailed {
			out = append(out, fmt.Sprintf("%s (%s)", c.key, c.lastErr))
		}
	}
	return out
}
