package server

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sync"
	"time"

	"github.com/bertisim/berti/internal/campaign"
	"github.com/bertisim/berti/internal/harness"
	"github.com/bertisim/berti/internal/sim"
)

// pushTimeout bounds each results push. Pushes run on a context
// detached from the worker's (neither a shutdown nor a lost lease may
// strand computed results), so they need their own deadline.
const pushTimeout = 30 * time.Second

// Worker is the bertiworker execution loop: pull a lease from the
// coordinator, run its specs on the local harness pool, stream each
// result back as it lands, heartbeat in between, repeat. It survives the
// network: the client retries transient errors, a lost lease abandons the
// batch (the coordinator already reassigned it), and anything computed
// before the loss is still pushed — the coordinator dedupes.
type Worker struct {
	// ID is this worker's stable identity (registry key; required).
	ID string
	// Client targets the coordinator (required).
	Client *Client
	// Harness executes the specs (required). The worker owns its OnResult
	// hook.
	Harness *harness.Harness
	// MaxSpecs bounds each lease batch (DefaultLeaseSpecs if 0).
	MaxSpecs int
	// PollInterval is the idle wait when the coordinator has no work
	// (default 500ms).
	PollInterval time.Duration
	// Logf sinks operational log lines (log.Printf when nil).
	Logf func(format string, args ...any)
}

// Run executes leases until ctx is cancelled (clean shutdown, returns
// nil) or a permanent protocol error occurs (e.g. scale mismatch).
func (w *Worker) Run(ctx context.Context) error {
	if w.ID == "" || w.Client == nil || w.Harness == nil {
		return errors.New("server: Worker needs ID, Client, and Harness")
	}
	logf := w.Logf
	if logf == nil {
		logf = log.Printf
	}
	poll := w.PollInterval
	if poll <= 0 {
		poll = 500 * time.Millisecond
	}
	max := w.MaxSpecs
	if max <= 0 {
		max = DefaultLeaseSpecs
	}
	for {
		if ctx.Err() != nil {
			return nil
		}
		grant, err := w.Client.AcquireLease(ctx, w.ID, max)
		if err != nil {
			if sim.IsCancel(err) || ctx.Err() != nil {
				return nil
			}
			// Residual error after the client's own retries: the
			// coordinator may be restarting or draining — keep polling.
			logf("worker %s: acquire lease: %v", w.ID, err)
			if !sleepCtx(ctx, poll) {
				return nil
			}
			continue
		}
		if grant.Scale != "" && grant.Scale != w.Harness.Scale.Name {
			return fmt.Errorf("server: coordinator runs scale %q but this worker is built for %q",
				grant.Scale, w.Harness.Scale.Name)
		}
		if grant.ID == "" {
			if !sleepCtx(ctx, poll) {
				return nil
			}
			continue
		}
		if err := w.runLease(ctx, grant, logf); err != nil {
			logf("worker %s: lease %s: %v", w.ID, grant.ID, err)
		}
	}
}

// runLease executes one granted batch. Results stream back as each spec
// finishes (so a worker killed mid-batch has already banked its completed
// work), heartbeats extend the lease in parallel, and a final sweep
// pushes whatever was not yet acknowledged. Every push runs on a context
// that survives worker shutdown and lease loss, because a computed result
// is worth landing even when the lease is already lost. Lease loss stops
// only the runs: the coordinator retires a lease as soon as its last
// result lands, so a heartbeat can learn of the loss while that very push
// is still in flight — cancelling it then would abandon an accepted push
// and make the final sweep deliver the result twice.
func (w *Worker) runLease(ctx context.Context, grant *LeaseGrant, logf func(string, ...any)) error {
	bctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var mu sync.Mutex
	acked := map[string]bool{}
	completed := 0

	w.Harness.OnResult = func(key string, _ harness.RunSpec, r *sim.Result) {
		mu.Lock()
		completed++
		mu.Unlock()
		pushCtx, pcancel := context.WithTimeout(context.WithoutCancel(ctx), pushTimeout)
		defer pcancel()
		if _, err := w.Client.PushResults(pushCtx, grant.ID, w.ID,
			[]campaign.Entry{{Key: key, Result: r}}, nil); err != nil {
			logf("worker %s: push %s: %v (will retry in final sweep)", w.ID, key, err)
			return
		}
		mu.Lock()
		acked[key] = true
		mu.Unlock()
	}
	defer func() { w.Harness.OnResult = nil }()

	hb := time.Duration(grant.HeartbeatMillis) * time.Millisecond
	if hb <= 0 {
		hb = time.Duration(grant.TTLMillis/4) * time.Millisecond
	}
	if hb <= 0 {
		hb = time.Second
	}
	go func() {
		t := time.NewTicker(hb)
		defer t.Stop()
		for {
			select {
			case <-bctx.Done():
				return
			case <-t.C:
				mu.Lock()
				n := completed
				mu.Unlock()
				if _, err := w.Client.Heartbeat(bctx, grant.ID, w.ID, n); err != nil {
					if errors.Is(err, ErrLeaseLost) {
						logf("worker %s: lease %s lost; abandoning batch", w.ID, grant.ID)
						cancel()
						return
					}
					if bctx.Err() == nil {
						logf("worker %s: heartbeat %s: %v", w.ID, grant.ID, err)
					}
				}
			}
		}
	}()

	_, runErr := w.Harness.RunManyContext(bctx, grant.Specs)

	// Final sweep: everything completed but not yet acknowledged, plus the
	// failures. Detached from ctx so a shutting-down (or lease-lost)
	// worker still lands finished work; the coordinator accepts late
	// pushes and dedupes.
	pushCtx, pcancel := context.WithTimeout(context.WithoutCancel(ctx), pushTimeout)
	defer pcancel()
	var entries []campaign.Entry
	mu.Lock()
	for _, spec := range grant.Specs {
		key := spec.Key()
		if acked[key] {
			continue
		}
		if r, ok := w.Harness.ResultFor(key); ok {
			entries = append(entries, campaign.Entry{Key: key, Result: r})
		}
	}
	mu.Unlock()
	var failures []RunFailure
	var rf *harness.RunFailures
	if errors.As(runErr, &rf) {
		for _, f := range rf.Failed {
			failures = append(failures, RunFailure{Key: f.Spec.Key(), Error: f.Error()})
		}
	} else if runErr != nil && !sim.IsCancel(runErr) {
		return runErr
	}
	if len(entries) > 0 || len(failures) > 0 {
		if _, err := w.Client.PushResults(pushCtx, grant.ID, w.ID, entries, failures); err != nil {
			return fmt.Errorf("final results push: %w", err)
		}
	}
	return nil
}

// sleepCtx waits d, returning false if ctx fired first.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	select {
	case <-ctx.Done():
		return false
	case <-time.After(d):
		return true
	}
}
