package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"github.com/bertisim/berti/internal/harness"
	"github.com/bertisim/berti/internal/obs/live"
	"github.com/bertisim/berti/internal/sim"
)

// Spec states in the lease pool. The state machine is deliberately tiny:
//
//	pending --acquire/next--> leased --complete/fail--> done   (terminal)
//	   ^                        |
//	   +--------expire----------+
//
// done is terminal: a late completion for a reassigned spec (the original
// worker finished after its lease expired) finds the state already done
// and is deduped, so no spec is ever double-counted; an expired lease
// returns its specs to pending, so no spec is ever lost. Specs taken by
// the coordinator's own loops (next) are leased with no expiring lease:
// such a loop is lost only with the coordinator itself, whose restart
// re-enqueues from the manifests.
const (
	specPending byte = iota
	specLeased
	specDone
)

// localHolder is the holder of a spec leased to one of the coordinator's
// own loops: no lease record, so expire never touches it.
const localHolder = ""

// lease is one granted batch.
type lease struct {
	id       string
	worker   string
	deadline time.Time
	// outstanding holds the batch's not-yet-finished keys; the lease is
	// discarded once it empties (nothing left to reassign).
	outstanding map[string]bool
	total       int
	// progress is the worker's last heartbeat Completed figure.
	progress int
}

// workerInfo is one registry row.
type workerInfo struct {
	firstSeen time.Time
	lastSeen  time.Time
	leases    uint64
	specsDone uint64
}

// leasePool is the server's only work queue: which specs are waiting,
// which are out on lease to which worker (or running on a local loop), and
// which are finished. Remote acquires and local loops pop the same FIFO.
// All transitions happen under one mutex — the pool is the single
// authority on spec fate, which is what makes exactly-once accounting
// checkable.
type leasePool struct {
	ttl  time.Duration
	hb   time.Duration
	now  func() time.Time // injectable clock for deterministic tests
	live *live.Server

	mu       sync.Mutex
	wake     *sync.Cond // signalled when pending work appears or the pool closes
	closed   bool       // set by close: next returns false from then on
	seq      uint64
	pending  []string // FIFO of candidate keys; stale (non-pending) entries skipped lazily
	pendingN int      // exact count of state==specPending keys
	state    map[string]byte
	specs    map[string]harness.RunSpec
	holder   map[string]string // leased key -> lease ID (localHolder for a local loop)
	leases   map[string]*lease
	workers  map[string]*workerInfo
}

func newLeasePool(ttl, hb time.Duration, lv *live.Server) *leasePool {
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	if hb <= 0 {
		hb = ttl / 4
	}
	p := &leasePool{
		ttl:     ttl,
		hb:      hb,
		now:     time.Now,
		live:    lv,
		state:   map[string]byte{},
		specs:   map[string]harness.RunSpec{},
		holder:  map[string]string{},
		leases:  map[string]*lease{},
		workers: map[string]*workerInfo{},
	}
	p.wake = sync.NewCond(&p.mu)
	return p
}

// add registers specs as pending work. Keys the pool already finished are
// returned (the caller counts them complete immediately); keys already
// pending or leased are silently shared — their eventual completion
// notifies every interested campaign.
func (p *leasePool) add(specs []harness.RunSpec) (alreadyDone []string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, spec := range specs {
		key := spec.Key()
		st, ok := p.state[key]
		if ok {
			if st == specDone {
				alreadyDone = append(alreadyDone, key)
			}
			continue
		}
		p.state[key] = specPending
		p.specs[key] = spec
		p.pending = append(p.pending, key)
		p.pendingN++
		p.wake.Signal()
	}
	return alreadyDone
}

// popPendingLocked dequeues the oldest pending key, skipping stale
// entries (completed or re-leased since they were queued).
func (p *leasePool) popPendingLocked() (string, bool) {
	for len(p.pending) > 0 {
		key := p.pending[0]
		p.pending = p.pending[1:]
		if p.state[key] == specPending {
			return key, true
		}
	}
	return "", false
}

// next blocks until a spec is pending and leases it to a local loop (see
// localHolder). It returns false once the pool is closed.
func (p *leasePool) next() (harness.RunSpec, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for !p.closed {
		if key, ok := p.popPendingLocked(); ok {
			p.state[key] = specLeased
			p.holder[key] = localHolder
			p.pendingN--
			return p.specs[key], true
		}
		p.wake.Wait()
	}
	return harness.RunSpec{}, false
}

// close releases every loop blocked in next. Remote leases are unaffected.
func (p *leasePool) close() {
	p.mu.Lock()
	p.closed = true
	p.wake.Broadcast()
	p.mu.Unlock()
}

// touchWorker updates the registry under the lock.
func (p *leasePool) touchWorkerLocked(worker string) *workerInfo {
	w := p.workers[worker]
	if w == nil {
		w = &workerInfo{firstSeen: p.now()}
		p.workers[worker] = w
	}
	w.lastSeen = p.now()
	return w
}

// acquire grants up to max pending specs to worker. Returns nil when no
// work is pending.
func (p *leasePool) acquire(worker string, max int) (*lease, []harness.RunSpec) {
	p.mu.Lock()
	defer p.mu.Unlock()
	w := p.touchWorkerLocked(worker)
	var granted []string
	for len(granted) < max {
		key, ok := p.popPendingLocked()
		if !ok {
			break
		}
		granted = append(granted, key)
	}
	if len(granted) == 0 {
		return nil, nil
	}
	p.seq++
	l := &lease{
		id:          fmt.Sprintf("l%06d", p.seq),
		worker:      worker,
		deadline:    p.now().Add(p.ttl),
		outstanding: make(map[string]bool, len(granted)),
		total:       len(granted),
	}
	specs := make([]harness.RunSpec, len(granted))
	for i, key := range granted {
		p.state[key] = specLeased
		p.holder[key] = l.id
		l.outstanding[key] = true
		specs[i] = p.specs[key]
	}
	p.pendingN -= len(granted)
	p.leases[l.id] = l
	w.leases++
	if p.live != nil {
		p.live.LeaseGranted()
	}
	return l, specs
}

// heartbeat extends a lease's deadline and records progress. Returns
// false when the lease is unknown (expired and reassigned, or never
// granted) — the worker must abandon the batch.
func (p *leasePool) heartbeat(id, worker string, completed int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.touchWorkerLocked(worker)
	l, ok := p.leases[id]
	if !ok {
		return false
	}
	l.deadline = p.now().Add(p.ttl)
	if completed > l.progress {
		l.progress = completed
	}
	return true
}

// touchLease extends a lease's deadline if it still exists (a results
// push proves the worker is alive even without heartbeats).
func (p *leasePool) touchLease(id string) {
	p.mu.Lock()
	if l, ok := p.leases[id]; ok {
		l.deadline = p.now().Add(p.ttl)
	}
	p.mu.Unlock()
}

// finish transitions key to done (from any non-terminal state), detaching
// it from its holding lease. fresh reports a first completion; known
// reports whether the pool tracks the key at all. Exactly one concurrent
// caller per key ever sees fresh==true. worker is localHolder for a local
// loop, which stays out of the worker registry.
func (p *leasePool) finish(worker, key string) (fresh, known bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if worker != localHolder {
		p.touchWorkerLocked(worker)
	}
	st, ok := p.state[key]
	if !ok {
		return false, false
	}
	if st == specDone {
		return false, true
	}
	if st == specLeased {
		lid := p.holder[key]
		delete(p.holder, key)
		if l := p.leases[lid]; l != nil {
			delete(l.outstanding, key)
			if len(l.outstanding) == 0 {
				delete(p.leases, lid)
			}
		}
	} else {
		p.pendingN-- // completing straight from pending (late result after expiry)
	}
	p.state[key] = specDone
	if w := p.workers[worker]; w != nil {
		w.specsDone++
	}
	return true, true
}

// expire scans for past-deadline leases and returns their outstanding
// specs to the pending queue. Returns the number of leases expired and
// specs reassigned.
func (p *leasePool) expire() (leases, specs int) {
	p.mu.Lock()
	now := p.now()
	for id, l := range p.leases {
		if !now.After(l.deadline) {
			continue
		}
		leases++
		for key := range l.outstanding {
			delete(p.holder, key)
			p.state[key] = specPending
			p.pending = append(p.pending, key)
			p.pendingN++
			specs++
		}
		delete(p.leases, id)
	}
	if specs > 0 {
		p.wake.Broadcast()
	}
	p.mu.Unlock()
	if p.live != nil {
		for i := 0; i < leases; i++ {
			p.live.LeaseExpired()
		}
		if specs > 0 {
			p.live.SpecsReassigned(specs)
		}
	}
	return leases, specs
}

// gauges assembles the point-in-time fleet state for /metrics.
func (p *leasePool) gauges() live.FleetGauges {
	p.mu.Lock()
	defer p.mu.Unlock()
	now := p.now()
	liveN := 0
	for _, w := range p.workers {
		if now.Sub(w.lastSeen) <= p.ttl {
			liveN++
		}
	}
	return live.FleetGauges{
		WorkersSeen:       len(p.workers),
		WorkersLive:       liveN,
		LeasesOutstanding: len(p.leases),
		SpecsPending:      p.pendingN,
	}
}

// workerStatuses assembles the registry rows, sorted by worker ID.
func (p *leasePool) workerStatuses() []WorkerStatus {
	p.mu.Lock()
	defer p.mu.Unlock()
	now := p.now()
	out := make([]WorkerStatus, 0, len(p.workers))
	for id, w := range p.workers {
		out = append(out, WorkerStatus{
			Worker:            id,
			Live:              now.Sub(w.lastSeen) <= p.ttl,
			LastSeenAgoMillis: now.Sub(w.lastSeen).Milliseconds(),
			LeasesAcquired:    w.leases,
			SpecsCompleted:    w.specsDone,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Worker < out[j].Worker })
	return out
}

// ---- completion paths ----

// acceptEntry lands one finished result, pushed over HTTP by worker or
// computed by a local loop (worker is localHolder; the harness's OnResult
// hook calls this). The pool decides its fate (the single authority on
// first-vs-duplicate), and only a first completion touches the memo
// cache, the store, the journals, and the campaign counters. The fleet
// counters count HTTP pushes only. Returns "accepted", "duplicate", or
// "unknown".
func (s *Server) acceptEntry(worker, key string, r *sim.Result) string {
	s.mu.Lock()
	fresh, known := s.pool.finish(worker, key)
	var interested []*campaignState
	if fresh {
		s.h.SeedResult(key, r)
		interested = s.interestedLocked(key)
	}
	s.mu.Unlock()
	remote := worker != localHolder
	if fresh {
		if err := s.store.Put(key, r); err != nil {
			s.logf("server: result store: %v", err)
		}
		s.live.RunCompleted()
		if remote {
			s.live.RemoteResult()
		}
		for _, c := range interested {
			_ = c.journal.Append(key, r)
			c.noteKeyDone(key)
		}
		return "accepted"
	}
	if !remote {
		return "duplicate" // a local run that lost to a late push
	}
	if known {
		s.live.DuplicateResult()
		return "duplicate"
	}
	// The pool never tracked this key in this daemon life; if it is already
	// finished in the memo cache or the store (done before a restart), the
	// push is a late duplicate, otherwise it is work the coordinator never
	// issued.
	if _, ok := s.h.ResultFor(key); ok {
		s.live.DuplicateResult()
		return "duplicate"
	}
	if _, ok := s.store.Get(key); ok {
		s.live.DuplicateResult()
		return "duplicate"
	}
	s.live.UnknownResult()
	return "unknown"
}

// acceptFailure lands one failure, pushed or local, with the same
// first-vs-duplicate decision as acceptEntry. Failures are terminal for
// this daemon life (like the harness's error memoization) but are not
// persisted, so they re-execute after a restart.
func (s *Server) acceptFailure(worker, key, msg string) string {
	s.mu.Lock()
	fresh, known := s.pool.finish(worker, key)
	var interested []*campaignState
	if fresh {
		s.failures[key] = msg
		interested = s.interestedLocked(key)
	}
	s.mu.Unlock()
	if !fresh {
		if !known {
			return "unknown"
		}
		if worker != localHolder {
			s.live.DuplicateResult()
		}
		return "duplicate"
	}
	s.live.RunFailed()
	for _, c := range interested {
		c.noteKeyFailed(key, msg)
	}
	return "failed"
}

// interestedLocked lists the campaigns containing key. Caller holds s.mu.
func (s *Server) interestedLocked(key string) []*campaignState {
	var out []*campaignState
	for _, c := range s.campaigns {
		if c.keys[key] {
			out = append(out, c)
		}
	}
	return out
}

// expiryLoop periodically reassigns expired leases until the server
// drains. The cadence follows the heartbeat interval: expiry is detected
// within one heartbeat period of the deadline.
func (s *Server) expiryLoop() {
	defer s.workerWG.Done()
	interval := s.pool.hb
	if interval < 5*time.Millisecond {
		interval = 5 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.runCtx.Done():
			return
		case <-t.C:
			if n, specs := s.pool.expire(); n > 0 {
				s.logf("server: expired %d lease(s), reassigned %d spec(s)", n, specs)
			}
		}
	}
}

// ---- lease HTTP handlers ----

func (s *Server) handleLeaseAcquire(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	if req.Worker == "" {
		writeErr(w, http.StatusBadRequest, errors.New("lease request needs a worker identity"))
		return
	}
	if s.isDraining() {
		writeErr(w, http.StatusServiceUnavailable, errors.New("daemon is draining; not granting leases"))
		return
	}
	max := req.MaxSpecs
	if max <= 0 {
		max = DefaultLeaseSpecs
	}
	if max > maxLeaseSpecs {
		max = maxLeaseSpecs
	}
	grant := &LeaseGrant{
		SchemaVersion:   APISchemaVersion,
		Scale:           s.h.Scale.Name,
		TTLMillis:       s.pool.ttl.Milliseconds(),
		HeartbeatMillis: s.pool.hb.Milliseconds(),
	}
	if l, specs := s.pool.acquire(req.Worker, max); l != nil {
		grant.ID = l.id
		grant.Specs = specs
	}
	writeJSON(w, http.StatusOK, grant)
}

func (s *Server) handleLeaseHeartbeat(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var req HeartbeatRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	if s.isDraining() {
		writeErr(w, http.StatusGone, errors.New("daemon is draining; abandon the lease"))
		return
	}
	if !s.pool.heartbeat(id, req.Worker, req.Completed) {
		writeErr(w, http.StatusGone, fmt.Errorf("lease %s expired or unknown; its specs were reassigned", id))
		return
	}
	writeJSON(w, http.StatusOK, &HeartbeatResponse{
		SchemaVersion:  APISchemaVersion,
		State:          "ok",
		DeadlineMillis: s.pool.ttl.Milliseconds(),
	})
}

// handleLeaseResults lands a worker's push. Deliberately lenient: results
// are accepted even for an expired or unknown lease (the computation is
// real regardless of the lease's fate) and during a drain (write-through
// journals make every landed result crash-safe) — the per-entry
// accounting in the response says what actually happened.
func (s *Server) handleLeaseResults(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var req ResultsRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	if req.Worker == localHolder {
		writeErr(w, http.StatusBadRequest, errors.New("results push needs a worker identity"))
		return
	}
	resp := &ResultsResponse{SchemaVersion: APISchemaVersion}
	for _, e := range req.Entries {
		if e.Key == "" || e.Result == nil {
			writeErr(w, http.StatusBadRequest, errors.New("every entry needs a key and a result"))
			return
		}
	}
	for _, f := range req.Failures {
		if f.Key == "" {
			writeErr(w, http.StatusBadRequest, errors.New("every failure needs a key"))
			return
		}
	}
	for _, e := range req.Entries {
		switch s.acceptEntry(req.Worker, e.Key, e.Result) {
		case "accepted":
			resp.Accepted++
		case "duplicate":
			resp.Duplicates++
		default:
			resp.Unknown++
		}
	}
	for _, f := range req.Failures {
		switch s.acceptFailure(req.Worker, f.Key, f.Error) {
		case "failed":
			resp.Failed++
		case "duplicate":
			resp.Duplicates++
		default:
			resp.Unknown++
		}
	}
	s.pool.touchLease(id)
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleWorkers(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.pool.workerStatuses())
}
