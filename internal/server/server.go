package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"github.com/bertisim/berti/internal/campaign"
	"github.com/bertisim/berti/internal/harness"
	"github.com/bertisim/berti/internal/obs/live"
	"github.com/bertisim/berti/internal/sim"
)

// APISchemaVersion governs every JSON document the HTTP API serves.
const APISchemaVersion = 1

// ReportSchemaVersion governs the campaign report document. It matches the
// cmd/experiments -json-out shape (schema, scale, runs sorted by key) with
// the campaign identity added.
const ReportSchemaVersion = 1

// Options configures a Server.
type Options struct {
	// Harness executes the local runs (required). The server owns its
	// OnResult hook, where every fresh local result lands, and its base
	// context. A wrapper installed after New must keep calling the hook.
	Harness *harness.Harness
	// DataDir is the daemon's state root (required): per-campaign journals
	// and manifests live in DataDir/campaigns, the content-addressed result
	// store in DataDir/results.
	DataDir string
	// Live receives run counters and serves /metrics; a listener-less one
	// is created when nil.
	Live *live.Server
	// Logf sinks operational log lines (log.Printf when nil).
	Logf func(format string, args ...any)
	// LeaseOnly starts no local loops: every spec waits in the lease pool
	// for bertiworker processes to pull. Otherwise New starts
	// Harness.Workers loops that drain the same pool in-process; the lease
	// endpoints are served either way, so remote workers can help a local
	// daemon too.
	LeaseOnly bool
	// LeaseTTL is how long a lease survives without a heartbeat or a
	// results push before its specs are reassigned (DefaultLeaseTTL if 0).
	LeaseTTL time.Duration
	// HeartbeatInterval is the cadence suggested to workers and the expiry
	// scan period (LeaseTTL/4 if 0).
	HeartbeatInterval time.Duration
}

// Server is the campaign service: it admits experiment specs over HTTP,
// dedupes them against everything ever computed (memo cache, result store,
// in-flight single-flight), queues fresh work in the lease pool for local
// loops and remote workers alike, and journals every completion so a
// killed daemon resumes every in-flight campaign on restart.
type Server struct {
	h       *harness.Harness
	live    *live.Server
	store   *Store
	campDir string
	logf    func(string, ...any)
	mux     *http.ServeMux
	pool    *leasePool

	runCtx     context.Context
	cancelRuns context.CancelFunc
	workerWG   sync.WaitGroup
	drainOnce  sync.Once

	mu        sync.Mutex
	campaigns map[string]*campaignState
	failures  map[string]string // keys that failed this daemon life (error text)
	draining  bool
}

// New builds the server: opens the result store, recovers every on-disk
// campaign (journals seeded, unfinished specs re-enqueued), and starts the
// local loops (none with LeaseOnly). Mount Handler on an HTTP listener to
// serve it.
func New(opts Options) (*Server, error) {
	if opts.Harness == nil {
		return nil, errors.New("server: Options.Harness is required")
	}
	if opts.DataDir == "" {
		return nil, errors.New("server: Options.DataDir is required")
	}
	store, err := NewStore(filepath.Join(opts.DataDir, "results"))
	if err != nil {
		return nil, err
	}
	campDir := filepath.Join(opts.DataDir, "campaigns")
	if err := os.MkdirAll(campDir, 0o755); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	lv := opts.Live
	if lv == nil {
		lv = live.NewServer()
	}
	logf := opts.Logf
	if logf == nil {
		logf = log.Printf
	}
	s := &Server{
		h:         opts.Harness,
		live:      lv,
		store:     store,
		campDir:   campDir,
		logf:      logf,
		campaigns: map[string]*campaignState{},
		failures:  map[string]string{},
	}
	s.pool = newLeasePool(opts.LeaseTTL, opts.HeartbeatInterval, lv)
	lv.SetFleetGauges(s.pool.gauges)
	s.runCtx, s.cancelRuns = context.WithCancel(context.Background())
	s.h.SetContext(s.runCtx)
	s.h.OnResult = func(key string, _ harness.RunSpec, r *sim.Result) {
		s.acceptEntry(localHolder, key, r)
	}
	s.buildMux()
	if err := s.recover(); err != nil {
		return nil, err
	}
	if !opts.LeaseOnly {
		for i := 0; i < max(s.h.Workers, 1); i++ {
			s.workerWG.Add(1)
			go s.localLoop()
		}
	}
	s.workerWG.Add(1)
	go s.expiryLoop()
	return s, nil
}

// localLoop is one in-process executor: it takes pending specs from the
// pool and runs them on the harness. A fresh result lands through the
// OnResult hook and a failure through acceptFailure, the same functions a
// pushed HTTP result uses. A spec cancelled by Drain stays unfinished; the
// next daemon life resumes it.
func (s *Server) localLoop() {
	defer s.workerWG.Done()
	for {
		spec, ok := s.pool.next()
		if !ok {
			return
		}
		if _, err := s.h.RunContext(s.runCtx, spec); err != nil && !sim.IsCancel(err) {
			s.acceptFailure(localHolder, spec.Key(), err.Error())
		}
	}
}

// recover rebuilds every on-disk campaign after a restart: journals are
// scanned (torn tails repaired), their entries and the result store seed
// the memo cache, and whatever is still unfinished re-enters the queue.
func (s *Server) recover() error {
	scanned, err := campaign.ScanDir(s.campDir)
	if err != nil {
		return fmt.Errorf("server: scanning %s: %w", s.campDir, err)
	}
	for _, e := range scanned {
		if e.Err != nil {
			s.logf("server: skipping campaign %s: %v", e.ID, e.Err)
			continue
		}
		m, err := readManifest(filepath.Join(s.campDir, e.ID+ManifestExt))
		if err != nil {
			s.logf("server: skipping campaign %s: no usable manifest: %v", e.ID, err)
			continue
		}
		if e.Journal.Scale() != s.h.Scale {
			s.logf("server: skipping campaign %s: journal scale %q, daemon runs %q",
				e.ID, e.Journal.Scale().Name, s.h.Scale.Name)
			continue
		}
		if d := e.Journal.Dropped(); d > 0 {
			s.logf("server: campaign %s: truncated %d damaged tail record(s); those runs re-execute", e.ID, d)
		}
		c := newCampaignState(m.ID, m.Name, m.Specs, e.Journal)
		e.Journal.Seed(s.h)
		s.mu.Lock()
		s.campaigns[c.id] = c
		s.mu.Unlock()
		s.enqueue(c)
		s.logf("server: resumed campaign %s (%d specs, %d already complete)", c.id, len(c.specs), c.status(false).Completed)
	}
	return nil
}

// enqueue seeds c's specs from the result store, counts what is already
// finished, and adds the remainder to the pool. Counters were initialised
// pessimistically at construction (everything remaining), so a completion
// racing this call is safe: noteKeyDone and noteKeyFailed dedupe per key
// via the campaign's done set.
func (s *Server) enqueue(c *campaignState) {
	var todo []harness.RunSpec
	var doneKeys []string
	for _, spec := range c.specs {
		key := spec.Key()
		if _, ok := s.h.ResultFor(key); ok {
			doneKeys = append(doneKeys, key)
			continue
		}
		if r, ok := s.store.Get(key); ok {
			s.h.SeedResult(key, r)
			doneKeys = append(doneKeys, key)
			continue
		}
		todo = append(todo, spec)
	}
	// acceptEntry and acceptFailure finish a key and seed its result or
	// record its failure in one s.mu section, so a key the pool already
	// calls done resolves here as one or the other.
	var failed []failedRun
	finished := s.pool.add(todo)
	s.mu.Lock()
	for _, k := range finished {
		if msg, ok := s.failures[k]; ok {
			failed = append(failed, failedRun{Key: k, Error: msg})
		} else {
			doneKeys = append(doneKeys, k)
		}
	}
	s.mu.Unlock()
	for _, k := range doneKeys {
		c.noteKeyDone(k)
	}
	for _, f := range failed {
		c.noteKeyFailed(f.Key, f.Error)
	}
}

// Drain stops the service gracefully: new submissions get 503, the run
// context is cancelled so in-flight simulations stop cooperatively at the
// engine's next poll stride, every completed run is already journaled and
// flushed (Journal.Append is write-through), and the local loops exit.
// Idempotent; returns once every loop has exited.
func (s *Server) Drain() {
	s.drainOnce.Do(func() {
		s.mu.Lock()
		s.draining = true
		s.mu.Unlock()
		s.cancelRuns()
		s.pool.close()
		s.workerWG.Wait()
	})
}

// isDraining reports whether Drain has started.
func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Close is Drain (the HTTP listener belongs to the caller).
func (s *Server) Close() error {
	s.Drain()
	return nil
}

// Handler returns the API mux:
//
//	POST /api/v1/campaigns           — submit a spec set; identical sets dedupe
//	GET  /api/v1/campaigns           — list campaign statuses
//	GET  /api/v1/campaigns/{id}      — one campaign's status
//	GET  /api/v1/campaigns/{id}/report — deterministic JSON report (done only)
//	GET  /api/v1/campaigns/{id}/stream — SSE progress stream
//	POST /api/v1/runs                — submit/poll one spec (idempotent)
//	POST /api/v1/leases              — worker acquires a batch of specs
//	POST /api/v1/leases/{id}/heartbeat — worker extends its lease
//	POST /api/v1/leases/{id}/results — worker pushes results (idempotent)
//	GET  /api/v1/workers             — worker registry
//	GET  /healthz                    — daemon state
//	GET  /metrics, /metrics/provenance, /debug/vars — the live metrics mux
func (s *Server) Handler() http.Handler { return s.mux }

// Live returns the embedded metrics server (the daemon wires provenance
// attribution through it).
func (s *Server) Live() *live.Server { return s.live }

func (s *Server) buildMux() {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/campaigns", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/campaigns", s.handleList)
	mux.HandleFunc("GET /api/v1/campaigns/{id}", s.handleStatus)
	mux.HandleFunc("GET /api/v1/campaigns/{id}/report", s.handleReport)
	mux.HandleFunc("GET /api/v1/campaigns/{id}/stream", s.handleStream)
	mux.HandleFunc("POST /api/v1/runs", s.handleRun)
	mux.HandleFunc("POST /api/v1/leases", s.handleLeaseAcquire)
	mux.HandleFunc("POST /api/v1/leases/{id}/heartbeat", s.handleLeaseHeartbeat)
	mux.HandleFunc("POST /api/v1/leases/{id}/results", s.handleLeaseResults)
	mux.HandleFunc("GET /api/v1/workers", s.handleWorkers)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	s.live.Mount(mux)
	s.mux = mux
}

// ---- API documents ----

// SubmitRequest is the POST /api/v1/campaigns body. Specs use the harness
// RunSpec JSON shape; duplicate keys within one submission collapse.
type SubmitRequest struct {
	Name  string            `json:"name,omitempty"`
	Specs []harness.RunSpec `json:"specs"`
}

// SubmitResponse acknowledges a submission.
type SubmitResponse struct {
	SchemaVersion int    `json:"schema_version"`
	ID            string `json:"id"`
	// Existing reports that an identical campaign was already known (from
	// any client, or a previous daemon life); the submission attached to it
	// instead of re-running anything.
	Existing  bool   `json:"existing"`
	Total     int    `json:"total"`
	StatusURL string `json:"status_url"`
}

// CampaignStatus is the status document for one campaign.
type CampaignStatus struct {
	SchemaVersion int    `json:"schema_version"`
	ID            string `json:"id"`
	Name          string `json:"name,omitempty"`
	State         string `json:"state"`
	Total         int    `json:"total"`
	Completed     int    `json:"completed"`
	Failed        int    `json:"failed"`
	Cancelled     int    `json:"cancelled"`
}

// Report is the final campaign document: every completed run sorted by
// memo key. For one campaign it is byte-identical whether the campaign ran
// uninterrupted or across any number of daemon restarts — the CI
// campaign-server job enforces exactly that.
type Report struct {
	SchemaVersion int              `json:"schema_version"`
	ID            string           `json:"id"`
	Name          string           `json:"name,omitempty"`
	Scale         harness.Scale    `json:"scale"`
	Runs          []campaign.Entry `json:"runs"`
	Failed        []failedRun      `json:"failed,omitempty"`
}

// RunStatus is the POST /api/v1/runs response: the submit call doubles as
// the poll (idempotent — the memo key is the identity).
type RunStatus struct {
	SchemaVersion int         `json:"schema_version"`
	Key           string      `json:"key"`
	State         string      `json:"state"` // "running", "done", or "failed"
	Result        *sim.Result `json:"result,omitempty"`
	Error         string      `json:"error,omitempty"`
}

// apiError is every non-2xx JSON body. Field/Name carry the typed
// *harness.SpecError breakdown for validation failures.
type apiError struct {
	Error string `json:"error"`
	Field string `json:"field,omitempty"`
	Name  string `json:"name,omitempty"`
}

// maxBodyBytes bounds request bodies (a full-scale sweep is well under
// this; anything bigger is a mistake or abuse).
const maxBodyBytes = 32 << 20

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	doc := apiError{Error: err.Error()}
	var se *harness.SpecError
	if errors.As(err, &se) {
		doc.Field, doc.Name = se.Field, se.Name
	}
	writeJSON(w, code, doc)
}

// ---- handlers ----

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	state := "running"
	if s.draining {
		state = "draining"
	}
	n := len(s.campaigns)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"schema_version": APISchemaVersion,
		"state":          state,
		"scale":          s.h.Scale.Name,
		"campaigns":      n,
	})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	if len(req.Specs) == 0 {
		writeErr(w, http.StatusBadRequest, errors.New("a campaign needs at least one spec"))
		return
	}
	for i, spec := range req.Specs {
		if err := harness.ValidateSpec(spec); err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("spec %d: %w", i, err))
			return
		}
	}
	specs := dedupeSpecs(req.Specs)
	id := CampaignID(s.h.Scale, specs)

	s.mu.Lock()
	if c, ok := s.campaigns[id]; ok {
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, &SubmitResponse{
			SchemaVersion: APISchemaVersion,
			ID:            id,
			Existing:      true,
			Total:         len(c.specs),
			StatusURL:     "/api/v1/campaigns/" + id,
		})
		return
	}
	if s.draining {
		s.mu.Unlock()
		writeErr(w, http.StatusServiceUnavailable, errors.New("daemon is draining; not admitting new campaigns"))
		return
	}
	// Register under the lock so a concurrent identical submission attaches
	// to this campaign instead of racing the on-disk artifacts.
	j, err := s.createCampaignArtifacts(id, req.Name, specs)
	if err != nil {
		s.mu.Unlock()
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	c := newCampaignState(id, req.Name, specs, j)
	s.campaigns[id] = c
	s.mu.Unlock()

	s.enqueue(c)
	writeJSON(w, http.StatusAccepted, &SubmitResponse{
		SchemaVersion: APISchemaVersion,
		ID:            id,
		Total:         len(specs),
		StatusURL:     "/api/v1/campaigns/" + id,
	})
}

// createCampaignArtifacts writes the manifest and creates the journal.
// Caller holds s.mu (submission admission is serialized by design — disk
// artifacts must exist before the campaign is visible).
func (s *Server) createCampaignArtifacts(id, name string, specs []harness.RunSpec) (*campaign.Journal, error) {
	m := &Manifest{SchemaVersion: ManifestSchemaVersion, ID: id, Name: name, Scale: s.h.Scale, Specs: specs}
	if err := writeManifest(filepath.Join(s.campDir, id+ManifestExt), m); err != nil {
		return nil, fmt.Errorf("writing manifest: %w", err)
	}
	j, err := campaign.Create(filepath.Join(s.campDir, id+campaign.JournalExt), s.h.Scale)
	if err != nil {
		return nil, fmt.Errorf("creating journal: %w", err)
	}
	return j, nil
}

func (s *Server) campaignByID(id string) (*campaignState, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.campaigns[id]
	return c, ok
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	all := make([]*campaignState, 0, len(s.campaigns))
	for _, c := range s.campaigns {
		all = append(all, c)
	}
	draining := s.draining
	s.mu.Unlock()
	statuses := make([]*CampaignStatus, len(all))
	for i, c := range all {
		statuses[i] = c.status(draining)
	}
	sort.Slice(statuses, func(i, j int) bool { return statuses[i].ID < statuses[j].ID })
	writeJSON(w, http.StatusOK, map[string]any{
		"schema_version": APISchemaVersion,
		"campaigns":      statuses,
	})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	c, ok := s.campaignByID(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, errors.New("unknown campaign"))
		return
	}
	st := c.status(s.isDraining())
	if err := c.journal.Err(); err != nil {
		// Journal writes failing means the campaign is not crash-resumable;
		// surface it on every status rather than only in daemon logs.
		writeJSON(w, http.StatusOK, map[string]any{
			"schema_version": APISchemaVersion,
			"status":         st,
			"journal_error":  err.Error(),
		})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	c, ok := s.campaignByID(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, errors.New("unknown campaign"))
		return
	}
	st := c.status(s.isDraining())
	if st.State == StateRunning {
		writeErr(w, http.StatusConflict,
			fmt.Errorf("campaign is still %s (%d of %d complete)", st.State, st.Completed, st.Total))
		return
	}
	writeJSON(w, http.StatusOK, s.buildReport(c))
}

// buildReport assembles the deterministic report: the campaign's keys
// sorted, each resolved through the memo cache (which the journals and the
// result store seeded after any restart).
func (s *Server) buildReport(c *campaignState) *Report {
	keys := make([]string, 0, len(c.keys))
	for k := range c.keys {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	rep := &Report{
		SchemaVersion: ReportSchemaVersion,
		ID:            c.id,
		Name:          c.name,
		Scale:         s.h.Scale,
		Runs:          make([]campaign.Entry, 0, len(keys)),
	}
	for _, k := range keys {
		if r, ok := s.h.ResultFor(k); ok {
			rep.Runs = append(rep.Runs, campaign.Entry{Key: k, Result: r})
		}
	}
	c.mu.Lock()
	failed := append([]failedRun(nil), c.failed...)
	c.mu.Unlock()
	sort.Slice(failed, func(i, j int) bool { return failed[i].Key < failed[j].Key })
	rep.Failed = failed
	return rep
}

// handleStream serves server-sent events: one status document per progress
// change, a final one when the campaign finishes, then the stream closes.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	c, ok := s.campaignByID(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, errors.New("unknown campaign"))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, errors.New("streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)

	events, cancel := c.subscribe()
	defer cancel()
	send := func() bool {
		body, err := json.Marshal(c.status(s.isDraining()))
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "data: %s\n\n", body); err != nil {
			return false
		}
		fl.Flush()
		return true
	}
	if !send() {
		return
	}
	for {
		select {
		case <-events:
			if !send() {
				return
			}
		case <-c.done:
			send()
			return
		case <-r.Context().Done():
			return
		}
	}
}

// handleRun is the single-spec endpoint behind the cmd/experiments
// -server thin-client mode. The POST is idempotent: submitting an
// already-known spec reports its current state (and result, once done), so
// the same call is both "submit" and "poll".
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var spec harness.RunSpec
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&spec); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("decoding spec: %w", err))
		return
	}
	if err := harness.ValidateSpec(spec); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	key := spec.Key()
	if res, ok := s.h.ResultFor(key); ok {
		writeJSON(w, http.StatusOK, &RunStatus{SchemaVersion: APISchemaVersion, Key: key, State: "done", Result: res})
		return
	}
	if res, ok := s.store.Get(key); ok {
		s.h.SeedResult(key, res)
		writeJSON(w, http.StatusOK, &RunStatus{SchemaVersion: APISchemaVersion, Key: key, State: "done", Result: res})
		return
	}
	s.mu.Lock()
	msg, failed := s.failures[key]
	draining := s.draining
	s.mu.Unlock()
	if failed {
		writeJSON(w, http.StatusOK, &RunStatus{SchemaVersion: APISchemaVersion, Key: key, State: "failed", Error: msg})
		return
	}
	if draining {
		writeErr(w, http.StatusServiceUnavailable, errors.New("daemon is draining; not admitting new runs"))
		return
	}
	// A no-op for a key already queued or running; the completion lands
	// through acceptEntry or acceptFailure and the next poll reports it.
	s.pool.add([]harness.RunSpec{spec})
	writeJSON(w, http.StatusAccepted, &RunStatus{SchemaVersion: APISchemaVersion, Key: key, State: "running"})
}
