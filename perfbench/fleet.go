package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"github.com/bertisim/berti/internal/harness"
	"github.com/bertisim/berti/internal/server"
	"github.com/bertisim/berti/internal/sim"
)

// Campaign timing settings. Completion is detected with a fixed 5 ms status
// poll (not WaitCampaign's default 250 ms → 5 s backoff) and idle workers
// re-poll every 5 ms (not every 500 ms), so a campaign's measured time is
// its work, not the pollers' sleep. Leases keep the coordinator's default
// TTL and heartbeat cadence, which a micro-scale lease never reaches.
const (
	statusPoll    = 5 * time.Millisecond
	workerPoll    = 5 * time.Millisecond
	leaseWorkers  = 2
	campaignLabel = "perfbench-grid"
)

// campaignWorkload submits the full trace × prefetcher grid to an
// in-process bertid coordinator behind loopback HTTP. In lease mode two
// in-process server.Workers (one simulation each) pull leases; in local
// mode the coordinator's own shard executor runs the specs on a harness
// with two workers. Every pass gets a fresh data directory, fresh
// harnesses and a fresh server, so neither the memo cache, the
// content-addressed store nor the deterministic campaign ID can turn a
// timed pass into cache hits.
type campaignWorkload struct {
	lease bool
	seed  int64
	specs []harness.RunSpec // the grid in seed-dependent submission order
	byKey map[string]harness.RunSpec
	dir   string
	n     int
	rig   *rig
	rec   *httpRecorder // non-nil while traced

	gen genStats // trace generation of the latest rig
}

// rig is one coordinator (plus workers) with its own data directory.
type rig struct {
	dataDir string
	h       *harness.Harness
	srv     *server.Server
	hs      *http.Server
	serveWG sync.WaitGroup
	base    string
	client  *server.Client
	stop    context.CancelFunc
	workers sync.WaitGroup
	werrs   []error
	mu      sync.Mutex
}

// setup replaces the current rig with a fresh one and returns the time
// the new one took to build.
func (w *campaignWorkload) setup(tr *tracer, parent int64) (time.Duration, error) {
	w.teardown()
	if tr != nil && w.rec == nil {
		w.rec = newHTTPRecorder()
	}
	runtime.GC()
	t0 := time.Now()
	r, err := w.build(tr, parent)
	if err != nil {
		return 0, err
	}
	w.rig = r
	return time.Since(t0), nil
}

// build starts a coordinator (and, in lease mode, its workers) on a fresh
// data directory, with every trace generated ahead of the timed region.
func (w *campaignWorkload) build(tr *tracer, parent int64) (*rig, error) {
	w.n++
	w.gen = genStats{}
	r := &rig{dataDir: filepath.Join(w.dir, fmt.Sprintf("data-%d", w.n))}
	r.h = harness.New(benchMicro)
	r.h.Workers = 2
	traces := gridTraces()
	if !w.lease {
		if err := w.gen.pregen(tr, parent, r.h, traces); err != nil {
			return nil, err
		}
	}
	srv, err := server.New(server.Options{
		Harness: r.h, DataDir: r.dataDir, LeaseOnly: w.lease, Logf: r.logf,
	})
	if err != nil {
		return nil, err
	}
	r.srv = srv
	if w.rec != nil && !w.lease {
		// The local path persists each completion in the harness's
		// OnResult hook (result store + journal); time it from outside.
		persist := r.h.OnResult
		r.h.OnResult = func(key string, spec harness.RunSpec, res *sim.Result) {
			t0 := time.Now()
			persist(key, spec, res)
			tr.add(parent, "server.onResult (store put + journal append)", "campaign", 9, t0, time.Now())
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	r.hs = &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	r.serveWG.Add(1)
	go func() {
		defer r.serveWG.Done()
		_ = r.hs.Serve(ln) // returns http.ErrServerClosed on shutdown
	}()
	r.base = "http://" + ln.Addr().String()
	r.client = w.newClient(r.base, tr, parent, 0)
	ctx, stop := context.WithCancel(context.Background())
	r.stop = stop
	if w.lease {
		for i := 0; i < leaseWorkers; i++ {
			wh := harness.New(benchMicro)
			wh.Workers = 1
			if err := w.gen.pregen(tr, parent, wh, traces); err != nil {
				r.close()
				return nil, err
			}
			wk := &server.Worker{
				ID: fmt.Sprintf("bench-w%d", i+1), Client: w.newClient(r.base, tr, parent, 1+2*i),
				Harness: wh, PollInterval: workerPoll, Logf: r.logf,
			}
			r.workers.Add(1)
			go func() {
				defer r.workers.Done()
				if err := wk.Run(ctx); err != nil {
					r.mu.Lock()
					r.werrs = append(r.werrs, err)
					r.mu.Unlock()
				}
			}()
		}
	}
	return r, nil
}

func (w *campaignWorkload) newClient(base string, tr *tracer, parent int64, lane int) *server.Client {
	c := server.NewClient(base)
	c.PollInterval, c.PollMax = statusPoll, statusPoll
	if w.rec != nil {
		c.SetTransport(&timingTransport{base: http.DefaultTransport, tr: tr, parent: parent, lane: lane, rec: w.rec})
	}
	return c
}

// logf keeps operational log lines off the benchmark's output; any line is
// a sign of trouble, so the pass reports them.
func (r *rig) logf(format string, args ...any) {
	r.mu.Lock()
	r.werrs = append(r.werrs, fmt.Errorf(format, args...))
	r.mu.Unlock()
}

// close stops the workers, the listener and the server, and removes the
// data directory.
func (r *rig) close() {
	r.stop()
	r.workers.Wait()
	// Close, not Shutdown: every client has finished, and Shutdown would
	// wait up to 5 s for any connection a cancelled poll dialled but never
	// used.
	_ = r.hs.Close() // nothing is in flight that needs a reply
	r.serveWG.Wait()
	r.srv.Close()
	_ = os.RemoveAll(r.dataDir)
}

func (w *campaignWorkload) teardown() {
	if w.rig != nil {
		w.rig.close()
		w.rig = nil
	}
}

func (w *campaignWorkload) close() { w.teardown() }

func (w *campaignWorkload) runScale() harness.Scale { return benchMicro }

func (w *campaignWorkload) iterate(tr *tracer, parent int64) (*iteration, error) {
	it := &iteration{}
	if w.rig == nil {
		d, err := w.setup(tr, parent)
		if err != nil {
			return nil, err
		}
		it.setup = d
	}
	r := w.rig
	defer w.teardown()
	ctx := context.Background()

	before := readProc()
	sub, err := r.client.Submit(ctx, campaignLabel, w.specs)
	if err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	st, err := r.client.WaitCampaign(ctx, sub.ID)
	if err != nil {
		return nil, fmt.Errorf("wait: %w", err)
	}
	after := readProc()
	it.wall, it.cpu = after.wall.Sub(before.wall), after.cpu-before.cpu
	it.specs = len(w.specs)
	it.failed = st.Failed + st.Cancelled
	if st.State != server.StateDone || st.Completed != len(w.specs) || sub.Existing {
		return nil, fmt.Errorf("campaign ended %s with %d of %d complete (existing=%v)", st.State, st.Completed, len(w.specs), sub.Existing)
	}

	body, err := r.client.Report(ctx, sub.ID)
	if err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	var rep server.Report
	if err := json.Unmarshal(body, &rep); err != nil {
		return nil, fmt.Errorf("decoding report: %w", err)
	}
	if err := w.checkReport(&rep); err != nil {
		return nil, err
	}
	sum := sha256.Sum256(body)
	it.digest = hex.EncodeToString(sum[:])
	it.entries = rep.Runs
	summarize(it, w.byKey, benchMicro.WarmupInstr)

	r.mu.Lock()
	werrs := append([]error(nil), r.werrs...)
	r.mu.Unlock()
	if len(werrs) > 0 {
		return nil, fmt.Errorf("coordinator or worker reported trouble: %w", errors.Join(werrs...))
	}
	fleet, err := fleetCounters(r.base)
	if err != nil {
		return nil, err
	}
	if w.rec != nil {
		w.rec.mu.Lock()
		w.rec.duplicates += fleet.DuplicateResults
		w.rec.reassigned += fleet.SpecsReassigned
		w.rec.mu.Unlock()
	}
	if fleet.DuplicateResults != 0 || fleet.SpecsReassigned != 0 {
		return nil, fmt.Errorf("fleet counters: %d duplicate results, %d specs reassigned (both must be 0)",
			fleet.DuplicateResults, fleet.SpecsReassigned)
	}
	return it, nil
}

// checkReport requires every submitted key exactly once and no failures.
func (w *campaignWorkload) checkReport(rep *server.Report) error {
	if len(rep.Failed) > 0 {
		return fmt.Errorf("report lists %d failed runs", len(rep.Failed))
	}
	seen := make(map[string]bool, len(rep.Runs))
	for _, e := range rep.Runs {
		if _, ok := w.byKey[e.Key]; !ok {
			return fmt.Errorf("report holds unsubmitted key %q", e.Key)
		}
		if seen[e.Key] {
			return fmt.Errorf("report holds key %q twice", e.Key)
		}
		if e.Result == nil {
			return fmt.Errorf("report holds no result for %q", e.Key)
		}
		seen[e.Key] = true
	}
	if len(seen) != len(w.byKey) {
		return fmt.Errorf("report holds %d of %d submitted keys", len(seen), len(w.byKey))
	}
	return nil
}

// fleetCounters reads the coordinator's live fleet counters from /metrics.
func fleetCounters(base string) (*liveFleet, error) {
	c := &http.Client{Timeout: 10 * time.Second}
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	defer resp.Body.Close()
	var doc struct {
		Fleet liveFleet `json:"fleet"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	return &doc.Fleet, nil
}

type liveFleet struct {
	SpecsReassigned  uint64 `json:"specs_reassigned"`
	DuplicateResults uint64 `json:"duplicate_results_deduped"`
}

// crossCheck runs the grid once through the other execution path (local
// shards for campaign-lease, leased workers for campaign-local) and
// requires a byte-identical report.
func (w *campaignWorkload) crossCheck(first *iteration) (exactMetrics, error) {
	other := newCampaign(w.seed, filepath.Join(w.dir, "cross-check"), !w.lease)
	defer other.close()
	it, err := other.iterate(nil, 0)
	if err != nil {
		return first.exact, fmt.Errorf("cross-check through the other execution path: %w", err)
	}
	if it.digest != first.digest {
		return first.exact, errors.New("campaign-lease and campaign-local reports differ")
	}
	return first.exact, nil
}

func (w *campaignWorkload) layerMetrics(_ *tracer, _ int64, m metrics) error {
	w.gen.report(m)
	w.rec.metrics(m)
	return nil
}

// httpRecorder aggregates the timing transport's observations across the
// traced passes.
type httpRecorder struct {
	mu         sync.Mutex
	ms         map[string][]float64 // endpoint class -> request times
	requests   int
	grants     int
	empty      int
	leaseSpecs int
	grantAt    map[string]time.Time
	lastAccept map[string]time.Time
	lastEnd    map[int]time.Time // per worker lane: end of the previous request
	runMs      []float64
	duplicates uint64
	reassigned uint64
}

func newHTTPRecorder() *httpRecorder {
	return &httpRecorder{ms: map[string][]float64{}, grantAt: map[string]time.Time{},
		lastAccept: map[string]time.Time{}, lastEnd: map[int]time.Time{}}
}

func (r *httpRecorder) metrics(m metrics) {
	r.mu.Lock()
	defer r.mu.Unlock()
	setPercentiles(m, "http.lease_acquire_ms", r.ms["lease_acquire"], "ms", 0.5, 0.9)
	setPercentiles(m, "http.results_push_ms", r.ms["results_push"], "ms", 0.5, 0.9)
	setPercentiles(m, "http.heartbeat_ms", r.ms["heartbeat"], "ms", 0.5)
	setPercentiles(m, "http.status_ms", r.ms["status"], "ms", 0.5)
	m.set("http.requests", float64(r.requests), "count")
	var rt []float64
	for id, g := range r.grantAt {
		if a, ok := r.lastAccept[id]; ok {
			rt = append(rt, float64(a.Sub(g).Nanoseconds())/1e6)
		}
	}
	setPercentiles(m, "lease.round_trip_ms", rt, "ms", 0.5, 0.9)
	m.set("lease.grants", float64(r.grants), "count")
	if r.grants > 0 {
		m.set("lease.specs_per_lease", float64(r.leaseSpecs)/float64(r.grants), "specs")
	}
	if r.grants+r.empty > 0 {
		m.set("lease.empty_grants_ratio", float64(r.empty)/float64(r.grants+r.empty), "ratio")
	}
	m.set("fleet.duplicates", float64(r.duplicates), "count")
	m.set("fleet.reassigned", float64(r.reassigned), "count")
	if len(r.runMs) > 0 {
		setPercentiles(m, "harness.run_ms", r.runMs, "ms", 0.5, 0.9)
		m.set("harness.runs", float64(len(r.runMs)), "count")
	}
}

// timingTransport times every request a client sends and records it as an
// "http" span. Worker clients use lane 1+2i for the lease loop and 2+2i for
// heartbeats (they run on separate goroutines); the coordinator client uses
// lane 0. On a worker's lease lane the gap between one request and the next
// results push is that spec's simulation, recorded as an inferred
// "harness" span: the worker runs one spec at a time and pushes each result
// as soon as it lands.
type timingTransport struct {
	base   http.RoundTripper
	tr     *tracer
	parent int64
	lane   int
	rec    *httpRecorder
}

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	class, lane := "other", t.lane
	p := req.URL.Path
	switch {
	case req.Method == http.MethodPost && p == "/api/v1/leases":
		class = "lease_acquire"
	case strings.HasSuffix(p, "/heartbeat"):
		class = "heartbeat"
		if lane > 0 {
			lane++
		}
	case strings.HasSuffix(p, "/results"):
		class = "results_push"
	case req.Method == http.MethodGet && strings.HasPrefix(p, "/api/v1/campaigns/") && strings.Count(p, "/") == 4:
		class = "status"
	}
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		resp.Body = io.NopCloser(bytes.NewReader(body))
	}
	end := time.Now()
	t.tr.add(t.parent, req.Method+" "+class, "http", lane, start, end)

	r := t.rec
	r.mu.Lock()
	defer r.mu.Unlock()
	r.requests++
	r.ms[class] = append(r.ms[class], float64(end.Sub(start).Nanoseconds())/1e6)
	if err != nil || resp.StatusCode/100 != 2 {
		delete(r.lastEnd, lane)
		return resp, err
	}
	switch class {
	case "lease_acquire":
		var g server.LeaseGrant
		if json.Unmarshal(body, &g) == nil && g.ID != "" {
			r.grants++
			r.leaseSpecs += len(g.Specs)
			r.grantAt[g.ID] = end
			r.lastEnd[lane] = end
		} else {
			r.empty++
			delete(r.lastEnd, lane)
		}
	case "results_push":
		if prev, ok := r.lastEnd[lane]; ok {
			r.runMs = append(r.runMs, float64(start.Sub(prev).Nanoseconds())/1e6)
			t.tr.add(t.parent, "harness.run (inferred)", "harness", lane, prev, start)
		}
		r.lastEnd[lane] = end
		var rr server.ResultsResponse
		if json.Unmarshal(body, &rr) == nil && rr.Accepted > 0 {
			id := strings.TrimSuffix(strings.TrimPrefix(p, "/api/v1/leases/"), "/results")
			r.lastAccept[id] = end
		}
	}
	return resp, nil
}
