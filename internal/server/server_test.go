package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/bertisim/berti/internal/campaign"
	"github.com/bertisim/berti/internal/harness"
	"github.com/bertisim/berti/internal/obs/live"
	"github.com/bertisim/berti/internal/sim"
)

// srvScale keeps server tests fast (the harness tiers are exercised
// elsewhere; here the simulations are just real-enough payloads).
var srvScale = harness.Scale{Name: "srv-test", MemRecords: 30_000, WarmupInstr: 20_000, SimInstr: 50_000, Mixes: 2}

func srvSpecs() []harness.RunSpec {
	return []harness.RunSpec{
		{Workload: "mcf_like_1554", L1DPf: "ip-stride"},
		{Workload: "mcf_like_1554", L1DPf: "next-line"},
		{Workload: "roms_like", L1DPf: "ip-stride"},
	}
}

// newTestServer builds a server over a fresh harness and data dir and
// registers cleanup. Tests that restart the daemon call New directly.
func newTestServer(t *testing.T, dataDir string) (*Server, *harness.Harness) {
	t.Helper()
	h := harness.New(srvScale)
	s, err := New(Options{Harness: h, DataDir: dataDir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Drain)
	return s, h
}

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	t.Cleanup(cancel)
	return ctx
}

// localReport runs specs as a campaign on a fresh local daemon and returns
// its ID and report bytes: the reference every other execution path must
// reproduce byte for byte.
func localReport(ctx context.Context, t *testing.T, name string, specs []harness.RunSpec) (string, []byte) {
	t.Helper()
	s, _ := newTestServer(t, t.TempDir())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cl := NewClient(ts.URL)
	ack, err := cl.Submit(ctx, name, specs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.WaitCampaign(ctx, ack.ID); err != nil {
		t.Fatal(err)
	}
	rep, err := cl.Report(ctx, ack.ID)
	if err != nil {
		t.Fatal(err)
	}
	return ack.ID, rep
}

// metricsSnapshot fetches a daemon's /metrics document.
func metricsSnapshot(t *testing.T, base string) live.Snapshot {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap live.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestCampaignLifecycle drives the full happy path over real HTTP: submit,
// watch status converge, and fetch a deterministic report — two fetches of
// the same finished campaign must be byte-identical, and a duplicate
// submission must attach to the existing campaign instead of re-running.
func TestCampaignLifecycle(t *testing.T) {
	s, _ := newTestServer(t, t.TempDir())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cl := NewClient(ts.URL)
	ctx := testCtx(t)

	ack, err := cl.Submit(ctx, "lifecycle", srvSpecs())
	if err != nil {
		t.Fatal(err)
	}
	if ack.Existing || ack.Total != 3 {
		t.Fatalf("first submit: existing=%v total=%d, want fresh total 3", ack.Existing, ack.Total)
	}
	st, err := cl.WaitCampaign(ctx, ack.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.Completed != 3 || st.Failed != 0 {
		t.Fatalf("campaign finished as %+v, want done 3/3", st)
	}

	rep1, err := cl.Report(ctx, ack.ID)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := cl.Report(ctx, ack.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rep1, rep2) {
		t.Fatal("two report fetches of the same campaign differ")
	}
	var rep Report
	if err := json.Unmarshal(rep1, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) != 3 || rep.ID != ack.ID {
		t.Fatalf("report holds %d runs for %q, want 3 for %q", len(rep.Runs), rep.ID, ack.ID)
	}
	for i := 1; i < len(rep.Runs); i++ {
		if rep.Runs[i-1].Key >= rep.Runs[i].Key {
			t.Fatalf("report runs not sorted by key: %q then %q", rep.Runs[i-1].Key, rep.Runs[i].Key)
		}
	}

	// Resubmitting the identical sweep (shuffled, with a duplicate) joins
	// the finished campaign.
	specs := srvSpecs()
	specs = append([]harness.RunSpec{specs[2], specs[0], specs[1]}, specs[0])
	again, err := cl.Submit(ctx, "lifecycle-again", specs)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Existing || again.ID != ack.ID {
		t.Fatalf("identical resubmit: existing=%v id=%q, want existing id %q", again.Existing, again.ID, ack.ID)
	}

	// The fleet counters count HTTP pushes and lease expiries only; an
	// all-local campaign has neither.
	if fl := metricsSnapshot(t, ts.URL).Fleet; fl.RemoteResults != 0 || fl.DuplicateResults != 0 || fl.SpecsReassigned != 0 {
		t.Fatalf("all-local campaign moved the fleet counters: %+v", fl)
	}
}

// TestConcurrentDuplicateSubmission is the dedup contract: two clients
// POSTing the same spec set simultaneously share one campaign, and every
// unique spec executes exactly once — OnResult (counted per key under
// -race) must never fire twice for one key.
func TestConcurrentDuplicateSubmission(t *testing.T) {
	s, h := newTestServer(t, t.TempDir())
	var mu sync.Mutex
	perKey := map[string]int{}
	prev := h.OnResult
	h.OnResult = func(key string, spec harness.RunSpec, r *sim.Result) {
		mu.Lock()
		perKey[key]++
		mu.Unlock()
		prev(key, spec, r)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ctx := testCtx(t)

	const clients = 4
	acks := make([]*SubmitResponse, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			acks[i], errs[i] = NewClient(ts.URL).Submit(ctx, "dup", srvSpecs())
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	for i := 1; i < clients; i++ {
		if acks[i].ID != acks[0].ID {
			t.Fatalf("clients landed on different campaigns: %q vs %q", acks[i].ID, acks[0].ID)
		}
	}
	if _, err := NewClient(ts.URL).WaitCampaign(ctx, acks[0].ID); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(perKey) != 3 {
		t.Fatalf("OnResult saw %d distinct keys, want 3: %v", len(perKey), perKey)
	}
	for k, n := range perKey {
		if n != 1 {
			t.Fatalf("spec %q executed %d times, want exactly once", k, n)
		}
	}
}

// TestRestartResumesCampaign is the crash-resume contract in-process: a
// campaign interrupted by a drain (standing in for SIGKILL — the journals
// are write-through, so the drain adds nothing they need) must report its
// unfinished specs as cancelled, resume on a fresh daemon over the same
// data dir, and finish with a report byte-identical to an uninterrupted
// run of the same sweep.
func TestRestartResumesCampaign(t *testing.T) {
	dataDir := t.TempDir()
	ctx := testCtx(t)

	// Reference: the same sweep run uninterrupted on a separate data dir.
	refID, want := localReport(ctx, t, "resume", srvSpecs())

	// Life 1: one local loop so the campaign cannot finish instantly;
	// submit, wait for the first journaled completion, then tear down with
	// work still pending.
	h1 := harness.New(srvScale)
	h1.Workers = 1
	s1, err := New(Options{Harness: h1, DataDir: dataDir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	var first atomic.Int32
	prev := h1.OnResult
	h1.OnResult = func(key string, spec harness.RunSpec, r *sim.Result) {
		prev(key, spec, r)
		first.Add(1)
	}
	ts1 := httptest.NewServer(s1.Handler())
	cl1 := NewClient(ts1.URL)
	ack, err := cl1.Submit(ctx, "resume", srvSpecs())
	if err != nil {
		t.Fatal(err)
	}
	if ack.ID != refID {
		t.Fatalf("same sweep produced different campaign IDs: %q vs %q", ack.ID, refID)
	}
	if st, err := cl1.Status(ctx, ack.ID); err != nil || st.Cancelled != 0 {
		t.Fatalf("running campaign before any drain: %+v (%v), want 0 cancelled", st, err)
	}
	for first.Load() == 0 {
		if ctx.Err() != nil {
			t.Fatal("timed out waiting for the first completion")
		}
		time.Sleep(10 * time.Millisecond)
	}
	s1.Drain()
	ts1.Close()
	drained, err := cl1WaitlessStatus(s1, ack.ID)
	if err != nil {
		t.Fatal(err)
	}
	if drained.Completed == drained.Total {
		t.Skip("campaign finished before the drain landed; nothing to resume")
	}
	if left := drained.Total - drained.Completed - drained.Failed; drained.State != StateRunning || drained.Cancelled != left {
		t.Fatalf("drained campaign reports %+v, want running with all %d unfinished specs cancelled", drained, left)
	}

	// Life 2: a fresh daemon over the same data dir must recover the
	// campaign from manifest+journal+store and finish it.
	h2 := harness.New(srvScale)
	s2, err := New(Options{Harness: h2, DataDir: dataDir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s2.Drain)
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	cl2 := NewClient(ts2.URL)
	st, err := cl2.WaitCampaign(ctx, ack.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.Completed != 3 || st.Cancelled != 0 {
		t.Fatalf("resumed campaign finished as %+v, want done 3/3, none cancelled", st)
	}
	got, err := cl2.Report(ctx, ack.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed report differs from uninterrupted report:\nresumed:\n%s\nuninterrupted:\n%s", got, want)
	}
}

// cl1WaitlessStatus peeks at a campaign's status without HTTP (the test
// server may already be closed).
func cl1WaitlessStatus(s *Server, id string) (*CampaignStatus, error) {
	c, ok := s.campaignByID(id)
	if !ok {
		return nil, errors.New("unknown campaign")
	}
	return c.status(s.isDraining()), nil
}

// checkFailedCampaign waits for campaign id and requires it to end failed
// with exactly the failed keys in its report, each listed once, and the
// run endpoint to answer "failed" for every one of them.
func checkFailedCampaign(ctx context.Context, t *testing.T, cl *Client, id string, completed int, failed ...string) {
	t.Helper()
	st, err := cl.WaitCampaign(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateFailed || st.Completed != completed || st.Failed != len(failed) || st.Cancelled != 0 {
		t.Fatalf("campaign ended %+v, want failed with %d completed and %d failed", st, completed, len(failed))
	}
	body, err := cl.Report(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Failed) != len(failed) || len(rep.Runs) != completed {
		t.Fatalf("report lists %d runs and failures %+v, want %d runs and %d failures", len(rep.Runs), rep.Failed, completed, len(failed))
	}
	want := map[string]bool{}
	for _, k := range failed {
		want[k] = true
	}
	for _, f := range rep.Failed {
		if !want[f.Key] || f.Error == "" {
			t.Fatalf("report failure %+v: unexpected, repeated, or without error text", f)
		}
		delete(want, f.Key)
	}
	for _, k := range failed {
		spec := specByKey(t, k)
		rs, err := cl.postRun(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if rs.State != "failed" || rs.Error == "" {
			t.Fatalf("POST /api/v1/runs for failed %q answered %+v, want state failed", k, rs)
		}
	}
}

// specByKey finds the srvSpecs entry with memo key k.
func specByKey(t *testing.T, k string) harness.RunSpec {
	t.Helper()
	for _, spec := range srvSpecs() {
		if spec.Key() == k {
			return spec
		}
	}
	t.Fatalf("no test spec has key %q", k)
	return harness.RunSpec{}
}

// TestCampaignFailureBothModes: a spec that fails — run by a local loop,
// or pushed as a failure by a remote worker — lands through the same
// acceptFailure path. The campaign ends failed, the report lists the key
// once, the run endpoint answers failed, and a later campaign holding the
// same key counts it failed, not complete.
func TestCampaignFailureBothModes(t *testing.T) {
	specs := srvSpecs()
	t.Run("local", func(t *testing.T) {
		ctx := testCtx(t)
		h := harness.New(srvScale)
		h.RunTimeout = time.Nanosecond // every run overruns: *sim.DeadlineError after the retry policy
		h.Retry = harness.RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond}
		s, err := New(Options{Harness: h, DataDir: t.TempDir(), Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Drain)
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		cl := NewClient(ts.URL)

		ack, err := cl.Submit(ctx, "fails", specs[:1])
		if err != nil {
			t.Fatal(err)
		}
		checkFailedCampaign(ctx, t, cl, ack.ID, 0, specs[0].Key())
		var de *sim.DeadlineError
		if fs := h.Failures(); len(fs) != 1 || !errors.As(fs[0], &de) {
			t.Fatalf("harness failures %v, want one deadline overrun", fs)
		}
		// A superset campaign: the known failure counts failed at once,
		// the new spec fails by running.
		ack2, err := cl.Submit(ctx, "fails-again", specs[:2])
		if err != nil {
			t.Fatal(err)
		}
		checkFailedCampaign(ctx, t, cl, ack2.ID, 0, specs[0].Key(), specs[1].Key())
		if snap := metricsSnapshot(t, ts.URL); snap.RunsFailed != 2 || snap.Fleet.DuplicateResults != 0 {
			t.Fatalf("metrics: %d runs failed, fleet %+v; want 2 failures and no duplicates", snap.RunsFailed, snap.Fleet)
		}
	})
	t.Run("lease-only", func(t *testing.T) {
		ctx := testCtx(t)
		_, ts := newLeaseTestServer(t, t.TempDir(), time.Minute)
		cl := NewClient(ts.URL)
		ack, err := cl.Submit(ctx, "fails", specs[:2])
		if err != nil {
			t.Fatal(err)
		}
		grant, err := cl.AcquireLease(ctx, "hand-worker", 64)
		if err != nil || len(grant.Specs) != 2 {
			t.Fatalf("grant %+v (%v), want both specs", grant, err)
		}
		r, err := harness.New(srvScale).RunContext(ctx, specs[1])
		if err != nil {
			t.Fatal(err)
		}
		entries := []campaign.Entry{{Key: specs[1].Key(), Result: r}}
		failures := []RunFailure{{Key: specs[0].Key(), Error: "worker: injected failure"}}
		rr, err := cl.PushResults(ctx, grant.ID, "hand-worker", entries, failures)
		if err != nil {
			t.Fatal(err)
		}
		if rr.Accepted != 1 || rr.Failed != 1 {
			t.Fatalf("push: %+v, want 1 accepted and 1 failed", rr)
		}
		// A replayed failure is a duplicate, never a second report entry.
		rr, err = cl.PushResults(ctx, grant.ID, "hand-worker", nil, failures)
		if err != nil {
			t.Fatal(err)
		}
		if rr.Failed != 0 || rr.Duplicates != 1 {
			t.Fatalf("replayed failure push: %+v, want 1 duplicate", rr)
		}
		checkFailedCampaign(ctx, t, cl, ack.ID, 1, specs[0].Key())
		ack2, err := cl.Submit(ctx, "fails-again", specs[:1])
		if err != nil {
			t.Fatal(err)
		}
		checkFailedCampaign(ctx, t, cl, ack2.ID, 0, specs[0].Key())
	})
}

// TestProgressStream: the SSE stream of a local campaign carries status
// documents with non-decreasing progress, ends with a done event whose
// Completed equals Total, and then closes.
func TestProgressStream(t *testing.T) {
	ctx := testCtx(t)
	h := harness.New(srvScale)
	h.Workers = 1 // progress arrives one spec at a time
	s, err := New(Options{Harness: h, DataDir: t.TempDir(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Drain)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ack, err := NewClient(ts.URL).Submit(ctx, "stream", srvSpecs())
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/api/v1/campaigns/"+ack.ID+"/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream Content-Type %q", ct)
	}
	var events []CampaignStatus
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() { // ends when the server closes the stream
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var st CampaignStatus
		if err := json.Unmarshal([]byte(data), &st); err != nil {
			t.Fatalf("event %q: %v", data, err)
		}
		if n := len(events); n > 0 && st.Completed < events[n-1].Completed {
			t.Fatalf("progress went backwards: %+v after %+v", st, events[n-1])
		}
		events = append(events, st)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream did not close cleanly: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("stream carried no events")
	}
	last := events[len(events)-1]
	if last.State != StateDone || last.Completed != last.Total || last.Total != len(srvSpecs()) {
		t.Fatalf("last event %+v, want done with every spec complete", last)
	}
}

// TestRemoteHarnessThinClient wires a second, client-side harness to the
// daemon through Harness.Remote: runs execute on the daemon, memoize on
// the client, and concurrent duplicate client calls still collapse.
func TestRemoteHarnessThinClient(t *testing.T) {
	s, _ := newTestServer(t, t.TempDir())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cl := NewClient(ts.URL)
	cl.PollInterval = 20 * time.Millisecond

	local := harness.New(srvScale)
	local.Remote = cl.Run
	var fired atomic.Int32
	local.OnResult = func(string, harness.RunSpec, *sim.Result) { fired.Add(1) }

	spec := harness.RunSpec{Workload: "mcf_like_1554", L1DPf: "berti"}
	out, err := local.RunMany([]harness.RunSpec{spec, spec, spec})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 || out[0] == nil || out[0] != out[1] || out[1] != out[2] {
		t.Fatalf("thin-client duplicates did not share one result: %v", out)
	}
	if n := fired.Load(); n != 1 {
		t.Fatalf("client-side OnResult fired %d times, want 1", n)
	}
	if out[0].IPC() <= 0 {
		t.Fatalf("remote result has non-positive IPC: %v", out[0].IPC())
	}
	// The daemon now owns the result; a fresh client harness gets it from
	// the store without a re-run (state "done" on first poll).
	st, err := cl.postRun(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "done" {
		t.Fatalf("daemon state for completed spec = %q, want done", st.State)
	}
}

// TestSubmitValidation: invalid specs are rejected with the typed field
// breakdown, rehydrated client-side as *harness.SpecError.
func TestSubmitValidation(t *testing.T) {
	s, _ := newTestServer(t, t.TempDir())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cl := NewClient(ts.URL)
	ctx := testCtx(t)

	_, err := cl.Submit(ctx, "bad", []harness.RunSpec{{Workload: "no_such_workload", L1DPf: "berti"}})
	var se *harness.SpecError
	if !errors.As(err, &se) {
		t.Fatalf("invalid workload: got %v, want *harness.SpecError", err)
	}
	if se.Field != "Workload" || se.Name != "no_such_workload" {
		t.Fatalf("SpecError = %+v, want Field=Workload Name=no_such_workload", se)
	}

	_, err = cl.Submit(ctx, "bad", []harness.RunSpec{{Workload: "mcf_like_1554", L1DPf: "definitely-not-a-prefetcher"}})
	if !errors.As(err, &se) || se.Field != "L1DPf" {
		t.Fatalf("invalid prefetcher: got %v, want SpecError on L1DPf", err)
	}

	if _, err := cl.Submit(ctx, "empty", nil); err == nil || !strings.Contains(err.Error(), "at least one spec") {
		t.Fatalf("empty submit: got %v, want at-least-one-spec error", err)
	}

	if _, err := cl.Status(ctx, "0000000000000000"); err == nil || !strings.Contains(err.Error(), "unknown campaign") {
		t.Fatalf("unknown campaign: got %v", err)
	}
}

// TestDrainRejectsNewWork: a draining daemon answers health with
// "draining" and turns away new campaigns with 503.
func TestDrainRejectsNewWork(t *testing.T) {
	s, _ := newTestServer(t, t.TempDir())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	s.Drain()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		State string `json:"state"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.State != "draining" {
		t.Fatalf("health state = %q, want draining", health.State)
	}

	_, err = NewClient(ts.URL).Submit(context.Background(), "late", srvSpecs())
	if err == nil || !strings.Contains(err.Error(), "draining") {
		t.Fatalf("submit while draining: got %v, want draining rejection", err)
	}
}

// TestStoreRoundTrip: the content-addressed store is idempotent, collision
// -checked, and treats damage as a miss.
func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	h := harness.New(srvScale)
	spec := harness.RunSpec{Workload: "mcf_like_1554", L1DPf: "next-line"}
	r, err := h.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	key := spec.Key()
	if err := st.Put(key, r); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(key, r); err != nil {
		t.Fatalf("second Put must be a no-op, got %v", err)
	}
	got, ok := st.Get(key)
	if !ok {
		t.Fatal("Get missed a stored key")
	}
	a, _ := json.Marshal(r)
	b, _ := json.Marshal(got)
	if !bytes.Equal(a, b) {
		t.Fatal("stored result does not round-trip")
	}
	if _, ok := st.Get("w=never|mix=[]|l1=|l2=|dram=|seed=0"); ok {
		t.Fatal("Get invented a result for an unknown key")
	}
	if st.Len() != 1 {
		t.Fatalf("store holds %d entries, want 1", st.Len())
	}
	// Damage the entry on disk: Get must report a miss, not garbage.
	if err := writeGarbage(st.path(key)); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(key); ok {
		t.Fatal("Get returned a damaged entry")
	}
}

func writeGarbage(path string) error {
	return os.WriteFile(path, []byte("{ damaged"), 0o644)
}
