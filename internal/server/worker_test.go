package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/bertisim/berti/internal/harness"
)

// lateAck delivers every results-push response d after the coordinator
// has processed the push, unless the request is cancelled first. That is
// the window in which the push has landed and retired the lease but the
// worker has not yet heard so.
type lateAck struct {
	base http.RoundTripper
	d    time.Duration
}

func (l *lateAck) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := l.base.RoundTrip(req)
	if err != nil || !strings.HasSuffix(req.URL.Path, "/results") {
		return resp, err
	}
	select {
	case <-time.After(l.d):
		return resp, nil
	case <-req.Context().Done():
		resp.Body.Close()
		return nil, req.Context().Err()
	}
}

// TestWorkerLeaseLossKeepsLandedPush: the coordinator retires a lease the
// moment its last result lands, so a heartbeat sent while that push's
// response is still on its way reports the lease lost. The lost lease may
// stop the worker's runs but not the push: cancelling it would make the
// final sweep deliver the accepted result a second time.
func TestWorkerLeaseLossKeepsLandedPush(t *testing.T) {
	ctx := testCtx(t)
	specs := srvSpecs()[:2]
	h := harness.New(srvScale)
	s, err := New(Options{
		Harness: h, DataDir: t.TempDir(), Logf: t.Logf,
		LeaseOnly: true, LeaseTTL: time.Minute, HeartbeatInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Drain)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cl := NewClient(ts.URL)
	ack, err := cl.Submit(ctx, "late-ack", specs)
	if err != nil {
		t.Fatal(err)
	}

	wcl := NewClient(ts.URL)
	// Ten heartbeats fit in the window each push response spends in flight.
	wcl.SetTransport(&lateAck{base: http.DefaultTransport, d: 100 * time.Millisecond})
	w := &Worker{
		ID: "late", Client: wcl, Harness: harness.New(srvScale),
		MaxSpecs: 1, PollInterval: 10 * time.Millisecond, Logf: t.Logf,
	}
	wctx, wcancel := context.WithCancel(ctx)
	done := make(chan error, 1)
	go func() { done <- w.Run(wctx) }()

	st, err := cl.WaitCampaign(ctx, ack.ID)
	wcancel()
	if werr := <-done; werr != nil {
		t.Fatalf("worker: %v", werr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.Completed != len(specs) {
		t.Fatalf("campaign finished as %+v", st)
	}

	if fl := metricsSnapshot(t, ts.URL).Fleet; fl.DuplicateResults != 0 || fl.RemoteResults != uint64(len(specs)) {
		t.Fatalf("fleet metrics: %+v, want %d results landed once each", fl, len(specs))
	}
}
