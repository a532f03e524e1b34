// Command bertid is the campaign daemon: simulation sweeps as a
// long-running service.
//
// Usage:
//
//	bertid -addr 127.0.0.1:9090 -data ./bertid-data
//	BERTI_SCALE=quick bertid -data /var/lib/bertid
//
// Clients submit experiment spec sets over HTTP/JSON
// (POST /api/v1/campaigns) or single runs (POST /api/v1/runs — the
// endpoint cmd/experiments -server uses); the daemon validates them with
// the harness's typed config errors, dedupes every spec against the
// content-addressed result store, and queues fresh work in the lease
// pool, which -workers local loops drain in FIFO order. Every completion
// is journaled per campaign (append-only, CRC-protected) the moment it
// finishes, so a killed daemon — SIGKILL included — resumes every
// in-flight campaign on restart and finishes with a report byte-identical
// to an uninterrupted run. Live metrics (/metrics, /debug/vars) share the
// API listener.
//
// The same pool hands specs out in leased batches over POST
// /api/v1/leases to bertiworker processes, which heartbeat and push
// results back; a lease whose worker dies or partitions expires after
// -lease-ttl and its specs are reassigned, with duplicate late results
// deduped. -lease-only starts zero local loops, making the daemon a pure
// coordinator. Either way the final report is byte-identical to a solo
// local run.
//
// The first SIGINT/SIGTERM drains gracefully: new submissions get 503,
// in-flight simulations stop cooperatively at the engine's next poll
// stride, journals are already flushed per append, and the process exits
// 0. A second signal exits immediately.
//
// Exit codes: 0 clean shutdown; 1 runtime failure; 2 usage error; 130
// forced exit by a second signal.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/bertisim/berti/internal/harness"
	"github.com/bertisim/berti/internal/server"
	"github.com/bertisim/berti/internal/sim"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9090", "HTTP listen address for the API and metrics")
	dataDir := flag.String("data", "bertid-data", "state root: per-campaign journals + manifests and the content-addressed result store")
	workers := flag.Int("workers", 0, "local loops, one simulation each (0 = NumCPU)")
	flag.IntVar(workers, "j", 0, "alias for -workers")
	corpusDir := flag.String("corpus-dir", "", "cache generated traces here (v2 containers) and stream them from disk")
	checkFlag := flag.Bool("check", false, "run the invariant checker on every simulation")
	schedFlag := flag.String("sched", "horizon", "engine scheduler: horizon (event-horizon skipping) or ticked (exhaustive per-cycle reference)")
	runTimeout := flag.Duration("run-timeout", 0, "per-run wall-clock budget (0 = 10m default, negative disables)")
	provFlag := flag.Bool("provenance", false, "track per-prefetch lifecycle provenance on every run")
	provCap := flag.Int("provenance-cap", 0, "per-run provenance record-pool capacity (0 = default 65536)")
	leaseOnly := flag.Bool("lease-only", false, "coordinator mode: start no local loops, so only bertiworker processes run specs (via the lease endpoints)")
	leaseTTL := flag.Duration("lease-ttl", server.DefaultLeaseTTL, "lease lifetime without a heartbeat before specs are reassigned")
	leaseHB := flag.Duration("lease-heartbeat", 0, "heartbeat cadence suggested to workers and the expiry scan period (0 = lease-ttl/4)")
	readHeaderTimeout := flag.Duration("read-header-timeout", 10*time.Second, "HTTP header read deadline (slowloris guard; 0 disables)")
	readTimeout := flag.Duration("read-timeout", time.Minute, "HTTP full-request read deadline (0 disables)")
	idleTimeout := flag.Duration("idle-timeout", 2*time.Minute, "keep-alive connection idle deadline (0 disables)")
	flag.Parse()
	log.SetFlags(log.LstdFlags)
	log.SetPrefix("bertid: ")

	h := harness.New(harness.ScaleFromEnv())
	if *workers > 0 {
		h.Workers = *workers
	}
	h.CorpusDir = *corpusDir
	h.EnableChecks = *checkFlag
	h.RunTimeout = *runTimeout
	h.EnableProvenance = *provFlag
	h.ProvenanceCap = *provCap
	sched, err := sim.ParseScheduler(*schedFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bertid:", err)
		os.Exit(2)
	}
	h.Scheduler = sched

	// Bind before recovering: if another daemon already owns the address
	// (and very likely the data dir), fail fast instead of scanning
	// journals and re-enqueueing work a live process is mid-way through.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bertid:", err)
		os.Exit(1)
	}
	s, err := server.New(server.Options{
		Harness:           h,
		DataDir:           *dataDir,
		LeaseOnly:         *leaseOnly,
		LeaseTTL:          *leaseTTL,
		HeartbeatInterval: *leaseHB,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bertid:", err)
		os.Exit(1)
	}
	// The roll-up chains onto the server's OnResult hook (installed by
	// server.New), so attribution accumulates without stealing journaling.
	if h.EnableProvenance {
		rollup := harness.NewProvenanceRollup()
		rollup.Attach(h)
		s.Live().SetAttribution(func() any { return rollup.Report() })
	}
	// WriteTimeout stays 0 on purpose: the SSE progress streams are
	// long-lived responses. The read and idle deadlines are what close a
	// slowloris connection.
	httpServer := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: *readHeaderTimeout,
		ReadTimeout:       *readTimeout,
		IdleTimeout:       *idleTimeout,
	}
	mode := "local execution"
	if *leaseOnly {
		mode = "lease-only coordinator"
	}
	log.Printf("listening on http://%s (scale=%s, data=%s, %s)", ln.Addr(), h.Scale.Name, *dataDir, mode)

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpServer.Serve(ln) }()

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Printf("%v: draining — rejecting new work, letting in-flight runs stop (send again to exit immediately)", sig)
		go func() {
			<-sigc
			log.Print("second signal: exiting immediately")
			os.Exit(130)
		}()
		s.Drain()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpServer.Shutdown(ctx); err != nil {
			log.Printf("http shutdown: %v", err)
		}
		log.Print("drained; journals are consistent, campaigns resume on restart")
	case err := <-serveErr:
		if !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "bertid:", err)
			os.Exit(1)
		}
	}
}
