// Command bertisim runs one workload through the simulator with a chosen
// prefetcher configuration and prints the full statistics report.
//
// Usage:
//
//	bertisim -workload mcf_like_1554 -l1d berti
//	bertisim -workload bfs-kron -l1d ipcp -l2 spp-ppf -records 500000
//	bertisim -workload mcf_like_1554 -l1d berti -warmup 500000 -simulate 2000000
//	bertisim -trace big.btr2 -skip 10000000 -l1d berti
//	bertisim -workload mcf_like_1554 -l1d berti -interval 100000 \
//	    -timeseries-out ts.csv -trace-out trace.json
//	bertisim -list
//
// Windows: -warmup and -simulate override the scale's ChampSim-style
// warmup/measurement instruction windows. -skip N fast-forwards a -trace
// run N instructions before the windows begin; v2 containers (tracegen's
// default output) seek through the chunk index without decompressing the
// skipped region, v1 flat streams are scanned linearly.
//
// Observability: -interval N samples all counters every N retired
// instructions into a per-interval time series (written to
// -timeseries-out as CSV or JSON by extension, and embedded in the -json
// report); -trace-out records structured events (demand misses, prefetch
// issue/fill/use/evict, MSHR stalls, TLB walks) into a bounded ring buffer
// and writes Chrome trace_event JSON loadable in chrome://tracing or
// Perfetto; -pprof serves net/http/pprof for profiling the simulator
// itself, and -cpuprofile FILE writes a CPU profile of the whole process
// (for go tool pprof), finished on every exit path including an interrupt.
// Simulation throughput (kinstr/s) is reported on stderr.
//
// Robustness: -check runs the invariant checker (MSHR leaks, queue bounds,
// duplicate tags, ROB/TLB consistency) alongside the simulation;
// -fault-plan kind[:key=value,...] injects deterministic faults (see
// internal/fault) to exercise the checker and the error paths.
//
// Exit codes: 0 success; 1 runtime failure (I/O, stall, corrupt trace);
// 2 usage error (unknown workload/prefetcher, bad flags, bad fault plan);
// 3 invariant violations detected; 130 interrupted by SIGINT/SIGTERM (the
// first signal cancels the run cooperatively, a second exits immediately).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"runtime/pprof"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/bertisim/berti/internal/cache"
	"github.com/bertisim/berti/internal/check"
	"github.com/bertisim/berti/internal/energy"
	"github.com/bertisim/berti/internal/fault"
	"github.com/bertisim/berti/internal/harness"
	"github.com/bertisim/berti/internal/obs"
	"github.com/bertisim/berti/internal/obs/live"
	"github.com/bertisim/berti/internal/obs/provenance"
	"github.com/bertisim/berti/internal/prefetch"
	"github.com/bertisim/berti/internal/sim"
	"github.com/bertisim/berti/internal/trace"
	"github.com/bertisim/berti/internal/tracestore"
	"github.com/bertisim/berti/internal/workloads"
)

// Exit codes (see package comment).
const (
	exitOK          = 0
	exitRunFailed   = 1
	exitUsage       = 2
	exitViolations  = 3
	exitInterrupted = 130
)

func main() {
	workload := flag.String("workload", "mcf_like_1554", "workload name")
	traceFile := flag.String("trace", "", "run a trace file (from tracegen) instead of a generated workload")
	l1d := flag.String("l1d", "berti", "L1D prefetcher (empty = none)")
	l2 := flag.String("l2", "", "L2 prefetcher (empty = none)")
	dramCfg := flag.String("dram", "", "DRAM config: ddr5-6400 (default), ddr4-3200, ddr3-1600")
	records := flag.Int("records", 0, "memory records to generate (0 = scale default)")
	warmup := flag.Int64("warmup", -1, "warmup instructions before measurement (-1 = scale default)")
	simulate := flag.Int64("simulate", -1, "measured instructions after warmup (-1 = scale default)")
	skip := flag.Uint64("skip", 0, "instructions to fast-forward a -trace run before the windows start")
	list := flag.Bool("list", false, "list workloads and prefetchers, then exit")
	jsonOut := flag.Bool("json", false, "emit the report as JSON (machine-readable)")
	interval := flag.Uint64("interval", 0, "sample counters every N retired instructions (0 = sampling off)")
	tsOut := flag.String("timeseries-out", "", "write the sampled time series to this file (.json = JSON, else CSV)")
	traceOut := flag.String("trace-out", "", "write a Chrome trace_event JSON of structured events to this file")
	traceBuf := flag.Int("trace-buf", 1<<16, "event-trace ring-buffer capacity (oldest events overwritten)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole process to this file (go tool pprof)")
	provOut := flag.String("provenance-out", "", "write the per-prefetch provenance attribution report to this file (.json = JSON, else CSV); implies -provenance")
	provFlag := flag.Bool("provenance", false, "track per-prefetch lifecycle provenance (attribution embedded in the -json report)")
	provCap := flag.Int("provenance-cap", 0, "provenance record-pool capacity (0 = default 65536); overflowing prefetches go untracked and are counted")
	metricsAddr := flag.String("metrics-addr", "", "serve live metrics (JSON snapshot + expvar) on this address, e.g. localhost:8090")
	checkFlag := flag.Bool("check", false, "run the invariant checker alongside the simulation")
	faultSpec := flag.String("fault-plan", "", "inject deterministic faults: kind[:key=value,...] (kinds: corrupt-record, truncate, drop-fill, delay-fill, dup-line, pq-orphan)")
	schedFlag := flag.String("sched", "horizon", "engine scheduler: horizon (event-horizon skipping) or ticked (exhaustive per-cycle reference)")
	flag.Parse()
	startCPUProfile(*cpuProfile)
	defer stopCPUProfile()
	sched, err := sim.ParseScheduler(*schedFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bertisim:", err)
		exit(exitUsage)
	}

	var faultPlan *fault.Plan
	if *faultSpec != "" {
		var err error
		faultPlan, err = fault.Parse(*faultSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bertisim:", err)
			exit(exitUsage)
		}
	}
	// A fault plan without -check would inject damage nothing looks for;
	// checking is what makes the injection observable.
	runChecked := *checkFlag || faultPlan != nil

	if *list {
		fmt.Println("workloads:")
		for _, w := range workloads.All() {
			memInt := ""
			if w.MemIntensive {
				memInt = " [MemInt]"
			}
			fmt.Printf("  %-24s %s%s\n", w.Name, w.Suite, memInt)
		}
		fmt.Println("prefetchers:")
		for _, e := range prefetch.All() {
			level := "L1D"
			if e.Level == prefetch.AtL2 {
				level = "L2 "
			}
			fmt.Printf("  %-12s %s  %s\n", e.Name, level, e.Comment)
		}
		return
	}

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "pprof server:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "pprof: http://%s/debug/pprof/\n", *pprofAddr)
	}

	// A live metrics endpoint needs sampler rows to serve; sampling and
	// writing a time series each imply a sane default interval.
	if (*tsOut != "" || *metricsAddr != "") && *interval == 0 {
		*interval = 100_000
	}
	if *traceOut != "" && *traceBuf <= 0 {
		fmt.Fprintln(os.Stderr, "bertisim: -trace-buf must be > 0")
		exit(2)
	}
	// Fail on unwritable output paths now, not after a long simulation.
	ensureWritable(*tsOut)
	ensureWritable(*traceOut)
	ensureWritable(*provOut)
	var observer *obs.Observer
	if *interval > 0 || *traceOut != "" {
		observer = &obs.Observer{}
		if *interval > 0 {
			observer.Sampler = obs.NewSampler(*interval)
		}
		if *traceOut != "" {
			observer.Tracer = obs.NewTracer(*traceBuf)
		}
	}

	var tracker *provenance.Tracker
	if *provFlag || *provOut != "" {
		tracker = provenance.NewTracker(*provCap)
	}
	var metrics *live.Server
	if *metricsAddr != "" {
		var err error
		metrics, err = live.New(*metricsAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bertisim:", err)
			exit(exitUsage)
		}
		defer metrics.Close()
		fmt.Fprintf(os.Stderr, "metrics: http://%s/metrics\n", metrics.Addr())
		if observer != nil && observer.Sampler != nil {
			observer.Sampler.OnRow = metrics.RecordRow
		}
	}

	scale := harness.ScaleFromEnv()
	if *records > 0 {
		scale.MemRecords = *records
	}
	if *warmup >= 0 {
		scale.WarmupInstr = uint64(*warmup)
	}
	if *simulate == 0 {
		fmt.Fprintln(os.Stderr, "bertisim: -simulate must be > 0")
		exit(exitUsage)
	}
	if *simulate > 0 {
		scale.SimInstr = uint64(*simulate)
	}
	if *skip > 0 && *traceFile == "" {
		fmt.Fprintln(os.Stderr, "bertisim: -skip only applies with -trace (generated workloads start at instruction 0)")
		exit(exitUsage)
	}
	// Graceful shutdown: the first SIGINT/SIGTERM cancels the run at the
	// engine's next poll stride; a second signal exits immediately.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigc
		fmt.Fprintf(os.Stderr, "\nbertisim: %v: cancelling run (send again to exit immediately)\n", s)
		cancel()
		<-sigc
		fmt.Fprintln(os.Stderr, "bertisim: second signal: exiting immediately")
		exit(exitInterrupted)
	}()

	h := harness.New(scale)
	h.Scheduler = sched
	h.SetContext(ctx)

	var checker *check.Checker
	if runChecked {
		checker = check.New()
	}

	var res, base *sim.Result
	var runErr, baseErr error
	var elapsed time.Duration
	if *traceFile != "" {
		// runMachine wires one reader through the engine with this run's
		// observability hooks; both the v1 and v2 paths share it.
		runMachine := func(rd trace.Reader, l1, l2 string, o *obs.Observer, ck *check.Checker, fp *fault.Plan, pv *provenance.Tracker) (*sim.Result, error) {
			cfg := sim.DefaultConfig()
			cfg.WarmupInstructions = scale.WarmupInstr
			cfg.SimInstructions = scale.SimInstr
			var l1f, l2f sim.PrefetcherFactory
			if l1 != "" {
				e, ok := prefetch.ByName(l1)
				if !ok {
					fmt.Fprintf(os.Stderr, "unknown prefetcher %q\n", l1)
					exit(exitUsage)
				}
				l1f = func() cache.Prefetcher { return e.New() }
			}
			if l2 != "" {
				e, ok := prefetch.ByName(l2)
				if !ok {
					fmt.Fprintf(os.Stderr, "unknown prefetcher %q\n", l2)
					exit(exitUsage)
				}
				l2f = func() cache.Prefetcher { return e.New() }
			}
			m, err := sim.New(cfg, []trace.Reader{rd}, l1f, l2f)
			if err != nil {
				return nil, err
			}
			m.SetScheduler(sched)
			m.SetContext(ctx)
			m.SetObserver(o)
			if ck != nil {
				m.SetChecker(ck, 0, 0)
			}
			if pv != nil {
				m.SetProvenance(pv)
			}
			if fp != nil && !fp.TraceFault() {
				m.SetFaultPlan(fp)
			}
			return m.Run()
		}
		var run func(l1, l2 string, o *obs.Observer, ck *check.Checker, fp *fault.Plan, pv *provenance.Tracker) (*sim.Result, error)
		if sniffV2(*traceFile) {
			if faultPlan != nil && faultPlan.TraceFault() {
				fmt.Fprintln(os.Stderr, "bertisim: trace-level fault plans need a v1 trace (v2 chunks are CRC-checked; use tracegen -format v1)")
				exit(exitUsage)
			}
			tf, err := tracestore.Open(*traceFile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bertisim:", err)
				exit(exitRunFailed)
			}
			defer tf.Close()
			if *skip > 0 && *skip >= tf.Meta().Instructions {
				fmt.Fprintf(os.Stderr, "bertisim: -skip %d is beyond the trace's %d instructions\n",
					*skip, tf.Meta().Instructions)
				exit(exitUsage)
			}
			run = func(l1, l2 string, o *obs.Observer, ck *check.Checker, fp *fault.Plan, pv *provenance.Tracker) (*sim.Result, error) {
				// Fresh window reader per run: the main and baseline runs each
				// stream the file independently.
				rd, err := tf.NewWindowReader(*skip, tracestore.ReaderOptions{Loop: true})
				if err != nil {
					return nil, err
				}
				defer rd.Close()
				return runMachine(rd, l1, l2, o, ck, fp, pv)
			}
		} else {
			data, err := os.ReadFile(*traceFile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				exit(exitRunFailed)
			}
			if faultPlan != nil && faultPlan.TraceFault() {
				data = faultPlan.MutateTrace(data, trace.MagicLen)
			}
			tr, err := trace.Decode(bytes.NewReader(data))
			if err != nil {
				fmt.Fprintln(os.Stderr, "decoding trace:", err)
				exit(exitRunFailed)
			}
			if *skip > 0 {
				if *skip >= tr.Instructions() {
					fmt.Fprintf(os.Stderr, "bertisim: -skip %d is beyond the trace's %d instructions\n",
						*skip, tr.Instructions())
					exit(exitUsage)
				}
				// No chunk index in a v1 stream: scan to the same boundary
				// FastForward lands on for v2.
				tr.Records = tr.Records[skipIndex(tr, *skip):]
			}
			run = func(l1, l2 string, o *obs.Observer, ck *check.Checker, fp *fault.Plan, pv *provenance.Tracker) (*sim.Result, error) {
				return runMachine(trace.NewLoopReader(tr), l1, l2, o, ck, fp, pv)
			}
		}
		start := time.Now()
		res, runErr = run(*l1d, *l2, observer, checker, faultPlan, tracker)
		elapsed = time.Since(start)
		if runErr == nil {
			base, baseErr = run("ip-stride", "", nil, nil, nil, nil)
		}
		*workload = *traceFile
	} else {
		if _, ok := workloads.ByName(*workload); !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %q (use -list)\n", *workload)
			exit(exitUsage)
		}
		spec := harness.RunSpec{Workload: *workload, L1DPf: *l1d, L2Pf: *l2, DRAMCfg: *dramCfg}
		start := time.Now()
		if observer != nil || checker != nil || faultPlan != nil || tracker != nil {
			res, runErr = h.RunWith(spec, harness.RunOptions{
				Observer: observer, Checker: checker, Fault: faultPlan, Provenance: tracker,
			})
		} else {
			res, runErr = h.Run(spec)
		}
		elapsed = time.Since(start)
		if runErr == nil {
			base, baseErr = h.Run(harness.RunSpec{Workload: *workload, L1DPf: "ip-stride", DRAMCfg: *dramCfg})
		}
	}
	if runErr != nil {
		if metrics != nil {
			metrics.RunFailed()
		}
		exitForError(runErr, checker)
	}
	if metrics != nil {
		metrics.RunCompleted()
		if p := res.Provenance; p != nil {
			metrics.SetAttribution(func() any { return p })
		}
	}
	if baseErr != nil {
		if sim.IsCancel(baseErr) {
			fmt.Fprintln(os.Stderr, "bertisim: run interrupted during the baseline; no report was produced")
			exit(exitInterrupted)
		}
		fmt.Fprintln(os.Stderr, "bertisim: baseline run failed:", baseErr)
		exit(exitRunFailed)
	}
	if checker != nil {
		// A checked run that produced violations returns them as runErr above,
		// so reaching here means every invariant held.
		fmt.Fprintln(os.Stderr, "check: all invariants held")
	}

	if elapsed > 0 {
		kinstr := float64(res.Config.SimInstructions+res.Config.WarmupInstructions) / 1000
		fmt.Fprintf(os.Stderr, "sim throughput: %.0f kinstr/s (%.2fs wall, %d measured cycles)\n",
			kinstr/elapsed.Seconds(), elapsed.Seconds(), res.Cycles)
	}
	writeObservability(observer, res, *tsOut, *traceOut)
	writeProvenance(res.Provenance, *provOut)

	instr := res.Config.SimInstructions
	c := &res.Cores[0]
	if *jsonOut {
		emitJSON(*workload, *l1d, *l2, res, base)
		return
	}
	fmt.Printf("workload: %s  l1d=%q l2=%q\n", *workload, *l1d, *l2)
	fmt.Printf("IPC            %.4f  (IP-stride baseline %.4f, speedup %.3fx)\n",
		res.IPC(), base.IPC(), harness.SpeedupOver(res, base))
	fmt.Printf("L1D  accesses=%d hits=%d misses=%d MPKI=%.1f avgFillLat=%.0f cyc\n",
		c.L1D.DemandAccesses, c.L1D.DemandHits, c.L1D.DemandMisses,
		c.L1D.MPKI(instr), c.L1D.AvgFillLatency())
	fmt.Printf("     prefetch: issued=%d fills=%d useful=%d late=%d useless=%d dropped=%d\n",
		c.L1D.PrefIssued, c.L1D.PrefFills, c.L1D.PrefUseful, c.L1D.PrefLate,
		c.L1D.PrefUseless, c.L1D.PrefDropped)
	fmt.Printf("     accuracy=%.3f timelyFraction=%.3f\n", c.L1D.Accuracy(), c.L1D.TimelyFraction())
	fmt.Printf("L2   accesses=%d misses=%d MPKI=%.1f pfFills=%d pfUseful=%d\n",
		c.L2.DemandAccesses, c.L2.DemandMisses, c.L2.MPKI(instr), c.L2.PrefFills, c.L2.PrefUseful)
	fmt.Printf("LLC  accesses=%d misses=%d MPKI=%.1f\n",
		res.LLC.DemandAccesses, res.LLC.DemandMisses, res.LLC.MPKI(instr))
	fmt.Printf("DRAM reads=%d writes=%d rowHit=%d rowMiss=%d rowConf=%d busBusy=%.2f\n",
		res.DRAM.Reads, res.DRAM.Writes, res.DRAM.RowHits, res.DRAM.RowMisses,
		res.DRAM.RowConflicts, float64(res.DRAM.BusyCycles)/float64(res.Cycles))
	tr := res.Traffic()
	l2t, llct, drt := tr.Total()
	fmt.Printf("traffic lines: L1D<->L2=%d L2<->LLC=%d LLC<->DRAM=%d\n", l2t, llct, drt)
	e := energy.Compute(energy.Default22nm(), res)
	fmt.Printf("dynamic energy (uJ): L1D=%.1f L2=%.1f LLC=%.1f DRAM=%.1f total=%.1f\n",
		e.L1D/1e6, e.L2/1e6, e.LLC/1e6, e.DRAM/1e6, e.Total()/1e6)
	fmt.Printf("TLB  dTLBmiss=%d STLBmiss=%d walks=%d pfDropTLB=%d\n",
		c.TLB.DTLBMisses, c.TLB.STLBMisses, c.TLB.PageWalks, c.TLB.PrefDropTLB)
	if ts := res.TimeSeries; ts != nil && len(ts.Rows) > 0 {
		last := &ts.Rows[len(ts.Rows)-1]
		fmt.Printf("timeseries: %d intervals of %d instr (last: ipc=%.3f acc=%.3f)\n",
			len(ts.Rows), ts.IntervalInstr, last.IPC, last.PfAccuracy)
	}
	printProvenance(res.Provenance)
}

// stopProfile finishes the -cpuprofile file; nil when profiling is off.
var (
	stopProfile     func()
	stopProfileOnce sync.Once
)

// startCPUProfile starts profiling into path (no-op when empty). A file
// that cannot be created exits 1, like any unwritable output path.
func startCPUProfile(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bertisim: -cpuprofile:", err)
		exit(exitRunFailed)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		fmt.Fprintln(os.Stderr, "bertisim: -cpuprofile:", err)
		exit(exitRunFailed)
	}
	stopProfile = func() {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "bertisim: -cpuprofile:", err)
		}
	}
}

// stopCPUProfile flushes and closes the profile once, whichever exit path
// (normal return, error exit, or the signal goroutine) gets there first;
// a concurrent caller waits until the file is complete.
func stopCPUProfile() {
	stopProfileOnce.Do(func() {
		if stopProfile != nil {
			stopProfile()
		}
	})
}

// exit finishes the CPU profile, then exits with code. Every exit path of
// the command goes through here.
func exit(code int) {
	stopCPUProfile()
	os.Exit(code)
}

// printProvenance renders the human-readable attribution summary: per-level
// outcome totals with mean slack, then the heaviest trigger PCs and deltas
// with Berti's claimed confidence next to the measured timely rate.
func printProvenance(p *provenance.Report) {
	if p == nil {
		return
	}
	fmt.Printf("provenance: pool=%d overflow=%d live_at_end=%d\n",
		p.Capacity, p.Overflow, p.LiveAtEnd)
	for i := range p.Levels {
		l := &p.Levels[i]
		fmt.Printf("  %-4s issued=%d spawned=%d fills=%d timely=%d late=%d useless=%d dropped=%d avgSlack=%.0f avgFillLat=%.0f\n",
			l.Level, l.Issued, l.Spawned, l.Fills, l.Timely, l.Late, l.Useless,
			l.Dropped, l.Slack.Mean(), l.FillLatency.Mean())
	}
	printRows := func(kind string, rows []provenance.Row) {
		if len(rows) == 0 {
			return
		}
		fmt.Printf("  top %s (issued / claimed conf -> timely rate, avg slack):\n", kind)
		for i := range rows {
			r := &rows[i]
			fmt.Printf("    %-18s issued=%-8d conf=%3.0f%% -> timely=%.2f slack=%.0f\n",
				r.Key, r.Issued, r.AvgConf, r.TimelyRate, r.AvgSlack)
		}
	}
	printRows("trigger PCs", p.TopPCs(5))
	printRows("deltas", p.TopDeltas(5))
}

// writeProvenance persists the attribution report (.json = JSON document,
// anything else = attribution CSV).
func writeProvenance(p *provenance.Report, path string) {
	if path == "" {
		return
	}
	if p == nil {
		fmt.Fprintln(os.Stderr, "provenance: no report produced")
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "provenance:", err)
		exit(1)
	}
	if strings.HasSuffix(path, ".json") {
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		err = enc.Encode(p)
	} else {
		err = p.WriteCSV(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "provenance:", err)
		exit(1)
	}
	fmt.Fprintf(os.Stderr, "provenance: wrote attribution (%d PCs, %d deltas) to %s\n",
		len(p.PCs), len(p.Deltas), path)
}

// sniffV2 reports whether path starts with the v2 container magic. Errors
// fall through to the v1 decoder, which reports them properly.
func sniffV2(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	buf := make([]byte, tracestore.HeadMagicLen)
	n, _ := io.ReadFull(f, buf)
	return tracestore.IsV2Header(buf[:n])
}

// skipIndex returns the index of the first record whose retirement pushes
// the cumulative instruction count past target — the same boundary
// tracestore.(*File).FastForward seeks to, computed by linear scan.
func skipIndex(tr *trace.Slice, target uint64) int {
	var cum uint64
	for i := range tr.Records {
		cost := uint64(tr.Records[i].NonMemBefore) + 1
		if cum+cost > target {
			return i
		}
		cum += cost
	}
	return len(tr.Records)
}

// exitForError reports a failed run and exits with the code matching the
// error class: invariant violations get their own code (and a listing of the
// recorded violations) so scripts can distinguish "the simulator broke" from
// "the simulator caught breakage".
func exitForError(err error, checker *check.Checker) {
	if sim.IsCancel(err) {
		fmt.Fprintln(os.Stderr, "bertisim: run interrupted before completion; no report was produced")
		exit(exitInterrupted)
	}
	var ve *check.ViolationError
	if errors.As(err, &ve) {
		fmt.Fprintf(os.Stderr, "bertisim: %d invariant violation(s) detected\n", ve.Total)
		for _, v := range ve.Violations {
			fmt.Fprintln(os.Stderr, "  ", v.String())
		}
		if ve.Total > len(ve.Violations) {
			fmt.Fprintf(os.Stderr, "   ... and %d more (raise check.Checker.MaxRecorded to keep them)\n",
				ve.Total-len(ve.Violations))
		}
		exit(exitViolations)
	}
	fmt.Fprintln(os.Stderr, "bertisim: run failed:", err)
	if checker != nil && checker.Total() > 0 {
		fmt.Fprintf(os.Stderr, "bertisim: %d invariant violation(s) were also recorded before the failure\n",
			checker.Total())
	}
	exit(exitRunFailed)
}

// ensureWritable verifies an output path can be created, exiting early with
// a clean error instead of failing after the simulation has run.
func ensureWritable(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bertisim:", err)
		exit(1)
	}
	f.Close()
}

// writeObservability persists the sampled time series and the event trace.
func writeObservability(o *obs.Observer, res *sim.Result, tsOut, traceOut string) {
	if tsOut != "" && res.TimeSeries != nil {
		f, err := os.Create(tsOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "timeseries:", err)
			exit(1)
		}
		if strings.HasSuffix(tsOut, ".json") {
			enc := json.NewEncoder(f)
			enc.SetIndent("", "  ")
			err = enc.Encode(res.TimeSeries)
		} else {
			err = res.TimeSeries.WriteCSV(f)
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "timeseries:", err)
			exit(1)
		}
		fmt.Fprintf(os.Stderr, "timeseries: wrote %d intervals to %s\n",
			len(res.TimeSeries.Rows), tsOut)
	}
	if o == nil || o.Tracer == nil || traceOut == "" {
		return
	}
	f, err := os.Create(traceOut)
	if err != nil {
		fmt.Fprintln(os.Stderr, "trace:", err)
		exit(1)
	}
	err = o.Tracer.WriteChromeTrace(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "trace:", err)
		exit(1)
	}
	fmt.Fprintf(os.Stderr, "trace: wrote %d events to %s (%d emitted, %d dropped by ring)\n",
		len(o.Tracer.Events()), traceOut, o.Tracer.Total(), o.Tracer.Dropped())
}

// jsonReport is the machine-readable output of one run. SchemaVersion
// (obs.SchemaVersion) governs both this shape and the embedded time series.
type jsonReport struct {
	SchemaVersion int             `json:"schema_version"`
	Workload      string          `json:"workload"`
	L1DPf         string          `json:"l1d_prefetcher"`
	L2Pf          string          `json:"l2_prefetcher"`
	IPC           float64         `json:"ipc"`
	Baseline      float64         `json:"baseline_ipc"`
	Speedup       float64         `json:"speedup"`
	L1DMPKI       float64         `json:"l1d_mpki"`
	L2MPKI        float64         `json:"l2_mpki"`
	LLCMPKI       float64         `json:"llc_mpki"`
	Accuracy      float64         `json:"l1d_prefetch_accuracy"`
	Timely        float64         `json:"timely_fraction"`
	DRAMRead      uint64          `json:"dram_reads"`
	DRAMWrit      uint64          `json:"dram_writes"`
	EnergyPJ      float64         `json:"dynamic_energy_pj"`
	TimeSeries    *obs.TimeSeries `json:"time_series,omitempty"`
	Provenance    *jsonProvenance `json:"provenance,omitempty"`
}

// jsonTopN bounds the attribution rows embedded in the -json report (the
// full tables go to -provenance-out).
const jsonTopN = 10

// jsonProvenance is the -json report's condensed attribution view:
// per-level outcome stats plus the top-N trigger PCs and deltas.
type jsonProvenance struct {
	SchemaVersion int                     `json:"schema_version"`
	Capacity      int                     `json:"capacity"`
	Overflow      uint64                  `json:"overflow"`
	LiveAtEnd     uint64                  `json:"live_at_end"`
	Levels        []provenance.LevelStats `json:"levels"`
	TopPCs        []provenance.Row        `json:"top_pcs"`
	TopDeltas     []provenance.Row        `json:"top_deltas"`
	Calibration   []provenance.CalBand    `json:"calibration"`
}

// emitJSON prints the machine-readable report.
func emitJSON(workload, l1d, l2 string, res, base *sim.Result) {
	instr := res.Config.SimInstructions
	c := &res.Cores[0]
	rep := jsonReport{
		SchemaVersion: obs.SchemaVersion,
		Workload:      workload,
		L1DPf:         l1d,
		L2Pf:          l2,
		IPC:           res.IPC(),
		Baseline:      base.IPC(),
		Speedup:       harness.SpeedupOver(res, base),
		L1DMPKI:       c.L1D.MPKI(instr),
		L2MPKI:        c.L2.MPKI(instr),
		LLCMPKI:       res.LLC.MPKI(instr),
		Accuracy:      c.L1D.Accuracy(),
		Timely:        c.L1D.TimelyFraction(),
		DRAMRead:      res.DRAM.Reads,
		DRAMWrit:      res.DRAM.Writes,
		EnergyPJ:      energy.Compute(energy.Default22nm(), res).Total(),
		TimeSeries:    res.TimeSeries,
	}
	if p := res.Provenance; p != nil {
		rep.Provenance = &jsonProvenance{
			SchemaVersion: p.SchemaVersion,
			Capacity:      p.Capacity,
			Overflow:      p.Overflow,
			LiveAtEnd:     p.LiveAtEnd,
			Levels:        p.Levels,
			TopPCs:        p.TopPCs(jsonTopN),
			TopDeltas:     p.TopDeltas(jsonTopN),
			Calibration:   p.Calibration,
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit(1)
	}
}
