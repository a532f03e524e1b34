// Command perfbench is the repository's benchmark. It runs one named
// workload for a fixed time, checks the simulator's outputs, and prints
// every metric with its unit; the last line of standard output is one JSON
// object {correct, attempted, failed, metrics}.
//
//	bash perfbench/run.sh --workload engine-memint --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones, measured untraced.
// With --trace 1 the run adds a traced region (spans around every layer
// call plus a CPU profile) and reports the per-layer metrics instead.
//
// The simulator is unvalidated: the repository holds no results from real
// hardware or from a more detailed model, so sim_ipc, berti_speedup and
// l1d_pf_accuracy are model outputs, not error figures.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"github.com/bertisim/berti/internal/campaign"
	"github.com/bertisim/berti/internal/harness"
	"github.com/bertisim/berti/internal/server"
)

// benchWorkload is one named workload. setup builds fresh inputs (called
// several times; each call replaces the previous state), iterate runs one
// timed pass, crossCheck runs the once-per-invocation output check.
type benchWorkload interface {
	setup(tr *tracer, parent int64) (time.Duration, error)
	iterate(tr *tracer, parent int64) (*iteration, error)
	crossCheck(first *iteration) (exactMetrics, error)
	layerMetrics(tr *tracer, parent int64, m metrics) error
	runScale() harness.Scale
	close()
}

const (
	setupRepeats = 5 // set-ups per run; setup_s is their median
	minTimed     = 3 // timed iterations per untraced region, at least
	minTraced    = 3 // traced iterations, at least
)

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: engine-memint, stream-corpus, campaign-lease or campaign-local")
	seed := flag.Int64("seed", 1, "input seed (orders the specs)")
	seconds := flag.Int("seconds", 10, "length of the timed region in seconds")
	traced := flag.Int("trace", 0, "1 adds a traced run and reports the per-layer metrics")
	flag.Parse()
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
	}
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	// All state lives under the build directory of the checkout the
	// benchmark runs in, and is removed on exit.
	state := filepath.Join(wd, ".bench_build", "perfbench-state", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(state, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(state)
	fmt.Printf("state dir filesystem: %s\n", fsType(state))

	w, err := newWorkload(*name, *seed, state)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	defer w.close()
	res, err := measure(w, *name, time.Duration(*seconds)*time.Second, *traced == 1, state)
	if err != nil && res == nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", err)
	}
	res.print(os.Stdout)
	if !res.Correct {
		return 1
	}
	return 0
}

func newWorkload(name string, seed int64, state string) (benchWorkload, error) {
	switch name {
	case "engine-memint":
		return newEngineMemInt(seed, state), nil
	case "stream-corpus":
		return newStreamCorpus(seed, state), nil
	case "campaign-lease":
		return newCampaign(seed, state, true), nil
	case "campaign-local":
		return newCampaign(seed, state, false), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// result is the printed outcome of one invocation.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
	notes     []string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

func (r *result) print(out *os.File) {
	for _, n := range r.notes {
		fmt.Fprintln(out, n)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "%-40s %16.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	body, _ := json.Marshal(r) // only float64, int, bool and string fields
	fmt.Fprintln(out, string(body))
}

// measure runs set-up, the warm-up pass, the untimed checks and the timed
// (and, when traced, the traced) regions, and assembles the result.
func measure(w benchWorkload, name string, region time.Duration, traced bool, state string) (*result, error) {
	start := readProc()
	res := &result{Correct: true, Metrics: metrics{}}
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		d, err := w.setup(nil, 0)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
	}

	// One untimed warm-up pass: caches, page cache and the heap reach their
	// steady state before anything is timed.
	first, err := w.iterate(nil, 0)
	if err != nil {
		return nil, fmt.Errorf("warm-up pass: %w", err)
	}
	if first.setup > 0 {
		setups = append(setups, first.setup.Seconds())
	}
	check := &checker{first: first}
	check.pass(first)
	exact, err := w.crossCheck(first)
	if err != nil {
		check.fail(err)
	}

	untimed := region
	if traced {
		untimed = region / 2
	}
	timed, err := runRegion(w, nil, 0, untimed, minTimed)
	if err != nil {
		return nil, err
	}
	for _, it := range timed {
		check.pass(it)
		if it.setup > 0 {
			setups = append(setups, it.setup.Seconds())
		}
	}
	kips := func(it *iteration) float64 { return float64(it.instr) / 1e3 / it.wall.Seconds() }
	untracedKips := median(mapIters(timed, kips))

	all := append([]*iteration{first}, timed...)
	if !traced {
		m := res.Metrics
		m.set("setup_s", median(setups), "s")
		m.set("kinstr_per_s", untracedKips, "kinstr/s")
		m.set("kinstr_per_cpu_s", median(mapIters(timed, func(it *iteration) float64 {
			return float64(it.instr) / 1e3 / it.cpu.Seconds()
		})), "kinstr/s")
		m.set("specs_per_s", median(mapIters(timed, func(it *iteration) float64 {
			return float64(it.specs) / it.wall.Seconds()
		})), "specs/s")
		m.set("peak_rss_mb", peakRSSMB(), "MB")
		m.set("sim_ipc", exact.simIPC, "IPC")
		m.set("berti_speedup", exact.bertiSpeedup, "ratio")
		m.set("l1d_pf_accuracy", exact.l1dAccuracy, "ratio")
	} else {
		its, err := tracedRegion(w, name, region/2, state, res.Metrics)
		if err != nil {
			return nil, err
		}
		for _, it := range its {
			check.pass(it)
		}
		all = append(all, its...)
		tk := median(mapIters(its, kips))
		res.Metrics.set("trace.kinstr_per_s", tk, "kinstr/s")
		res.Metrics.set("trace.untraced_kinstr_per_s", untracedKips, "kinstr/s")
		res.Metrics.set("trace.overhead_frac", 1-tk/untracedKips, "ratio")
	}
	end := readProc()
	steal := stealFrac(start, end)
	for _, it := range all {
		res.Attempted += it.specs
		res.Failed += it.failed
	}
	if traced {
		res.Metrics.set("host.steal_frac", steal, "ratio")
		res.Metrics.set("fail_ratio", float64(res.Failed)/float64(max(res.Attempted, 1)), "ratio")
		if missing := fillPerLayer(res.Metrics); len(missing) > 0 {
			res.notes = append(res.notes, fmt.Sprintf("unavailable on %s (printed as 0): %s", name, strings.Join(missing, " ")))
		}
	}
	if err := checkDeclared(res.Metrics, traced); err != nil {
		return nil, err
	}
	res.notes = append(res.notes,
		fmt.Sprintf("workload %s: %d timed iterations, %d set-ups, GOMAXPROCS %d, NumCPU %d",
			name, len(timed), len(setups), runtime.GOMAXPROCS(0), runtime.NumCPU()),
		fmt.Sprintf("timed iterations kinstr/s: %.1f; set-ups s: %.4f", mapIters(timed, kips), setups),
		fmt.Sprintf("host.steal_frac %.4f (diagnostic: share of host CPU stolen during the run)", steal),
		fmt.Sprintf("exact model metrics: sim_ipc %.17g berti_speedup %.17g l1d_pf_accuracy %.17g",
			exact.simIPC, exact.bertiSpeedup, exact.l1dAccuracy),
		"model status: unvalidated (no hardware or reference-model results in the repository); "+
			"sim_ipc, berti_speedup and l1d_pf_accuracy are model outputs, not error figures",
	)
	if len(check.errs) > 0 {
		res.Correct = false
		return res, errors.Join(check.errs...)
	}
	return res, nil
}

// runRegion runs iterations until d has passed and at least n ran, with a
// GC before each so one pass's garbage is not collected on the next's time.
func runRegion(w benchWorkload, tr *tracer, parent int64, d time.Duration, n int) ([]*iteration, error) {
	var its []*iteration
	t0 := time.Now()
	for len(its) < n || time.Since(t0) < d {
		runtime.GC()
		var it *iteration
		var err error
		tr.do(parent, fmt.Sprintf("iteration %d", len(its)), "bench", 0, func(id int64) {
			it, err = w.iterate(tr, id)
		})
		if err != nil {
			return nil, fmt.Errorf("timed pass %d: %w", len(its), err)
		}
		its = append(its, it)
	}
	return its, nil
}

// tracedRegion repeats the timed passes with spans and a CPU profile, then
// the workload's own layer probes, and derives the per-layer metrics.
func tracedRegion(w benchWorkload, name string, d time.Duration, state string, m metrics) ([]*iteration, error) {
	tr := newTracer()
	root, rootStart := tr.begin()
	if _, err := w.setup(tr, root); err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	var prof bytes.Buffer
	before := readProc()
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	its, err := runRegion(w, tr, root, d, minTraced)
	pprof.StopCPUProfile()
	after := readProc()
	if err != nil {
		return nil, err
	}
	if err := w.layerMetrics(tr, root, m); err != nil {
		return nil, err
	}
	last := its[len(its)-1]
	if err := persistPass(tr, root, its, w.runScale(), state, m); err != nil {
		return nil, err
	}
	tr.end(root, 0, "traced region", "bench", 0, rootStart)

	shares, samples, err := foldProfile(prof.Bytes())
	if err != nil {
		return nil, fmt.Errorf("folding CPU profile: %w", err)
	}
	for _, l := range cpuLayers {
		m.set("cpu_share."+l, shares[l], "ratio")
	}
	m.set("profile.samples", float64(samples), "count")

	n := float64(len(its))
	c := last.counts
	for _, x := range []struct {
		name string
		v    uint64
	}{
		{"core.instructions", c.instructions}, {"core.cycles", c.cycles},
		{"core.rob_full_stalls", c.robFullStalls},
		{"l1d.accesses", c.l1dAccesses}, {"l1d.misses", c.l1dMisses},
		{"l1d.pf_issued", c.l1dPfIssued}, {"l1d.pf_useful", c.l1dPfUseful},
		{"l2.accesses", c.l2Accesses}, {"l2.misses", c.l2Misses},
		{"llc.accesses", c.llcAccesses}, {"llc.misses", c.llcMisses},
		{"dram.reads", c.dramReads}, {"dram.writes", c.dramWrites},
	} {
		m.set(x.name, float64(x.v), "count")
	}
	wallNs := median(mapIters(its, func(it *iteration) float64 { return float64(it.wall.Nanoseconds()) }))
	m.set("sim.host_ns_per_cycle", wallNs/float64(c.simCycles), "ns")
	m.set("sim.host_ns_per_l1d_access", wallNs/float64(c.l1dAccesses), "ns")

	var runMs []float64
	for _, it := range its {
		runMs = append(runMs, it.runMs...)
	}
	setPercentiles(m, "harness.run_ms", runMs, "ms", 0.5, 0.9)
	m.set("harness.runs", float64(len(runMs)), "count")

	m.set("proc.gc_cycles", float64(after.gcCycles-before.gcCycles)/n, "count")
	m.set("proc.gc_pause_ms", float64(after.gcPauseNs-before.gcPauseNs)/1e6/n, "ms")
	m.set("proc.alloc_mb", float64(after.allocB-before.allocB)/1e6/n, "MB")
	m.set("proc.wchar_mb", float64(after.wchar-before.wchar)/1e6/n, "MB")

	spans := tr.snapshot()
	self := selfTimes(spans)
	var sum time.Duration
	for _, l := range spanLayers {
		m.set("self_s."+l, self[l].Seconds(), "s")
		sum += self[l]
	}
	lanes := map[int]bool{}
	var wall time.Duration
	for _, s := range spans {
		lanes[s.Lane] = true
		if s.ID == root {
			wall = s.End - s.Start
		}
	}
	m.set("trace.wall_s", wall.Seconds(), "s")
	m.set("trace.self_sum_s", sum.Seconds(), "s")
	m.set("trace.lanes", float64(len(lanes)), "count")
	m.set("trace.spans", float64(len(spans)), "count")
	if sum > time.Duration(len(lanes))*wall {
		return nil, fmt.Errorf("span self times (%v) exceed %d lanes × traced wall time (%v)", sum, len(lanes), wall)
	}
	path := filepath.Join(filepath.Dir(state), "trace-"+name+".json")
	if err := writeChromeTrace(path, spans); err != nil {
		return nil, err
	}
	fmt.Printf("trace_event JSON: %s\n", path)
	return its, nil
}

// spanLayers are the layers spans are recorded for.
var spanLayers = []string{"bench", "workloads", "tracestore", "harness", "http", "campaign", "store"}

// persistPass replays the traced passes' results through the campaign
// journal and the result store in a fresh directory, timing each call. It
// takes whole passes until it holds enough calls for a p90 (the journal
// rewrites the whole file per append, so replaying more would only cost
// time). Each pass's keys get a pass suffix, so the journal and the store
// take every result as new rather than skipping repeats.
func persistPass(tr *tracer, parent int64, its []*iteration, scale harness.Scale, state string, m metrics) error {
	const enough = 110
	var entries []campaign.Entry
	for i, it := range its {
		if len(entries) >= enough {
			break
		}
		for _, e := range it.entries {
			entries = append(entries, campaign.Entry{Key: fmt.Sprintf("%s|pass=%d", e.Key, i), Result: e.Result})
		}
	}
	dir, err := os.MkdirTemp(state, "persist-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	j, err := campaign.Create(filepath.Join(dir, "pass"+campaign.JournalExt), scale)
	if err != nil {
		return err
	}
	st, err := server.NewStore(filepath.Join(dir, "results"))
	if err != nil {
		return err
	}
	var appendMs, putMs []float64
	var fileBytes int64
	for _, e := range entries {
		t0 := time.Now()
		tr.do(parent, "campaign.journal_append", "campaign", 0, func(int64) { err = j.Append(e.Key, e.Result) })
		appendMs = append(appendMs, float64(time.Since(t0).Nanoseconds())/1e6)
		if err != nil {
			return fmt.Errorf("journal append: %w", err)
		}
		fi, err := os.Stat(j.Path())
		if err != nil {
			return err
		}
		fileBytes += fi.Size()
		t0 = time.Now()
		tr.do(parent, "store.put", "store", 0, func(int64) { err = st.Put(e.Key, e.Result) })
		putMs = append(putMs, float64(time.Since(t0).Nanoseconds())/1e6)
		if err != nil {
			return fmt.Errorf("store put: %w", err)
		}
	}
	setPercentiles(m, "campaign.journal_append_ms", appendMs, "ms", 0.5, 0.9)
	setPercentiles(m, "store.put_ms", putMs, "ms", 0.5, 0.9)
	m.set("campaign.journal_bytes_per_spec", float64(fileBytes)/float64(max(len(entries), 1)), "B/spec")
	return nil
}

// setPercentiles sets name.pNN for each p that has enough samples beyond
// it; the others are left to fillPerLayer, which marks them unavailable.
func setPercentiles(m metrics, name string, xs []float64, unit string, ps ...float64) {
	for _, p := range ps {
		if v, ok := percentile(xs, p); ok {
			m.set(fmt.Sprintf("%s.p%d", name, int(p*100+0.5)), v, unit)
		}
	}
}

func mapIters(its []*iteration, f func(*iteration) float64) []float64 {
	out := make([]float64, len(its))
	for i, it := range its {
		out[i] = f(it)
	}
	return out
}

// checker collects output-check failures across a run's passes: every pass
// must succeed and reproduce the first pass's results exactly.
type checker struct {
	first *iteration
	errs  []error
}

func (c *checker) fail(err error) { c.errs = append(c.errs, err) }

func (c *checker) pass(it *iteration) {
	if it.failed > 0 {
		c.fail(fmt.Errorf("%d of %d specs failed", it.failed, it.specs))
	}
	if it.digest != c.first.digest {
		c.fail(errors.New("a pass's results differ from the first pass's"))
	}
	if it.exact != c.first.exact {
		c.fail(fmt.Errorf("exact metrics changed between passes: %+v vs %+v", it.exact, c.first.exact))
	}
}
