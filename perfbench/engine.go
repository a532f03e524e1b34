package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/bertisim/berti/internal/campaign"
	"github.com/bertisim/berti/internal/harness"
	"github.com/bertisim/berti/internal/sim"
	"github.com/bertisim/berti/internal/trace"
	"github.com/bertisim/berti/internal/tracestore"
	"github.com/bertisim/berti/internal/workloads"
)

// engineWorkload runs a fixed spec list serially (Harness.Workers = 1) on
// one harness, either from in-memory traces or streamed from an on-disk v2
// corpus. Every run goes through RunWithContext, which never memoizes, so a
// timed pass can never be served from the harness's result cache.
type engineWorkload struct {
	scale  harness.Scale
	traces []string // distinct workload names, in generation order
	specs  []harness.RunSpec
	byKey  map[string]harness.RunSpec
	stream bool
	dir    string // state root for corpus directories
	nSetup int

	h         *harness.Harness
	corpusDir string
	gen       genStats
	encTime   time.Duration
	encBytes  int64
}

// setup builds a fresh harness and generates every trace (and, when
// streaming, encodes them into a fresh corpus directory). It returns the
// time taken, not counting removal of the previous corpus.
func (w *engineWorkload) setup(tr *tracer, parent int64) (time.Duration, error) {
	if w.corpusDir != "" {
		if err := os.RemoveAll(w.corpusDir); err != nil {
			return 0, err
		}
	}
	runtime.GC()
	t0 := time.Now()
	err := w.build(tr, parent)
	return time.Since(t0), err
}

func (w *engineWorkload) build(tr *tracer, parent int64) error {
	w.nSetup++
	h := harness.New(w.scale)
	h.Workers = 1
	w.h, w.gen, w.encTime, w.encBytes = h, genStats{}, 0, 0
	if !w.stream {
		return w.gen.pregen(tr, parent, h, w.traces)
	}
	w.corpusDir = filepath.Join(w.dir, fmt.Sprintf("corpus-%d", w.nSetup))
	h.CorpusDir = w.corpusDir
	c, err := tracestore.NewCorpus(w.corpusDir)
	if err != nil {
		return err
	}
	for _, name := range w.traces {
		gen, _ := workloads.ByName(name)
		// The key mirrors the harness's own corpus key (seed offset 42), so
		// the timed runs find every container already on disk.
		cfg := workloads.GenConfig{MemRecords: w.scale.MemRecords, Seed: 42}
		t0 := time.Now()
		sl := gen.Gen(cfg)
		t1 := time.Now()
		tr.add(parent, "workloads.gen "+name, "workloads", 0, t0, t1)
		w.gen.d += t1.Sub(t0)
		w.gen.records += len(sl.Records)
		var f *tracestore.File
		tr.do(parent, "tracestore.ensure "+name, "tracestore", 0, func(int64) {
			f, err = c.Ensure(tracestore.Key{Workload: name, Records: cfg.MemRecords, Seed: cfg.Seed}, func() *trace.Slice { return sl })
		})
		w.encTime += time.Since(t1)
		if err != nil {
			return fmt.Errorf("corpus %s: %w", name, err)
		}
		w.encBytes += f.CompressedSize()
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// corpusFiles counts the containers in the corpus directory (set-up must
// have written every one the timed runs read).
func (w *engineWorkload) corpusFiles() (int, error) {
	es, err := os.ReadDir(w.corpusDir)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, e := range es {
		if filepath.Ext(e.Name()) == ".btr2" {
			n++
		}
	}
	return n, nil
}

func (w *engineWorkload) iterate(tr *tracer, parent int64) (*iteration, error) {
	it := &iteration{}
	ctx := context.Background()
	before := readProc()
	for _, spec := range w.specs {
		var err error
		var res *sim.Result
		t0 := time.Now()
		tr.do(parent, "harness.run "+spec.Workload+"/"+spec.L1DPf, "harness", 0, func(int64) {
			res, err = w.h.RunWithContext(ctx, spec, harness.RunOptions{})
		})
		it.runMs = append(it.runMs, float64(time.Since(t0).Nanoseconds())/1e6)
		it.specs++
		if err != nil {
			it.failed++
			return it, fmt.Errorf("run %s: %w", spec.Key(), err)
		}
		it.entries = append(it.entries, campaign.Entry{Key: spec.Key(), Result: res})
	}
	after := readProc()
	it.wall, it.cpu = after.wall.Sub(before.wall), after.cpu-before.cpu
	sortEntries(it.entries)
	var err error
	if it.digest, err = digestEntries(it.entries); err != nil {
		return nil, err
	}
	summarize(it, w.byKey, w.scale.WarmupInstr)
	if w.stream {
		n, err := w.corpusFiles()
		if err != nil {
			return nil, err
		}
		if n != len(w.traces) {
			return nil, fmt.Errorf("corpus holds %d containers after a pass, set-up wrote %d", n, len(w.traces))
		}
	}
	return it, nil
}

// crossCheck, for a streamed workload, runs the same specs once more from
// in-memory traces (a fresh harness, no corpus) and requires byte-identical
// results. The same pass runs the traces with IP-stride and with Berti at
// L1D, so the stream workload reports Berti's exact metrics on its own
// traces.
func (w *engineWorkload) crossCheck(first *iteration) (exactMetrics, error) {
	if !w.stream {
		return first.exact, nil
	}
	all := append([]harness.RunSpec(nil), w.specs...)
	for _, n := range w.traces {
		all = append(all, harness.RunSpec{Workload: n, L1DPf: "ip-stride"}, harness.RunSpec{Workload: n, L1DPf: "berti"})
	}
	h := harness.New(w.scale)
	h.Workers = 2 // untimed: both CPUs shorten the run's wall time
	out, err := h.RunManyContext(context.Background(), all)
	if err != nil {
		return first.exact, fmt.Errorf("in-memory reference: %w", err)
	}
	var ref []campaign.Entry
	ext := &iteration{}
	for i, spec := range all {
		e := campaign.Entry{Key: spec.Key(), Result: out[i]}
		if i < len(w.specs) {
			ref = append(ref, e)
		} else {
			ext.entries = append(ext.entries, e)
		}
	}
	sortEntries(ref)
	d, err := digestEntries(ref)
	if err != nil {
		return first.exact, err
	}
	if d != first.digest {
		return first.exact, errors.New("streamed results differ from the in-memory run of the same specs")
	}
	sortEntries(ext.entries)
	summarize(ext, keyed(all), w.scale.WarmupInstr)
	exact := first.exact
	exact.bertiSpeedup, exact.l1dAccuracy = ext.exact.bertiSpeedup, ext.exact.l1dAccuracy
	return exact, nil
}

// layerMetrics reports trace generation from the traced set-up and, for a
// corpus, encode cost and timed reader drains with 1 and 2 decode workers.
func (w *engineWorkload) layerMetrics(tr *tracer, parent int64, m metrics) error {
	w.gen.report(m)
	if !w.stream {
		return nil
	}
	m.set("tracestore.encode_mb_per_s", float64(w.encBytes)/1e6/w.encTime.Seconds(), "MB/s")
	m.set("tracestore.bytes_per_record", float64(w.encBytes)/float64(w.gen.records), "B/record")
	for _, workers := range []int{1, 2} {
		recs, bytes, d, err := w.drain(tr, parent, workers)
		if err != nil {
			return fmt.Errorf("reader drain: %w", err)
		}
		suffix := ""
		if workers == 2 {
			suffix = "_2w"
		}
		m.set("tracestore.decode_mb_per_s"+suffix, float64(bytes)/1e6/d.Seconds(), "MB/s")
		m.set("tracestore.decode_records_per_s"+suffix, float64(recs)/d.Seconds(), "records/s")
	}
	return nil
}

// drain times one full File.NewReader pass over every container with the
// given decode worker count.
func (w *engineWorkload) drain(tr *tracer, parent int64, workers int) (records, bytes int64, d time.Duration, err error) {
	es, err := os.ReadDir(w.corpusDir)
	if err != nil {
		return 0, 0, 0, err
	}
	for _, e := range es {
		if filepath.Ext(e.Name()) != ".btr2" {
			continue
		}
		f, err := tracestore.Open(filepath.Join(w.corpusDir, e.Name()))
		if err != nil {
			return 0, 0, 0, err
		}
		t0 := time.Now()
		tr.do(parent, fmt.Sprintf("tracestore.drain w%d %s", workers, e.Name()), "tracestore", 0, func(int64) {
			rd := f.NewReader(tracestore.ReaderOptions{Workers: workers})
			for {
				if _, err = rd.Next(); err != nil {
					break
				}
				records++
			}
			if errors.Is(err, io.EOF) {
				err = nil
			}
			if cerr := rd.Close(); err == nil {
				err = cerr
			}
		})
		d += time.Since(t0)
		bytes += f.CompressedSize()
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return 0, 0, 0, err
		}
	}
	return records, bytes, d, nil
}

func (w *engineWorkload) runScale() harness.Scale { return w.scale }

func (w *engineWorkload) close() {
	if w.corpusDir != "" {
		_ = os.RemoveAll(w.corpusDir) // best effort: the run's state root is removed too
	}
}
