package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"sort"
	"time"

	"github.com/bertisim/berti/internal/campaign"
	"github.com/bertisim/berti/internal/harness"
)

// iteration is one unit of timed work: a full pass over a workload's specs.
type iteration struct {
	wall   time.Duration // the timed region only
	cpu    time.Duration // process CPU over the timed region
	setup  time.Duration // per-iteration set-up outside the timed region
	instr  uint64        // simulated instructions, warm-up included, all cores
	specs  int
	failed int
	// runMs holds per-spec harness call times, where the benchmark can see
	// individual calls.
	runMs   []float64
	entries []campaign.Entry // sorted by key
	digest  string           // SHA-256 of the results (or of the campaign report)
	exact   exactMetrics
	counts  layerCounts
}

// exactMetrics are model outputs: deterministic functions of the traces
// and configuration, identical on every host.
type exactMetrics struct {
	simIPC       float64 // geomean IPC over the specs
	bertiSpeedup float64 // geomean IPC of Berti over IP-stride, per trace
	// l1dAccuracy is the arithmetic mean of Berti's per-trace L1D
	// CacheStats.Accuracy(); a geomean would read 0 whenever one trace's
	// prefetches were all useless.
	l1dAccuracy float64
}

// layerCounts are the simulated work counts of one iteration, summed over
// its runs and cores.
type layerCounts struct {
	instructions, cycles, robFullStalls uint64
	l1dAccesses, l1dMisses              uint64
	l1dPfIssued, l1dPfUseful            uint64
	l2Accesses, l2Misses                uint64
	llcAccesses, llcMisses              uint64
	dramReads, dramWrites, simCycles    uint64
}

// genStats accumulates trace generation work for workloads.gen_s and
// workloads.records_per_s.
type genStats struct {
	d       time.Duration
	records int
}

// pregen generates every named trace on h inside a "workloads" span, so
// trace generation is set-up work and never part of a timed pass.
func (g *genStats) pregen(tr *tracer, parent int64, h *harness.Harness, names []string) error {
	for _, name := range names {
		var err error
		t0 := time.Now()
		tr.do(parent, "workloads.gen "+name, "workloads", 0, func(int64) {
			t, e := h.Trace(name, 0)
			if err = e; e == nil {
				g.records += len(t.Records)
			}
		})
		g.d += time.Since(t0)
		if err != nil {
			return err
		}
	}
	return nil
}

func (g *genStats) report(m metrics) {
	m.set("workloads.gen_s", g.d.Seconds(), "s")
	m.set("workloads.records_per_s", float64(g.records)/g.d.Seconds(), "records/s")
}

// sortEntries orders entries by memo key, the campaign report's order.
func sortEntries(es []campaign.Entry) {
	sort.Slice(es, func(i, j int) bool { return es[i].Key < es[j].Key })
}

// digestEntries hashes the JSON form of sorted entries.
func digestEntries(es []campaign.Entry) (string, error) {
	body, err := json.Marshal(es)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:]), nil
}

// summarize fills the iteration's instruction count, exact metrics and work
// counts from its results. warmup is the scale's per-core warm-up length.
func summarize(it *iteration, specs map[string]harness.RunSpec, warmup uint64) {
	var ipcs []float64
	type pair struct{ berti, stride float64 }
	pairs := map[string]*pair{}
	var accs []float64
	var c layerCounts
	for _, e := range it.entries {
		r := e.Result
		spec := specs[e.Key]
		ipcs = append(ipcs, r.IPC())
		for i := range r.Cores {
			cr := &r.Cores[i]
			it.instr += warmup + cr.Core.Instructions
			c.instructions += cr.Core.Instructions
			c.cycles += cr.Core.Cycles
			c.robFullStalls += cr.Core.ROBFullStalls
			c.l1dAccesses += cr.L1D.DemandAccesses
			c.l1dMisses += cr.L1D.DemandMisses
			c.l1dPfIssued += cr.L1D.PrefIssued
			c.l1dPfUseful += cr.L1D.PrefUseful
			c.l2Accesses += cr.L2.DemandAccesses
			c.l2Misses += cr.L2.DemandMisses
		}
		c.llcAccesses += r.LLC.DemandAccesses
		c.llcMisses += r.LLC.DemandMisses
		c.dramReads += r.DRAM.Reads
		c.dramWrites += r.DRAM.Writes
		c.simCycles += r.Cycles
		if spec.L2Pf != "" || spec.DRAMCfg != "" || spec.BertiOverride != nil {
			continue
		}
		switch spec.L1DPf {
		case "berti":
			p := pairs[spec.Workload]
			if p == nil {
				p = &pair{}
				pairs[spec.Workload] = p
			}
			p.berti = r.IPC()
			// Accuracy is undefined where Berti brought no line in
			// (Accuracy() reads 0 there by convention); such traces
			// are left out of the mean.
			if l1d := &r.Cores[0].L1D; l1d.PrefFills > 0 {
				accs = append(accs, l1d.Accuracy())
			}
		case "ip-stride":
			p := pairs[spec.Workload]
			if p == nil {
				p = &pair{}
				pairs[spec.Workload] = p
			}
			p.stride = r.IPC()
		}
	}
	names := make([]string, 0, len(pairs))
	for w := range pairs {
		names = append(names, w)
	}
	sort.Strings(names) // a fixed summation order keeps the geomean bit-exact
	var ratios []float64
	for _, w := range names {
		if p := pairs[w]; p.berti > 0 && p.stride > 0 {
			ratios = append(ratios, p.berti/p.stride)
		}
	}
	it.exact = exactMetrics{simIPC: geomean(ipcs), bertiSpeedup: geomean(ratios), l1dAccuracy: mean(accs)}
	it.counts = c
}
