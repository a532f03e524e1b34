package main

import (
	"math/rand"
	"sort"

	"github.com/bertisim/berti/internal/harness"
	"github.com/bertisim/berti/internal/prefetch"
	"github.com/bertisim/berti/internal/workloads"
)

// Scales. engine-memint uses the quick scale's trace length with a shorter
// simulated window, so one pass over all 66 MemInt specs takes seconds, not
// the quarter-minute of a full quick-scale sweep. The campaign grid runs at
// a micro scale where the coordinator's per-spec cost (HTTP, JSON, store,
// journal) is a large share of the work.
var (
	benchEngine = harness.Scale{Name: "perfbench-engine", MemRecords: 30_000, WarmupInstr: 20_000, SimInstr: 50_000, Mixes: 1}
	benchStream = harness.Scale{Name: "perfbench-stream", MemRecords: 120_000, WarmupInstr: 100_000, SimInstr: 250_000, Mixes: 1}
	benchMicro  = harness.Scale{Name: "perfbench-micro", MemRecords: 2_000, WarmupInstr: 2_000, SimInstr: 6_000, Mixes: 1}
)

// streamTraces are the compute-bound and cloud traces: the engine is
// cheapest per record on them, so trace decode is the largest share.
var streamTraces = []string{"deepsjeng_like", "xz_like", "nab_like",
	"cassandra_like", "classification_like", "cloud9_like", "nutch_like"}

// shuffle orders specs by seed: the seed decides submission and execution
// order, while the traces themselves stay the repository's canonical ones
// so the model metrics are comparable across runs and with the paper.
func shuffle(specs []harness.RunSpec, seed int64) []harness.RunSpec {
	rand.New(rand.NewSource(seed)).Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	return specs
}

func keyed(specs []harness.RunSpec) map[string]harness.RunSpec {
	m := make(map[string]harness.RunSpec, len(specs))
	for _, s := range specs {
		m[s.Key()] = s
	}
	return m
}

func newEngineMemInt(seed int64, state string) *engineWorkload {
	names := harness.MemIntSuite("all")
	var specs []harness.RunSpec
	for _, n := range names {
		for _, pf := range []string{"ip-stride", "berti"} {
			specs = append(specs, harness.RunSpec{Workload: n, L1DPf: pf})
		}
	}
	return &engineWorkload{scale: benchEngine, traces: names, specs: shuffle(specs, seed), byKey: keyed(specs), dir: state}
}

func newStreamCorpus(seed int64, state string) *engineWorkload {
	var specs []harness.RunSpec
	for _, n := range streamTraces {
		specs = append(specs, harness.RunSpec{Workload: n})
	}
	return &engineWorkload{scale: benchStream, traces: streamTraces, specs: shuffle(specs, seed), byKey: keyed(specs),
		stream: true, dir: state}
}

// gridTraces is every registered workload (the 37 single-core traces).
func gridTraces() []string {
	var out []string
	for _, w := range workloads.All() {
		out = append(out, w.Name)
	}
	sort.Strings(out)
	return out
}

// gridSpecs is every trace with no prefetcher and with each registered
// prefetcher at the level it is designed for.
func gridSpecs() []harness.RunSpec {
	var specs []harness.RunSpec
	for _, t := range gridTraces() {
		specs = append(specs, harness.RunSpec{Workload: t})
		for _, e := range prefetch.All() {
			s := harness.RunSpec{Workload: t}
			if e.Level == prefetch.AtL1D {
				s.L1DPf = e.Name
			} else {
				s.L2Pf = e.Name
			}
			specs = append(specs, s)
		}
	}
	return specs
}

func newCampaign(seed int64, state string, lease bool) *campaignWorkload {
	specs := gridSpecs()
	return &campaignWorkload{lease: lease, seed: seed, specs: shuffle(specs, seed), byKey: keyed(specs), dir: state}
}
