package cache

import "testing"

// benchLower is an allocation-free backing store for benchmarks: completions
// are tracked in a fixed ring and fired through the DoneSink path, the same
// way a real lower level answers forwarded misses.
type benchLower struct {
	delay uint64
	pend  [256]struct {
		at    uint64
		sink  DoneSink
		token uint64
	}
	n int
}

func (f *benchLower) AcceptRead(r *Req, cycle uint64) bool {
	if f.n >= len(f.pend) {
		return false
	}
	if r.Sink != nil {
		f.pend[f.n].at = cycle + f.delay
		f.pend[f.n].sink = r.Sink
		f.pend[f.n].token = r.Token
		f.n++
	}
	return true
}

func (f *benchLower) AcceptWrite(r *Req, cycle uint64) bool { return true }

func (f *benchLower) Promote(line uint64) {}

func (f *benchLower) tick(cycle uint64) {
	for i := 0; i < f.n; {
		if f.pend[i].at <= cycle {
			sink, tok := f.pend[i].sink, f.pend[i].token
			f.n--
			f.pend[i] = f.pend[f.n]
			sink.ReqDone(tok, cycle)
		} else {
			i++
		}
	}
}

// benchSink discards demand completions (the benchmark measures the cache,
// not a core model).
type benchSink struct{}

func (benchSink) ReqDone(token, cycle uint64) {}

// tickScenario is one steady-state cache workload: a warmed cache behind a
// benchLower and the per-cycle step that drives it.
type tickScenario struct {
	name string
	step func()
}

// tickScenarios builds the cache pipeline workloads the hot-path pins
// cover, each warmed up (tables, rings, waiter pool at their high-water
// marks):
//   - mixed: demand/prefetch/store traffic over a 2048-line footprint
//     against a 512-line cache, 40-cycle lower level;
//   - mshr-pressure: two new demand misses per cycle over a footprint far
//     larger than the cache, answered at a 12-cycle (L2-hit) latency, so
//     the MSHR file stays nearly full of fills in flight and a fill lands
//     almost every cycle;
//   - llc-cold: the Table II LLC (2048 sets x 16 ways, DRRIP, 64 MSHRs)
//     behind a 100-cycle lower level, with demand reads, stores and L2
//     prefetches that touch one set in eight: 7/8 of the tag array stays
//     invalid while the touched sets hit, miss, evict and run the DRRIP
//     victim search.
func tickScenarios() []tickScenario {
	cfg := Config{
		Name: "B", Level: L1D,
		SizeBytes: 32 * 1024, Ways: 8, LatencyCyc: 4,
		MSHRs: 16, RQSize: 16, WQSize: 16, PQSize: 16,
		ReadPorts: 2, WritePorts: 1, Repl: LRU,
	}
	var sink benchSink
	mixed := func() func() {
		f := &benchLower{delay: 40}
		c := MustNew(cfg, f)
		s := uint64(0x9e3779b97f4a7c15)
		cycle := uint64(0)
		return func() {
			s = s*6364136223846793005 + 1442695040888963407
			line := 0x4000 + (s>>33)%2048 // 2048-line footprint vs 512-line cache
			if s&3 != 3 {
				c.AcceptDemand(&Req{
					LineAddr: line, VLineAddr: line,
					Store: s&15 == 5, Sink: sink, Token: s,
				}, cycle)
			}
			if s&7 == 1 {
				c.EnqueuePrefetches([]PrefetchReq{{LineAddr: line + 1, FillLevel: L1D}}, cycle, 0)
			}
			f.tick(cycle)
			c.Tick(cycle)
			cycle++
		}
	}
	pressure := func() func() {
		f := &benchLower{delay: 12}
		c := MustNew(cfg, f)
		s := uint64(0x9e3779b97f4a7c15)
		cycle := uint64(0)
		return func() {
			for i := 0; i < 2; i++ {
				s = s*6364136223846793005 + 1442695040888963407
				line := 0x4000 + (s>>33)%(1<<16) // 64Ki-line footprint: nearly all misses
				c.AcceptDemand(&Req{LineAddr: line, VLineAddr: line, Sink: sink, Token: s}, cycle)
			}
			f.tick(cycle)
			c.Tick(cycle)
			cycle++
		}
	}
	llcCold := func() func() {
		llc := Config{
			Name: "LLC", Level: LLC,
			SizeBytes: 2 * 1024 * 1024, Ways: 16, LatencyCyc: 20,
			MSHRs: 64, RQSize: 48, WQSize: 48, PQSize: 32,
			ReadPorts: 1, WritePorts: 1, Repl: DRRIP,
		}
		f := &benchLower{delay: 100}
		c := MustNew(llc, f)
		s := uint64(0x9e3779b97f4a7c15)
		cycle := uint64(0)
		return func() {
			s = s*6364136223846793005 + 1442695040888963407
			line := 0x10000 + ((s>>33)%8192)*8 // 8192 lines over 256 of the 2048 sets
			switch s & 3 {
			case 0, 1, 2:
				c.AcceptRead(&Req{LineAddr: line, Store: s&28 == 4, FillLevel: L2, Sink: sink, Token: s}, cycle)
			case 3:
				c.AcceptRead(&Req{LineAddr: line ^ 0x40, IsPrefetch: true, FillLevel: L2}, cycle)
			}
			f.tick(cycle)
			c.Tick(cycle)
			cycle++
		}
	}
	var out []tickScenario
	for _, sc := range []struct {
		name  string
		build func() func()
	}{{"mixed", mixed}, {"mshr-pressure", pressure}, {"llc-cold", llcCold}} {
		step := sc.build()
		for i := 0; i < 50_000; i++ { // warm: tables, rings, waiter pool
			step()
		}
		out = append(out, tickScenario{sc.name, step})
	}
	return out
}

// BenchmarkCacheTick measures the steady-state per-cycle cost of the full
// cache pipeline — fills, writes, reads, prefetches, sendQ drain — for
// each tick scenario (make bench-cache).
func BenchmarkCacheTick(b *testing.B) {
	for _, sc := range tickScenarios() {
		b.Run(sc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sc.step()
			}
		})
	}
}

// TestCacheTickZeroAllocSteadyState pins the benchmark's property as a
// regular test: the warmed cache pipeline allocates nothing per cycle in
// any tick scenario.
func TestCacheTickZeroAllocSteadyState(t *testing.T) {
	for _, sc := range tickScenarios() {
		if avg := testing.AllocsPerRun(2000, sc.step); avg != 0 {
			t.Fatalf("%s: %.3f allocs per cycle in steady state, want 0", sc.name, avg)
		}
	}
}
