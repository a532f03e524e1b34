package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"github.com/bertisim/berti/internal/check"
)

// refLine is the per-way view the replaced lookups walked: address and
// validity beside the replacement state, all in one struct.
type refLine struct {
	addr  uint64
	valid bool
	lru   uint64
	rrpv  uint8
}

// refSet rebuilds the line-walk view of lineAddr's set, located by the
// replaced % index, and returns it with the index of its first way.
func refSet(c *Cache, lineAddr uint64) ([]refLine, int) {
	base := int(lineAddr%uint64(c.sets)) * c.cfg.Ways
	set := make([]refLine, c.cfg.Ways)
	for i := range set {
		t, l := c.tags[base+i], &c.lines[base+i]
		set[i] = refLine{addr: t - 1, valid: t != 0, lru: l.lru, rrpv: l.rrpv}
	}
	return set, base
}

// The replaced probe and victim, kept as the oracle: a walk over whole
// line structs of the set the % index picks.

func refProbe(c *Cache, lineAddr uint64) int {
	set, base := refSet(c, lineAddr)
	for i := range set {
		if set[i].valid && set[i].addr == lineAddr {
			return base + i
		}
	}
	return -1
}

// refVictim returns the victim way and the set as the search left it (the
// SRRIP/DRRIP search ages RRPVs).
func refVictim(c *Cache, lineAddr uint64) (int, []refLine) {
	set, base := refSet(c, lineAddr)
	return base + refVictimWay(c.cfg.Repl, set), set
}

func refVictimWay(repl ReplPolicy, set []refLine) int {
	for i := range set {
		if !set[i].valid {
			return i
		}
	}
	switch repl {
	case LRU, FIFO:
		v := 0
		for i := 1; i < len(set); i++ {
			if set[i].lru < set[v].lru {
				v = i
			}
		}
		return v
	case SRRIP, DRRIP:
		for {
			for i := range set {
				if set[i].rrpv >= 3 {
					return i
				}
			}
			for i := range set {
				if set[i].rrpv < 3 {
					set[i].rrpv++
				}
			}
		}
	default:
		return 0
	}
}

// tagCase is one cache geometry the tag-array oracle runs.
type tagCase struct {
	name   string
	cfg    Config
	cycles uint64
	// checkEvery spaces the full CheckInvariants walks (a 6144-set LLC is
	// too large to walk every cycle).
	checkEvery uint64
}

func tagCases() []tagCase {
	small := func(sets int, repl ReplPolicy) Config {
		cfg := testConfig()
		cfg.SizeBytes = sets * cfg.Ways * LineSize
		cfg.MSHRs, cfg.RQSize, cfg.PQSize = 8, 16, 8
		cfg.Repl = repl
		return cfg
	}
	// The Table II LLC scaled by three cores: 6 MB, 16 ways, 6144 sets.
	llc3 := Config{
		Name: "LLC3", Level: LLC,
		SizeBytes: 3 * 2 * 1024 * 1024, Ways: 16, LatencyCyc: 20,
		MSHRs: 64, RQSize: 48, WQSize: 48, PQSize: 32,
		ReadPorts: 2, WritePorts: 2, Repl: DRRIP,
	}
	llc1 := llc3
	llc1.Name, llc1.SizeBytes = "LLC1", 2*1024*1024
	var out []tagCase
	for _, repl := range []ReplPolicy{LRU, SRRIP, DRRIP} {
		out = append(out,
			tagCase{fmt.Sprintf("64sets-%v", repl), small(64, repl), 3000, 1},
			tagCase{fmt.Sprintf("48sets-%v", repl), small(48, repl), 3000, 1})
	}
	out = append(out,
		tagCase{"llc-1core-2048sets", llc1, 3000, 100},
		tagCase{"llc-3core-6144sets", llc3, 3000, 100})
	return out
}

// TestTagArrayMatchesLineScan drives caches at power-of-two and
// non-power-of-two set counts (48 sets, a 6144-set three-core LLC) with
// random demand, prefetch and writeback traffic over out-of-order fills.
// After every cycle the tag-array probe and victim must answer exactly
// what the replaced line walks answer over the same state: the way holding
// each footprint line, and the victim way of each footprint set together
// with the RRPV aging the search leaves behind. setIndex must equal the %
// index for arbitrary addresses.
func TestTagArrayMatchesLineScan(t *testing.T) {
	for _, tc := range tagCases() {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(tc.name)) * 7919))
			f := &jitterLower{rng: rng, maxLat: 1 + rng.Intn(60)}
			c := MustNew(tc.cfg, f)
			c.SetFaultHook(jitterHook{rng: rng})
			sets := uint64(c.sets)
			if (sets&(sets-1) == 0) != c.setsPow2 {
				t.Fatalf("sets=%d: setsPow2=%v", sets, c.setsPow2)
			}
			// A footprint that overflows a few sets (evictions and victim
			// choice under pressure) plus lines scattered across the whole
			// address space (large addresses exercise the index).
			base := uint64(1)<<40 + uint64(rng.Int63n(1<<20))
			var footprint []uint64
			for i := 0; i < 160; i++ {
				footprint = append(footprint, base+uint64(rng.Intn(2*tc.cfg.Ways+4))*sets+uint64(rng.Intn(6)))
			}
			for i := 0; i < 40; i++ {
				footprint = append(footprint, uint64(rng.Int63n(1<<36)))
			}
			ck := check.New()
			for cyc := uint64(0); cyc < tc.cycles; cyc++ {
				f.tick(cyc)
				c.Tick(cyc)
				for n := rng.Intn(4); n > 0; n-- {
					line := footprint[rng.Intn(len(footprint))]
					switch rng.Intn(5) {
					case 0, 1:
						c.AcceptDemand(&Req{LineAddr: line, Store: rng.Intn(4) == 0, OnDone: func(uint64) {}}, cyc)
					case 2:
						c.AcceptRead(&Req{LineAddr: line, IsPrefetch: true, FillLevel: tc.cfg.Level, OnDone: func(uint64) {}}, cyc)
					case 3:
						c.EnqueuePrefetches([]PrefetchReq{{LineAddr: line, FillLevel: tc.cfg.Level}}, cyc, 0)
					case 4:
						c.AcceptWrite(&Req{LineAddr: line, Store: true}, cyc)
					}
				}
				for _, line := range footprint {
					if got, want := c.probeWay(line), refProbe(c, line); got != want {
						t.Fatalf("cycle %d: probeWay(%#x) = %d, line walk %d", cyc, line, got, want)
					}
				}
				for _, addr := range footprint[:24] {
					// victim may age RRPVs: compare on the live set, then
					// restore it so the run itself is not perturbed.
					want, after := refVictim(c, addr)
					sb := c.setBase(addr)
					saved := append([]line(nil), c.lines[sb:sb+c.cfg.Ways]...)
					if got := c.victim(addr); got != want {
						t.Fatalf("cycle %d: victim(%#x) = %d, line walk %d", cyc, addr, got, want)
					}
					for i := range after {
						if c.lines[sb+i].rrpv != after[i].rrpv {
							t.Fatalf("cycle %d: victim(%#x) left way %d at rrpv %d, line walk %d", cyc, addr, i, c.lines[sb+i].rrpv, after[i].rrpv)
						}
					}
					copy(c.lines[sb:], saved)
				}
				for i := 0; i < 8; i++ {
					x := rng.Uint64()
					if got, want := c.setIndex(x), int(x%sets); got != want {
						t.Fatalf("setIndex(%#x) = %d, %% gives %d", x, got, want)
					}
				}
				if cyc%tc.checkEvery == 0 {
					c.CheckInvariants(cyc, 0, ck.Report)
					if ck.Total() != 0 {
						t.Fatalf("cycle %d: %v", cyc, ck.Violations())
					}
				}
			}
			if c.Stats.TotalFills == 0 || c.Stats.DemandHits == 0 || c.Stats.WritebacksIn == 0 {
				t.Fatalf("traffic too thin to mean anything: %+v", c.Stats)
			}
		})
	}
}

// TestTagArrayDoesNotGrowMetadata: the tag array replaces line.addr and
// line.valid, so a way's metadata (tag + line) is no larger than the 48
// bytes a line took when it held its own address and valid bit.
func TestTagArrayDoesNotGrowMetadata(t *testing.T) {
	if got := unsafe.Sizeof(line{}) + unsafe.Sizeof(uint64(0)); got > 48 {
		t.Fatalf("tag + line = %d bytes per way, want <= 48", got)
	}
}

// sweepFills is the replaced processFills, kept as the oracle: a walk of
// every MSHR slot in order, gated by nextFill.
func sweepFills(c *Cache, cycle uint64) {
	if c.nextFill > cycle {
		return
	}
	c.nextFill = never
	for i := range c.mshrs {
		m := &c.mshrs[i]
		if !m.valid || !m.dataReady {
			continue
		}
		if m.readyCycle > cycle {
			if m.readyCycle < c.nextFill {
				c.nextFill = m.readyCycle
			}
			continue
		}
		c.fill(m, cycle)
		c.closeMSHR(i)
	}
}

// sweepTick is Tick with the full-sweep fill stage.
func sweepTick(c *Cache, cycle uint64) {
	sweepFills(c, cycle)
	c.processWrites(cycle)
	c.processReads(cycle)
	c.processPrefetches(cycle)
	c.drainSendQ(cycle)
}

// fillTwin is one side of the fill-order differential: a cache, its own
// jittered lower level and fault hook (same seed on both sides), and the
// completion log.
type fillTwin struct {
	c   *Cache
	f   *jitterLower
	log []completion
}

// completion is one fired callback: which request, at which cycle.
type completion struct{ id, at uint64 }

// completeReentrant completes, from inside a fill's callback, the highest
// MSHR slot still waiting for data — a lower level answering mid-sweep,
// which flips an arrived bit the bitmap sweep has not reached yet.
func (tw *fillTwin) completeReentrant(cycle uint64) {
	for i := len(tw.c.mshrs) - 1; i >= 0; i-- {
		if m := &tw.c.mshrs[i]; m.valid && !m.dataReady {
			tw.c.ReqDone(m.lineAddr, cycle)
			return
		}
	}
}

// TestFillOrderMatchesFullSweep runs two caches in lockstep on the same
// traffic: one fills through the arrived-bitmap sweep, the other through
// the replaced walk of every slot. Fills land out of order, are postponed
// by the fault hook, and some completions re-enter ReqDone mid-sweep. The
// completion log (which request finished, at which cycle, in which order)
// and the whole cache state must agree after every cycle.
func TestFillOrderMatchesFullSweep(t *testing.T) {
	for _, mshrs := range []int{1, 4, 16, 70} {
		for seed := int64(0); seed < 3; seed++ {
			name := fmt.Sprintf("mshrs=%d/seed=%d", mshrs, seed)
			cfg := testConfig()
			cfg.MSHRs, cfg.RQSize, cfg.PQSize = mshrs, 24, 8
			var tw [2]*fillTwin
			for k := range tw {
				rng := rand.New(rand.NewSource(seed*1000 + int64(mshrs)))
				f := &jitterLower{rng: rng, maxLat: 1 + rng.Intn(80)}
				c := MustNew(cfg, f)
				c.SetFaultHook(jitterHook{rng: rng})
				tw[k] = &fillTwin{c: c, f: f}
			}
			traffic := rand.New(rand.NewSource(seed))
			var id uint64
			for cyc := uint64(0); cyc < 4000; cyc++ {
				for _, x := range tw {
					x.f.tick(cyc)
				}
				tw[0].c.Tick(cyc)
				sweepTick(tw[1].c, cyc)
				for n := traffic.Intn(4); n > 0; n-- {
					line := uint64(traffic.Intn(200))
					kind := traffic.Intn(5)
					id++
					reentrant := traffic.Intn(6) == 0
					for _, x := range tw {
						id := id
						done := func(at uint64) {
							x.log = append(x.log, completion{id, at})
							if reentrant {
								x.completeReentrant(at)
							}
						}
						switch kind {
						case 0, 1:
							x.c.AcceptDemand(&Req{LineAddr: line, Store: line%5 == 0, OnDone: done}, cyc)
						case 2:
							x.c.AcceptRead(&Req{LineAddr: line, IsPrefetch: true, OnDone: done}, cyc)
						case 3:
							x.c.EnqueuePrefetches([]PrefetchReq{{LineAddr: line, FillLevel: L1D}}, cyc, 0)
						case 4:
							x.c.AcceptWrite(&Req{LineAddr: line, Store: true}, cyc)
						}
					}
				}
				a, b := tw[0], tw[1]
				if !slices.Equal(a.log, b.log) {
					t.Fatalf("%s cycle %d: completion order diverged:\nbitmap %v\nsweep  %v", name, cyc, a.log, b.log)
				}
				a.log, b.log = a.log[:0], b.log[:0]
				if !slices.Equal(a.c.mshrs, b.c.mshrs) || !slices.Equal(a.c.tags, b.c.tags) ||
					!slices.Equal(a.c.lines, b.c.lines) || a.c.nextFill != b.c.nextFill ||
					!slices.Equal(a.c.mshrArrived, b.c.mshrArrived) || a.c.Stats != b.c.Stats {
					t.Fatalf("%s cycle %d: cache state diverged", name, cyc)
				}
				// A completion re-entering mid-sweep can leave nextFill a
				// stale-low bound in both sweeps (the next tick rebuilds
				// it), so the checker's exact-horizon rule does not apply
				// here; the arrived bitmap is checked directly.
				for i := range a.c.mshrs {
					m := &a.c.mshrs[i]
					if arrived := a.c.mshrArrived[i>>6]&(1<<(i&63)) != 0; arrived != (m.valid && m.dataReady) {
						t.Fatalf("%s cycle %d: slot %d arrived=%v, valid=%v dataReady=%v", name, cyc, i, arrived, m.valid, m.dataReady)
					}
				}
			}
			if fills := tw[0].c.Stats.TotalFills; fills < 100 {
				t.Fatalf("%s: only %d fills", name, fills)
			}
		}
	}
}

// TestCheckInvariantsFlagsTagAndArrivedDrift: a tag moved out of its set
// or duplicated, and an arrived bit out of step with its entry, must each
// trip their rule.
func TestCheckInvariantsFlagsTagAndArrivedDrift(t *testing.T) {
	for _, tc := range []struct {
		name  string
		rule  string
		drift func(c *Cache)
	}{
		// Slot 0 holds an arrived fill not yet due; slot 1 still waits.
		{"arrived-bit-cleared", check.RuleMSHRIndex, func(c *Cache) { c.mshrArrived[0] &^= 1 }},
		{"arrived-bit-set", check.RuleMSHRIndex, func(c *Cache) { c.mshrArrived[0] |= 2 }},
		{"tag-wrong-set", check.RuleSetMap, func(c *Cache) {
			w := c.probeWay(5)
			c.tags[w]++ // line 6 now sits in line 5's set
		}},
		{"tag-duplicated", check.RuleDupTag, func(c *Cache) {
			w := c.probeWay(5)
			sb := c.setBase(5)
			c.tags[sb+(w-sb+1)%c.cfg.Ways] = c.tags[w]
		}},
	} {
		f := &fakeLower{delay: 50}
		c := MustNew(testConfig(), f)
		c.AcceptDemand(&Req{LineAddr: 5, OnDone: func(uint64) {}}, 0)
		end := runCache(c, f, 0, 60) // line 5 resident
		c.AcceptDemand(&Req{LineAddr: 9, OnDone: func(uint64) {}}, end)
		c.AcceptDemand(&Req{LineAddr: 11, OnDone: func(uint64) {}}, end)
		end = runCache(c, f, end, 3)
		c.ReqDone(9, end+100) // arrived, due later
		ck := check.New()
		c.CheckInvariants(end, 0, ck.Report)
		if ck.Total() != 0 || c.mshrArrived[0] != 1 || !c.Contains(5) {
			t.Fatalf("%s: unexpected healthy state: arrived=%b resident=%v %v", tc.name, c.mshrArrived[0], c.Contains(5), ck.Violations())
		}
		tc.drift(c)
		c.CheckInvariants(end, 0, ck.Report)
		if ck.CountByRule(tc.rule) == 0 {
			t.Fatalf("%s drift not flagged as %s: %v", tc.name, tc.rule, ck.Violations())
		}
	}
}
