package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/bertisim/berti/internal/cache"
	"github.com/bertisim/berti/internal/check"
	"github.com/bertisim/berti/internal/core"
	"github.com/bertisim/berti/internal/trace"
)

// The issue stage the wakeup lists replaced, kept as the oracle: every
// cycle it rescanned the unissued memory operations in program order.

// refPend lists the ROB slots of unissued memory operations in program
// order — the pend list the rescanning issue stage maintained.
func refPend(c *Core) []int32 {
	var pend []int32
	i := c.robHead
	for n := 0; n < c.robCount; n++ {
		if e := &c.rob[i]; e.isMem && !e.issued {
			pend = append(pend, int32(i))
		}
		i = (i + 1) % len(c.rob)
	}
	return pend
}

// refIssue is the rescanning issue stage.
func refIssue(c *Core, cycle uint64) {
	loads := c.cfg.LoadPorts
	stores := c.cfg.StorePorts
	for _, slot := range refPend(c) {
		if loads == 0 && stores == 0 {
			break
		}
		e := &c.rob[slot]
		if e.kind == trace.Load && loads == 0 {
			continue
		}
		if e.kind == trace.Store && stores == 0 {
			continue
		}
		if e.dep != 0 {
			s := (e.dep - 1) % depWindow
			if !c.depReady[s] || c.depDone[s] > cycle {
				continue
			}
		}
		if !c.tryIssue(e, slot, cycle) {
			break
		}
		if e.kind == trace.Load {
			loads--
		} else {
			stores--
		}
	}
}

// refIssueHorizon is the issue part of the rescanning NextEventCycle.
func refIssueHorizon(c *Core, now uint64) uint64 {
	h := Never
	for _, slot := range refPend(c) {
		e := &c.rob[slot]
		if e.dep != 0 {
			s := (e.dep - 1) % depWindow
			if !c.depReady[s] {
				continue
			}
			if d := c.depDone[s]; d > now {
				if d < h {
					h = d
				}
				continue
			}
		}
		return now
	}
	return h
}

// tickRef is Machine.tick with the cores running the rescanning issue
// stage.
func tickRef(m *Machine) {
	m.dramC.Tick(m.cycle)
	m.llc.Tick(m.cycle)
	for i := range m.l2s {
		m.l2s[i].Tick(m.cycle)
	}
	for i := range m.l1ds {
		m.l1ds[i].Tick(m.cycle)
	}
	for _, c := range m.cores {
		c.Stats.Cycles++
		c.retire(m.cycle)
		c.dispatch(m.cycle)
		refIssue(c, m.cycle)
	}
	m.cycle++
}

// farDepTrace is randomTrace with dependence distances spread over the
// whole uint8 range.
func farDepTrace(rng *rand.Rand, n int) *trace.Slice {
	tr := randomTrace(rng, n)
	for i := range tr.Records {
		if rng.Intn(3) == 0 {
			tr.Records[i].DepDist = uint8(1 + rng.Intn(255))
		}
	}
	return tr
}

// denseFarDepTrace is farDepTrace with no non-memory instructions, so a
// window larger than depWindow holds more memory records than the
// dependence window tracks: a consumer's dependence slot can be taken by
// a later record while the consumer still waits.
func denseFarDepTrace(rng *rand.Rand, n int) *trace.Slice {
	tr := farDepTrace(rng, n)
	for i := range tr.Records {
		tr.Records[i].NonMemBefore = 0
	}
	return tr
}

// TestWakeupIssueMatchesRescan runs each configuration twice in lockstep —
// once with the wakeup-driven issue stage, once with the rescanning one —
// and requires identical ROB contents, dependence window, and L1D state
// after every cycle, plus an identical issue horizon. One configuration
// uses a window larger than depWindow with far dependences, where a
// woken consumer's dependence slot gets recycled before it issues.
func TestWakeupIssueMatchesRescan(t *testing.T) {
	type tc struct {
		name     string
		rob      int
		loads    int
		stores   int
		rq       int
		berti    bool
		trace    func(*rand.Rand, int) *trace.Slice
		recycles bool
	}
	cases := []tc{
		{name: "default", rob: 352, loads: 2, stores: 1, rq: 64, trace: randomTrace},
		{name: "berti-narrow-rq", rob: 352, loads: 3, stores: 2, rq: 2, berti: true, trace: randomTrace},
		{name: "one-port", rob: 128, loads: 1, stores: 1, rq: 4, trace: farDepTrace},
		{name: "recycled-dep-slots", rob: 1400, loads: 1, stores: 1, rq: 4, trace: denseFarDepTrace, recycles: true},
	}
	seeds := int64(2)
	if testing.Short() {
		seeds = 1
	}
	for _, k := range cases {
		for seed := int64(1); seed <= seeds; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", k.name, seed), func(t *testing.T) {
				t.Parallel()
				tr := k.trace(rand.New(rand.NewSource(seed)), 6_000)
				cfg := DefaultConfig()
				cfg.WarmupInstructions = 0
				cfg.Core.ROBSize = k.rob
				cfg.Core.LoadPorts, cfg.Core.StorePorts = k.loads, k.stores
				cfg.L1D.RQSize = k.rq
				cfg.L1D.SizeBytes = 12 * 1024
				cfg.L2.SizeBytes = 64 * 1024
				cfg.LLC.SizeBytes = 256 * 1024
				var pf PrefetcherFactory
				if k.berti {
					pf = func() cache.Prefetcher { return core.New(core.DefaultConfig()) }
				}
				a := MustNew(cfg, []trace.Reader{trace.NewLoopReader(tr)}, pf, nil)
				b := MustNew(cfg, []trace.Reader{trace.NewLoopReader(tr)}, pf, nil)
				ca, cb := a.cores[0], b.cores[0]
				recycled := 0
				for a.cycle < 40_000 {
					for s := ca.nextReady(-1); s >= 0; s = ca.nextReady(s) {
						if e := &ca.rob[s]; e.dep != 0 && !ca.depReady[(e.dep-1)%depWindow] {
							recycled++
						}
					}
					a.tick()
					tickRef(b)
					if got, want := ca.issueHorizon(a.cycle), refIssueHorizon(ca, a.cycle); got != want {
						t.Fatalf("cycle %d: issue horizon %d, rescan says %d", a.cycle, got, want)
					}
					if err := sameCoreState(ca, cb); err != nil {
						t.Fatalf("cycle %d: %v", a.cycle, err)
					}
					if qa, qb := a.l1ds[0].Queues(), b.l1ds[0].Queues(); qa != qb || a.l1ds[0].Stats != b.l1ds[0].Stats {
						t.Fatalf("cycle %d: L1D diverged: %+v vs %+v", a.cycle, qa, qb)
					}
					if a.cycle%4096 == 0 {
						ck := check.New()
						ca.CheckInvariants("core.0", a.cycle, ck.Report)
						if ck.Total() != 0 {
							t.Fatalf("cycle %d: %v", a.cycle, ck.Violations())
						}
					}
				}
				if ca.RetiredTotal < 2_000 {
					t.Fatalf("only %d instructions retired: the trace barely ran", ca.RetiredTotal)
				}
				if k.recycles && recycled == 0 {
					t.Fatal("no woken consumer ever found its dependence slot recycled")
				}
				if da, db := observableDigest(a), observableDigest(b); da != db {
					t.Fatalf("final state diverged:\nwakeup:\n%s\nrescan:\n%s", da, db)
				}
			})
		}
	}
}

// sameCoreState compares everything the issue stage reads or writes.
func sameCoreState(a, b *Core) error {
	if a.robHead != b.robHead || a.robTail != b.robTail || a.robCount != b.robCount || a.robInstrs != b.robInstrs {
		return fmt.Errorf("ROB ring differs: head %d/%d tail %d/%d count %d/%d instrs %d/%d",
			a.robHead, b.robHead, a.robTail, b.robTail, a.robCount, b.robCount, a.robInstrs, b.robInstrs)
	}
	for i := range a.rob {
		if a.rob[i] != b.rob[i] {
			return fmt.Errorf("ROB slot %d differs:\nwakeup %+v\nrescan %+v", i, a.rob[i], b.rob[i])
		}
	}
	if a.depDone != b.depDone || a.depReady != b.depReady {
		return fmt.Errorf("dependence window differs")
	}
	if a.RetiredTotal != b.RetiredTotal || a.memRecords != b.memRecords || a.Stats != b.Stats || a.IssueBlocked != b.IssueBlocked {
		return fmt.Errorf("counters differ: retired %d/%d records %d/%d stats %+v/%+v",
			a.RetiredTotal, b.RetiredTotal, a.memRecords, b.memRecords, a.Stats, b.Stats)
	}
	return nil
}
