package cache

import (
	"math/rand"
	"testing"

	"github.com/bertisim/berti/internal/check"
)

// The linear scans the MSHR index replaced, kept verbatim as the oracle.

func linearFindMSHR(c *Cache, lineAddr uint64) *mshr {
	for i := range c.mshrs {
		if c.mshrs[i].valid && c.mshrs[i].lineAddr == lineAddr {
			return &c.mshrs[i]
		}
	}
	return nil
}

func linearAllocMSHR(c *Cache) *mshr {
	for i := range c.mshrs {
		if !c.mshrs[i].valid {
			return &c.mshrs[i]
		}
	}
	return nil
}

func linearMSHROccupancy(c *Cache) int {
	n := 0
	for i := range c.mshrs {
		if c.mshrs[i].valid {
			n++
		}
	}
	return n
}

// jitterLower answers each forwarded miss after its own random delay, so
// fills land out of order and several arrive in the same cycle.
type jitterLower struct {
	rng     *rand.Rand
	maxLat  int
	pending []pendingResp
}

func (f *jitterLower) AcceptRead(r *Req, cycle uint64) bool {
	if f.rng.Intn(10) == 0 {
		return false // occasional backpressure
	}
	if r.Sink != nil {
		sink, tok := r.Sink, r.Token
		at := cycle + 1 + uint64(f.rng.Intn(f.maxLat))
		f.pending = append(f.pending, pendingResp{at: at, cb: func(cyc uint64) { sink.ReqDone(tok, cyc) }})
	}
	return true
}

func (f *jitterLower) AcceptWrite(r *Req, cycle uint64) bool { return true }
func (f *jitterLower) Promote(line uint64)                   {}

func (f *jitterLower) tick(cycle uint64) {
	for i := 0; i < len(f.pending); {
		if f.pending[i].at <= cycle {
			f.pending[i].cb(cycle)
			f.pending = append(f.pending[:i], f.pending[i+1:]...)
		} else {
			i++
		}
	}
}

// jitterHook postpones a random share of fills by a random amount, so a
// fill's ready cycle can lie far beyond the cycle it arrived.
type jitterHook struct{ rng *rand.Rand }

func (h jitterHook) FillFault(uint64, bool, uint64) (bool, uint64) {
	if h.rng.Intn(4) == 0 {
		return false, uint64(h.rng.Intn(40))
	}
	return false, 0
}

// TestMSHRIndexMatchesLinearScan drives caches of several MSHR file sizes
// (including one spanning two bitmap words) with random demand, prefetch
// and writeback traffic over out-of-order fills, and checks after every
// cycle that the index answers exactly what the replaced scans answer:
// find for every line in the footprint, lowest-free allocation, occupancy,
// and — through CheckInvariants — the free bitmap, live counter and fill
// horizon against a walk of the file.
func TestMSHRIndexMatchesLinearScan(t *testing.T) {
	for _, mshrs := range []int{1, 4, 16, 70} {
		for seed := int64(0); seed < 3; seed++ {
			rng := rand.New(rand.NewSource(seed*100 + int64(mshrs)))
			f := &jitterLower{rng: rng, maxLat: 1 + rng.Intn(80)}
			cfg := testConfig()
			cfg.MSHRs = mshrs
			cfg.RQSize, cfg.PQSize = 16, 8
			c := MustNew(cfg, f)
			c.SetFaultHook(jitterHook{rng: rng})
			const lines = 160
			ck := check.New()
			for cyc := uint64(0); cyc < 4000; cyc++ {
				f.tick(cyc)
				if cyc%97 == 0 {
					// A repeated completion for a line in flight moves its
					// ready cycle: the fill horizon must follow.
					for i := range c.mshrs {
						if m := &c.mshrs[i]; m.valid && m.dataReady {
							c.ReqDone(m.lineAddr, cyc+uint64(rng.Intn(20)))
							break
						}
					}
				}
				c.Tick(cyc)
				for n := rng.Intn(3); n > 0; n-- {
					line := uint64(rng.Intn(lines))
					switch rng.Intn(5) {
					case 0, 1:
						c.AcceptDemand(&Req{LineAddr: line, Store: rng.Intn(4) == 0, OnDone: func(uint64) {}}, cyc)
					case 2:
						c.AcceptRead(&Req{LineAddr: line, IsPrefetch: true, OnDone: func(uint64) {}}, cyc)
					case 3:
						c.EnqueuePrefetches([]PrefetchReq{{LineAddr: line, FillLevel: L1D}}, cyc, 0)
					case 4:
						c.AcceptWrite(&Req{LineAddr: line, Store: true}, cyc)
					}
				}
				for line := uint64(0); line < lines; line++ {
					if got, want := c.findMSHR(line), linearFindMSHR(c, line); got != want {
						t.Fatalf("mshrs=%d seed=%d cycle %d: findMSHR(%d) = %p, linear scan %p", mshrs, seed, cyc, line, got, want)
					}
				}
				if got, want := c.freeMSHR(), slotOf(c, linearAllocMSHR(c)); got != want {
					t.Fatalf("mshrs=%d seed=%d cycle %d: freeMSHR = %d, first free slot %d", mshrs, seed, cyc, got, want)
				}
				if got, want := c.MSHROccupancy(), linearMSHROccupancy(c); got != want {
					t.Fatalf("mshrs=%d seed=%d cycle %d: occupancy %d, linear count %d", mshrs, seed, cyc, got, want)
				}
				c.CheckInvariants(cyc, 0, ck.Report)
				if ck.Total() != 0 {
					t.Fatalf("mshrs=%d seed=%d cycle %d: %v", mshrs, seed, cyc, ck.Violations())
				}
			}
		}
	}
}

// slotOf returns m's slot in c's MSHR file (-1 for nil).
func slotOf(c *Cache, m *mshr) int {
	for i := range c.mshrs {
		if &c.mshrs[i] == m {
			return i
		}
	}
	return -1
}

// TestCheckInvariantsFlagsMSHRIndexDrift: each piece of MSHR bookkeeping,
// knocked out of step with the entries, must trip the mshr-index rule.
func TestCheckInvariantsFlagsMSHRIndexDrift(t *testing.T) {
	f := &fakeLower{delay: 50}
	for _, tc := range []struct {
		name  string
		drift func(c *Cache)
	}{
		{"bitmap", func(c *Cache) { c.mshrFree[0] ^= 1 }},
		{"live", func(c *Cache) { c.mshrLive++ }},
		{"index", func(c *Cache) { c.mshrIdx.put(c.mshrs[0].lineAddr, 2) }},
		{"nextFill", func(c *Cache) { c.nextFill = 7 }},
	} {
		c := MustNew(testConfig(), f)
		c.AcceptDemand(&Req{LineAddr: 9, OnDone: func(uint64) {}}, 0)
		c.AcceptDemand(&Req{LineAddr: 11, OnDone: func(uint64) {}}, 0)
		runCache(c, f, 0, 3)
		ck := check.New()
		c.CheckInvariants(3, 0, ck.Report)
		if ck.Total() != 0 {
			t.Fatalf("%s: healthy file flagged: %v", tc.name, ck.Violations())
		}
		tc.drift(c)
		c.CheckInvariants(3, 0, ck.Report)
		if ck.CountByRule(check.RuleMSHRIndex) == 0 {
			t.Fatalf("%s drift not flagged: %v", tc.name, ck.Violations())
		}
	}
}
