package sim

import (
	"fmt"
	"io"
	"math/bits"

	"github.com/bertisim/berti/internal/cache"
	"github.com/bertisim/berti/internal/check"
	"github.com/bertisim/berti/internal/stats"
	"github.com/bertisim/berti/internal/trace"
	"github.com/bertisim/berti/internal/vm"
)

// robEntry is one reorder-buffer slot. Non-memory instructions between
// memory operations are aggregated into a single entry with a count, which
// preserves window-occupancy and retire-bandwidth semantics at a fraction
// of the bookkeeping cost.
type robEntry struct {
	nonMem uint32 // >0: aggregated run of non-memory instructions
	isMem  bool
	kind   trace.Kind
	vaddr  uint64
	ip     uint64
	recIdx uint64 // global memory-record index (dependence tracking)
	dep    uint64 // producer record index + 1 (0 = independent)

	issued    bool
	issuedAt  uint64 // issue cycle (load-latency bucketing on completion)
	done      bool
	doneCycle uint64
}

// depWindow tracks completion cycles of recent memory records so dependent
// accesses (pointer chases) serialize behind their producers.
const depWindow = 1024

// storeTokenBit distinguishes store completion tokens from load tokens.
// Loads complete before their ROB slot can be reused, so the slot index is
// the token; stores retire immediately and their slot may be recycled
// before the fill lands, so the token carries the record index instead.
const storeTokenBit = uint64(1) << 63

// Core is the trace-driven out-of-order core approximation: a 352-entry
// instruction window filled at issue-width, memory operations issued
// through limited L1D ports, in-order retirement at retire-width.
type Core struct {
	ID     int
	cfg    CoreConfig
	reader trace.Reader
	mmu    *vm.MMU
	l1d    *cache.Cache

	rob       []robEntry
	robHead   int
	robTail   int
	robCount  int // entries
	robInstrs int // instructions occupying the window
	// Every unissued memory operation is in exactly one of two places, so
	// issue touches only operations that may issue this cycle instead of
	// rescanning every unissued one. ROB slots are stable while an entry
	// is unissued: it cannot retire, and nothing ahead of it can pop past.
	//
	// ready has one bit per ROB slot, walked in ROB-age order (ring order
	// from robHead). It holds independent operations and consumers whose
	// dependence slot has reported a completion. Readiness is re-checked
	// at issue time: a completion still in the future keeps the entry
	// here, and a dependence slot recycled by a later record since the
	// wakeup parks it again.
	ready []uint64
	// waitHead[s] heads the list of consumers parked on dependence slot s
	// (ROB slot+1, linked through waitNext; 0 ends it). An entry is parked
	// only while depReady[s] is false, and ReqDone for s moves the whole
	// list into ready.
	waitHead [depWindow]int32
	waitNext []int32

	// pending is the next trace record being dispatched (nonMem first).
	pending       trace.Record
	pendingValid  bool
	pendingNonMem uint32
	traceDone     bool
	// err records a non-EOF trace-reader failure; the core stops
	// dispatching and the engine surfaces it as the run error.
	err error

	memRecords uint64 // global memory-record counter
	depDone    [depWindow]uint64
	depReady   [depWindow]bool

	Stats stats.CoreStats
	// RetiredTotal counts instructions retired since construction
	// (Stats.Instructions is reset after warmup).
	RetiredTotal uint64
	// IssueBlocked counts issue attempts refused by a full L1D RQ.
	IssueBlocked uint64
	// DepBlocked counts issue attempts on a woken consumer that found its
	// producer's data not yet available (or its dependence slot recycled).
	// Consumers parked on an in-flight producer are not attempted, so they
	// do not count.
	DepBlocked uint64
	// LoadLatHist buckets load issue->complete latencies by power of two
	// (diagnostics).
	LoadLatHist [20]uint64
	// DispatchToIssue accumulates dispatch->issue delay (diagnostics).
	issueDelaySum uint64
	// FinishedCycle is set when RetiredTotal first reaches its target.
	finishTarget  uint64
	FinishedCycle uint64
	Finished      bool
}

// NewCore builds a core bound to its trace, MMU, and L1D.
func NewCore(id int, cfg CoreConfig, rd trace.Reader, mmu *vm.MMU, l1d *cache.Cache) *Core {
	return &Core{
		ID:       id,
		cfg:      cfg,
		reader:   rd,
		mmu:      mmu,
		l1d:      l1d,
		rob:      make([]robEntry, cfg.ROBSize+1),
		ready:    make([]uint64, (cfg.ROBSize+64)/64),
		waitNext: make([]int32, cfg.ROBSize+1),
	}
}

// SetFinishTarget arms FinishedCycle at the given total retired count.
func (c *Core) SetFinishTarget(totalInstructions uint64) {
	c.finishTarget = totalInstructions
}

// Tick advances the core one cycle: retire, dispatch, issue.
func (c *Core) Tick(cycle uint64) {
	c.Stats.Cycles++
	c.retire(cycle)
	c.dispatch(cycle)
	c.issue(cycle)
}

// NextEventCycle reports the earliest future cycle at which the core can
// change state on its own: retiring the head entry, dispatching from the
// trace, or issuing a memory operation whose producer's completion cycle is
// already known. A core blocked on an in-flight fill reports no horizon for
// it — the completion is the owning cache's event, and the engine re-queries
// after every executed tick. Diagnostic counters that are not part of the
// result surface (DepBlocked, IssueBlocked, LoadLatHist) are allowed to
// diverge across skipped cycles; the counters in Stats are reconciled by
// creditSkip.
func (c *Core) NextEventCycle(now uint64) uint64 {
	h := Never
	if c.robCount > 0 {
		e := &c.rob[c.robHead]
		if !e.isMem {
			return now // a non-mem run at the head retires next tick
		}
		if e.done {
			if e.doneCycle <= now {
				return now
			}
			if e.doneCycle < h {
				h = e.doneCycle
			}
		}
	}
	// Dispatch: reading the next trace record is itself a state change, so
	// only a full window with a record already pending is dispatch-quiescent.
	if !c.traceDone && !c.pendingValid {
		return now
	}
	if c.pendingValid && c.robInstrs < c.cfg.ROBSize {
		return now
	}
	if i := c.issueHorizon(now); i < h {
		h = i
	}
	return h
}

// issueHorizon is the issue stage's share of NextEventCycle. Parked
// consumers wait on a producer still in flight — the cache's event. Of the
// ready entries, a completed producer with a future completion cycle
// schedules the consumer's issue.
func (c *Core) issueHorizon(now uint64) uint64 {
	h := Never
	for slot := c.nextReady(-1); slot >= 0; slot = c.nextReady(slot) {
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
		return now // issuable (ports and RQ willing — both per-tick events)
	}
	return h
}

// creditSkip accounts n skipped no-op cycles in the counters SchedTicked
// would have advanced every tick: the cycle count, and the ROB-full stall
// count when the core is stalled with a record pending (the condition
// dispatch re-evaluates per cycle; it cannot change across a quiescent
// window because retirement and dispatch are both events).
func (c *Core) creditSkip(n uint64) {
	c.Stats.Cycles += n
	if c.pendingValid && c.robInstrs >= c.cfg.ROBSize {
		c.Stats.ROBFullStalls += n
	}
}

// Done reports whether the core has exhausted its trace and window.
func (c *Core) Done() bool {
	return c.traceDone && !c.pendingValid && c.robCount == 0
}

// Err returns the trace-reader failure that stopped this core, if any.
func (c *Core) Err() error { return c.err }

// CheckInvariants verifies the reorder buffer's accounting: the occupancy
// counters must agree with the entries actually present in the ring, the
// aggregated instruction count must match a fresh walk, and the ready set
// and the wait lists together must name each unissued memory entry
// exactly once, with every parked entry on its own dependence slot while
// that slot's producer is in flight. It never mutates state.
func (c *Core) CheckInvariants(name string, cycle uint64, report func(check.Violation)) {
	if c.robCount < 0 || c.robCount >= len(c.rob) {
		report(check.Violation{Rule: check.RuleROBAccounting, Component: name, Cycle: cycle,
			Detail: fmt.Sprintf("robCount %d outside ring of %d slots", c.robCount, len(c.rob))})
		return
	}
	bad := func(format string, args ...any) {
		report(check.Violation{Rule: check.RuleROBAccounting, Component: name, Cycle: cycle,
			Detail: fmt.Sprintf(format, args...)})
	}
	// listed counts how often each ROB slot appears in the ready set or a
	// wait list.
	listed := make([]int, len(c.rob))
	for slot := range c.rob {
		if c.isReady(slot) {
			listed[slot]++
		}
	}
	for s := range c.waitHead {
		for id, n := c.waitHead[s], 0; id != 0; id = c.waitNext[id-1] {
			if n++; n > len(c.rob) {
				bad("wait list of dependence slot %d does not terminate", s)
				return
			}
			slot := int(id - 1)
			listed[slot]++
			e := &c.rob[slot]
			if c.depReady[s] {
				bad("ROB slot %d parked on dependence slot %d, whose producer has completed", slot, s)
			}
			if e.dep == 0 || int((e.dep-1)%depWindow) != s {
				bad("ROB slot %d parked on dependence slot %d, but it depends on record %d", slot, s, e.dep)
			}
		}
	}
	instrs := 0
	i := c.robHead
	for n := 0; n < c.robCount; n++ {
		e := &c.rob[i]
		instrs += c.entryInstrs(e)
		want := 0
		if e.isMem && !e.issued {
			want = 1
		}
		if listed[i] != want {
			bad("ROB slot %d (mem=%v issued=%v) is listed %d times for issue, want %d", i, e.isMem, e.issued, listed[i], want)
		}
		listed[i] = 0
		i = (i + 1) % len(c.rob)
	}
	if instrs != c.robInstrs {
		bad("robInstrs counter %d, ring walk says %d", c.robInstrs, instrs)
	}
	for slot, n := range listed {
		if n != 0 {
			bad("free ROB slot %d is listed %d times for issue", slot, n)
		}
	}
}

func (c *Core) retire(cycle uint64) {
	budget := c.cfg.RetireWidth
	for budget > 0 && c.robCount > 0 {
		e := &c.rob[c.robHead]
		if e.nonMem > 0 {
			n := uint32(budget)
			if n > e.nonMem {
				n = e.nonMem
			}
			e.nonMem -= n
			c.robInstrs -= int(n)
			budget -= int(n)
			c.retired(uint64(n), cycle)
			if e.nonMem > 0 {
				return
			}
			c.popHead()
			continue
		}
		// Memory instruction: must be complete.
		if !e.done || e.doneCycle > cycle {
			return
		}
		budget--
		c.retired(1, cycle)
		c.popHead()
	}
}

func (c *Core) retired(n, cycle uint64) {
	c.Stats.Instructions += n
	c.RetiredTotal += n
	if !c.Finished && c.finishTarget > 0 && c.RetiredTotal >= c.finishTarget {
		c.Finished = true
		c.FinishedCycle = cycle
	}
}

func (c *Core) popHead() {
	c.robInstrs -= c.entryInstrs(&c.rob[c.robHead])
	c.rob[c.robHead] = robEntry{}
	c.robHead = (c.robHead + 1) % len(c.rob)
	c.robCount--
}

func (c *Core) entryInstrs(e *robEntry) int {
	if e.isMem {
		return 1
	}
	return int(e.nonMem)
}

// dispatch brings up to IssueWidth instructions into the window.
func (c *Core) dispatch(cycle uint64) {
	budget := c.cfg.IssueWidth
	for budget > 0 {
		if !c.pendingValid {
			if c.traceDone {
				return
			}
			rec, err := c.reader.Next()
			if err != nil {
				// EOF ends the trace cleanly; anything else (a corrupt
				// stream read lazily) stops this core and is surfaced by
				// the engine as the run error.
				if err != io.EOF {
					c.err = err
				}
				c.traceDone = true
				return
			}
			c.pending = rec
			c.pendingNonMem = rec.NonMemBefore
			c.pendingValid = true
		}
		if c.robInstrs >= c.cfg.ROBSize {
			c.Stats.ROBFullStalls++
			return
		}
		if c.pendingNonMem > 0 {
			n := uint32(budget)
			if room := uint32(c.cfg.ROBSize - c.robInstrs); n > room {
				n = room
			}
			if n > c.pendingNonMem {
				n = c.pendingNonMem
			}
			c.pendingNonMem -= n
			budget -= int(n)
			c.pushNonMem(n)
			continue
		}
		// Dispatch the memory operation itself.
		c.memRecords++
		idx := c.memRecords
		var dep uint64
		if d := uint64(c.pending.DepDist); d > 0 && d < idx {
			dep = idx - d + 1 // +1 so 0 means "independent"
			// Out-of-window producers are treated as complete.
			if idx-(dep-1) >= depWindow {
				dep = 0
			}
		}
		c.depReady[idx%depWindow] = false
		e := robEntry{
			isMem:  true,
			kind:   c.pending.Kind,
			vaddr:  c.pending.Addr,
			ip:     c.pending.IP,
			recIdx: idx,
			dep:    dep,
		}
		slot := c.robTail
		c.pushEntry(e)
		if s := (dep - 1) % depWindow; dep != 0 && !c.depReady[s] {
			c.park(slot, s)
		} else {
			c.setReady(slot)
		}
		budget--
		c.pendingValid = false
		if c.pending.Kind == trace.Load {
			c.Stats.Loads++
		} else {
			c.Stats.Stores++
		}
	}
}

func (c *Core) pushNonMem(n uint32) {
	// Merge into the previous tail entry when it is a non-mem run that
	// has not begun retiring (keeps the ring short).
	if c.robCount > 0 {
		lastIdx := (c.robTail + len(c.rob) - 1) % len(c.rob)
		last := &c.rob[lastIdx]
		if !last.isMem && lastIdx != c.robHead {
			last.nonMem += n
			c.robInstrs += int(n)
			return
		}
	}
	c.pushEntry(robEntry{nonMem: n})
}

func (c *Core) pushEntry(e robEntry) {
	if c.robCount >= len(c.rob) {
		panic("sim: ROB ring overflow")
	}
	c.robInstrs += c.entryInstrs(&e)
	c.rob[c.robTail] = e
	c.robTail = (c.robTail + 1) % len(c.rob)
	c.robCount++
}

// issue sends ready memory operations to the L1D through limited ports,
// oldest first. Issued entries leave the ready set; blocked ones stay.
func (c *Core) issue(cycle uint64) {
	loads := c.cfg.LoadPorts
	stores := c.cfg.StorePorts
	for slot := c.nextReady(-1); slot >= 0; slot = c.nextReady(slot) {
		if loads == 0 && stores == 0 {
			return
		}
		e := &c.rob[slot]
		if e.kind == trace.Load && loads == 0 {
			continue
		}
		if e.kind == trace.Store && stores == 0 {
			continue
		}
		// Dependence check: producer must have completed.
		if e.dep != 0 {
			s := (e.dep - 1) % depWindow
			if !c.depReady[s] {
				// A later record took the dependence slot since the
				// wakeup: wait for its completion.
				c.DepBlocked++
				c.park(slot, s)
				continue
			}
			if c.depDone[s] > cycle {
				c.DepBlocked++
				continue
			}
		}
		if !c.tryIssue(e, int32(slot), cycle) {
			// L1D RQ full: stop issuing this cycle.
			return
		}
		c.clearReady(slot)
		if e.kind == trace.Load {
			loads--
		} else {
			stores--
		}
	}
}

// isReady reports whether ROB slot i is in the ready set.
func (c *Core) isReady(i int) bool { return c.ready[i>>6]&(1<<(i&63)) != 0 }

func (c *Core) setReady(i int)   { c.ready[i>>6] |= 1 << (i & 63) }
func (c *Core) clearReady(i int) { c.ready[i>>6] &^= 1 << (i & 63) }

// nextReady returns the ready slot that follows slot prev in ROB-age
// order (prev < 0 starts at the head), or -1 when none is left. Age order
// runs from robHead to the end of the ring, then wraps to slot 0.
func (c *Core) nextReady(prev int) int {
	if prev >= 0 && prev < c.robHead {
		return c.scanReady(prev+1, c.robHead)
	}
	lo := c.robHead
	if prev >= 0 {
		lo = prev + 1
	}
	if s := c.scanReady(lo, len(c.rob)); s >= 0 {
		return s
	}
	return c.scanReady(0, c.robHead)
}

// scanReady returns the lowest ready slot in [lo, hi), or -1.
func (c *Core) scanReady(lo, hi int) int {
	for lo < hi {
		if w := c.ready[lo>>6] >> (lo & 63); w != 0 {
			if s := lo + bits.TrailingZeros64(w); s < hi {
				return s
			}
			return -1
		}
		lo = (lo | 63) + 1
	}
	return -1
}

// park moves ROB slot i out of the ready set onto dependence slot s's
// wait list.
func (c *Core) park(i int, s uint64) {
	c.clearReady(i)
	c.waitNext[i] = c.waitHead[s]
	c.waitHead[s] = int32(i + 1)
}

// wake moves every consumer parked on dependence slot s into the ready
// set (their producer slot just reported a completion).
func (c *Core) wake(s uint64) {
	for id := c.waitHead[s]; id != 0; id = c.waitNext[id-1] {
		c.setReady(int(id - 1))
	}
	c.waitHead[s] = 0
}

// tryIssue translates and sends one memory op to the L1D. Completion comes
// back through ReqDone with a token instead of a per-request closure, so
// issuing allocates nothing.
func (c *Core) tryIssue(e *robEntry, slot int32, cycle uint64) bool {
	if c.l1d.RQOccupancy() >= c.l1d.RQCap() {
		c.IssueBlocked++
		return false
	}
	paddr, xlat := c.mmu.TranslateDemand(e.vaddr, cycle)
	req := cache.Req{
		LineAddr:  paddr >> cache.LineShift,
		VLineAddr: e.vaddr >> cache.LineShift,
		IP:        e.ip,
		FillLevel: cache.L1D,
		Store:     e.kind == trace.Store,
		Sink:      c,
		Token:     uint64(slot),
	}
	if e.kind == trace.Store {
		// Stores retire without waiting for the fill; the L1D handles
		// write-allocation in the background. The slot may be recycled
		// before the fill lands, so the token names the record instead.
		e.done = true
		e.doneCycle = cycle + 1
		req.Token = storeTokenBit | e.recIdx
	}
	if !c.l1d.AcceptDemand(&req, cycle+xlat) {
		return false
	}
	e.issued = true
	e.issuedAt = cycle
	return true
}

// ReqDone implements cache.DoneSink: L1D completions arrive here keyed by
// the token tryIssue encoded.
func (c *Core) ReqDone(token, done uint64) {
	if token&storeTokenBit != 0 {
		// Store fill: the ROB entry is long retired; only the dependence
		// window needs the completion.
		s := (token &^ storeTokenBit) % depWindow
		c.depDone[s] = done
		c.depReady[s] = true
		c.wake(s)
		return
	}
	e := &c.rob[token]
	e.done = true
	e.doneCycle = done
	s := e.recIdx % depWindow
	c.depDone[s] = done
	c.depReady[s] = true
	c.wake(s)
	d := done - e.issuedAt
	b := 0
	for d > 0 && b < len(c.LoadLatHist)-1 {
		d >>= 1
		b++
	}
	c.LoadLatHist[b]++
}

// ResetStats clears measured counters (after warmup).
func (c *Core) ResetStats() {
	c.Stats = stats.CoreStats{}
}
