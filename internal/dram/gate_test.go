package dram

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// logSink records read completions (token, cycle) in the order the
// channel fires them.
type logSink struct{ log [][2]uint64 }

func (s *logSink) ReqDone(token, cycle uint64) {
	s.log = append(s.log, [2]uint64{token, cycle})
}

// transfersOf copies the channel's transfer queue, in queue order.
func transfersOf(c *Channel) []transfer {
	out := make([]transfer, c.transfers.Len())
	for i := range out {
		out[i] = *c.transfers.At(i)
	}
	return out
}

// requestsOf copies a request queue, in queue order.
func requestsOf(c *Channel, write bool) []Request {
	q := &c.rq
	if write {
		q = &c.wq
	}
	out := make([]Request, q.Len())
	for i := range out {
		out[i] = *q.At(i)
	}
	return out
}

// TestServeBusGateMatchesScan runs two channels in lockstep on the same
// random read/write/promote traffic: one with the nextXfer gate, one whose
// gate is forced open before every tick so serveBus scans the transfer
// queue every cycle, as it did before the gate. Completions (which read, at
// which cycle, in which order), the queues, the banks and the stats must
// agree after every cycle; nextXfer must never exceed the earliest
// eligible transfer; and every queued request's stored bank and row must
// equal decode() of its address. Configurations cover the three bus
// speeds and a non-power-of-two bank count and row size.
func TestServeBusGateMatchesScan(t *testing.T) {
	odd := ConfigDDR4_3200()
	odd.Banks, odd.RowBytes = 12, 2048+1024
	odd.RQSize, odd.WQSize = 20, 12
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"ddr5-6400", ConfigDDR5_6400()},
		{"ddr4-3200", ConfigDDR4_3200()},
		{"ddr3-1600", ConfigDDR3_1600()},
		{"12banks-3KBrows", odd},
	} {
		for seed := int64(0); seed < 3; seed++ {
			name := fmt.Sprintf("%s/seed=%d", tc.name, seed)
			gated, open := NewChannel(tc.cfg), NewChannel(tc.cfg)
			gs, ss := &logSink{}, &logSink{}
			rng := rand.New(rand.NewSource(seed))
			hot := uint64(rng.Int63n(1 << 30))
			var token uint64
			reads := 0
			for cyc := uint64(0); cyc < 10000; cyc++ {
				// Bursty traffic near the bus's capacity, with quiet
				// stretches that let the bus go idle while transfers still
				// wait on their banks.
				if cyc%2000 < 1200 {
					for n := rng.Intn(2 * int(tc.cfg.BurstCycles)); n < 2; n++ {
						line := hot + uint64(rng.Intn(4096))
						if rng.Intn(8) == 0 {
							line = uint64(rng.Int63n(1 << 34))
						}
						switch k := rng.Intn(10); {
						case k < 6:
							token++
							pf := rng.Intn(3) == 0
							gated.EnqueueRead(&Request{LineAddr: line, IsPrefetch: pf, Sink: gs, Token: token}, cyc)
							open.EnqueueRead(&Request{LineAddr: line, IsPrefetch: pf, Sink: ss, Token: token}, cyc)
						case k < 9:
							gated.EnqueueWrite(&Request{LineAddr: line, Write: true}, cyc)
							open.EnqueueWrite(&Request{LineAddr: line, Write: true}, cyc)
						default:
							gated.Promote(line)
							open.Promote(line)
						}
					}
				}
				open.nextXfer = 0
				gated.Tick(cyc)
				open.Tick(cyc)
				if !slices.Equal(gs.log, ss.log) {
					t.Fatalf("%s cycle %d: completions diverged:\ngated %v\nscan  %v", name, cyc, gs.log, ss.log)
				}
				reads += len(gs.log)
				gs.log, ss.log = gs.log[:0], ss.log[:0]
				gt, ot := transfersOf(gated), transfersOf(open)
				if len(gt) != len(ot) || gated.busFree != open.busFree || gated.Stats != open.Stats ||
					!slices.Equal(gated.banks, open.banks) {
					t.Fatalf("%s cycle %d: channel state diverged", name, cyc)
				}
				for i := range gt {
					g, o := gt[i], ot[i]
					// Sinks differ by construction; compare the rest.
					if g.lineAddr != o.lineAddr || g.eligible != o.eligible || g.write != o.write ||
						g.prefetch != o.prefetch || g.token != o.token {
						t.Fatalf("%s cycle %d: transfer %d is %+v, scan has %+v", name, cyc, i, gt[i], ot[i])
					}
					if gt[i].eligible < gated.nextXfer {
						t.Fatalf("%s cycle %d: transfer eligible at %d below nextXfer %d", name, cyc, gt[i].eligible, gated.nextXfer)
					}
				}
				for _, write := range []bool{false, true} {
					for _, r := range requestsOf(gated, write) {
						if b, row := gated.decode(r.LineAddr); b != r.bank || row != r.row {
							t.Fatalf("%s cycle %d: line %#x stored bank/row %d/%d, decode gives %d/%d", name, cyc, r.LineAddr, r.bank, r.row, b, row)
						}
					}
				}
			}
			if reads < 200 || gated.Stats.Writes < 100 || gated.Stats.RowConflicts == 0 {
				t.Fatalf("%s: traffic too thin: %d reads completed, %+v", name, reads, gated.Stats)
			}
		}
	}
}

// discard is an allocation-free completion sink.
type discard struct{}

func (discard) ReqDone(token, cycle uint64) {}

// channelStep returns a warmed channel's per-cycle step: a read every 12
// cycles and a write every 24, over a 1 MiB footprint, so banks conflict,
// about 25 transfers wait for the data bus, and the bus is busy about 60%
// of the time without the read queue filling.
func channelStep() func() {
	c := NewChannel(ConfigDDR5_6400())
	var sink discard
	s := uint64(0x9e3779b97f4a7c15)
	cycle := uint64(0)
	step := func() {
		s = s*6364136223846793005 + 1442695040888963407
		line := (s >> 33) % (1 << 14)
		if cycle%12 == 0 {
			c.EnqueueRead(&Request{LineAddr: line, IsPrefetch: s&7 == 0, Sink: sink, Token: s}, cycle)
		}
		if cycle%24 == 1 {
			c.EnqueueWrite(&Request{LineAddr: line ^ 0x155, Write: true}, cycle)
		}
		c.Tick(cycle)
		cycle++
	}
	for i := 0; i < 50_000; i++ {
		step()
	}
	return step
}

// BenchmarkChannelTick measures the steady-state per-cycle cost of the
// DRAM channel — enqueue, FR-FCFS command issue and data-bus scheduling
// (make bench-cache).
func BenchmarkChannelTick(b *testing.B) {
	step := channelStep()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// TestChannelTickZeroAllocSteadyState pins the benchmark's property as a
// regular test: the warmed channel allocates nothing per cycle.
func TestChannelTickZeroAllocSteadyState(t *testing.T) {
	if avg := testing.AllocsPerRun(2000, channelStep()); avg != 0 {
		t.Fatalf("%.3f allocs per cycle in steady state, want 0", avg)
	}
}
