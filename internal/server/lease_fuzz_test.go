package server

import (
	"testing"
	"time"
)

// FuzzLeasePool drives the lease state machine with an arbitrary
// byte-encoded op sequence and asserts the never-lose / never-double-count
// contract plus the structural invariants after every op. Each byte is one
// op: the high bits select the kind, the low bits its operand, so any
// input the fuzzer invents maps to a legal interleaving of acquire / local
// take / heartbeat / expire / finish / add.
func FuzzLeasePool(f *testing.F) {
	f.Add([]byte{0x00, 0x41, 0x82, 0xc0, 0x13})
	f.Add([]byte{0x01, 0x02, 0x03, 0x80, 0x81, 0x82, 0x83, 0x84})
	f.Add([]byte{0x40, 0xc1, 0x40, 0xc1, 0x40, 0xc1})
	f.Add([]byte{0xff, 0x00, 0xff, 0x00, 0x20, 0xa0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		p, clk := newFakePool(time.Second)
		specs := poolSpecs(12)
		p.add(specs)
		keys := make([]string, len(specs))
		for i, s := range specs {
			keys[i] = s.Key()
		}
		workers := []string{"fa", "fb"}
		var leaseIDs []string
		freshCount := map[string]int{}

		finish := func(worker, key string) {
			fresh, known := p.finish(worker, key)
			if !known {
				t.Fatalf("pool forgot key %q", key)
			}
			if fresh {
				if freshCount[key]++; freshCount[key] > 1 {
					t.Fatalf("key %q first-completed twice", key)
				}
			}
		}

		for _, op := range ops {
			kind, arg := op>>6, int(op&0x3f)
			switch kind {
			case 0: // acquire, or with operand bit 5 a local take
				if arg&0x20 != 0 {
					if p.gauges().SpecsPending > 0 {
						p.next() // never blocks: a spec is pending
					}
				} else if l, _ := p.acquire(workers[arg%2], 1+arg%6); l != nil {
					leaseIDs = append(leaseIDs, l.id)
				}
			case 1: // heartbeat an arbitrary past lease (possibly dead)
				if len(leaseIDs) > 0 {
					p.heartbeat(leaseIDs[arg%len(leaseIDs)], workers[arg%2], arg)
				}
			case 2: // advance time and expire
				clk.advance(time.Duration(arg) * 50 * time.Millisecond)
				p.expire()
			case 3: // finish (duplicates and late results included)
				finish(workers[arg%2], keys[arg%len(keys)])
			}
			checkPoolInvariants(t, p)
		}
		// Re-adding the same specs must report exactly the finished ones as
		// already done and never resurrect them.
		already := p.add(specs)
		if len(already) != len(freshCount) {
			t.Fatalf("re-add reported %d done keys, %d were finished", len(already), len(freshCount))
		}
		// Drain to completion: every key ends done, first-completed once.
		for _, key := range keys {
			finish("fa", key)
		}
		for _, key := range keys {
			if freshCount[key] != 1 {
				t.Fatalf("key %q first-completed %d times, want exactly 1", key, freshCount[key])
			}
		}
		if g := p.gauges(); g.SpecsPending != 0 || g.LeasesOutstanding != 0 {
			t.Fatalf("after drain: %+v", g)
		}
	})
}
