package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"github.com/bertisim/berti/internal/fault"
)

// goldenScale is small enough that the whole MemInt matrix runs in seconds
// while every run still warms up, misses to DRAM, and trains its
// prefetcher.
var goldenScale = Scale{Name: "golden", MemRecords: 8_000, WarmupInstr: 5_000, SimInstr: 15_000}

// Pinned result digests. The scheduler differential compares two
// schedulers of the same build, so it cannot notice a hot-path change that
// moves both sides at once; these digests compare against the model as it
// was when they were recorded. A change that is meant to alter results
// must re-record them (go test -run TestGoldenResults -v prints the new
// values) and say why in CHANGES.md.
const (
	goldenMemIntDigest = "10d3ccb4f483d47acda23b20fbd8b0e0bed75aa030b352790436e816915632fc"
	goldenMixDigest    = "0341fd0b39f869e8cc140f25b7cd03e365ca85d2751cb611ecc30f671a1045c8"
	goldenFaultDigest  = "16ffc76d219a08098a1373f835e52eb7a2c77b3a7cd8bfe47f3a0b81f52e6fec"
)

// goldenDigest hashes each spec's key and canonical result JSON (plus the
// rendered error, if any) in order.
func goldenDigest(t *testing.T, specs []RunSpec, run func(RunSpec) []byte) string {
	t.Helper()
	h := sha256.New()
	for _, spec := range specs {
		h.Write([]byte(spec.Key()))
		h.Write([]byte{'\n'})
		h.Write(run(spec))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenResults pins the JSON results of the MemInt suite under no
// prefetcher, IP-stride and Berti at L1D, one 4-core mix, and one
// delay-fill fault plan to digests recorded before the event-proportional
// hot path (indexed MSHR file, wakeup-driven issue) replaced the scans.
func TestGoldenResults(t *testing.T) {
	h := New(goldenScale)
	memo := func(spec RunSpec) []byte {
		res, err := h.Run(spec)
		return resultJSON(t, res, err)
	}

	var memint []RunSpec
	for _, w := range MemIntSuite("all") {
		for _, pf := range []string{"", "ip-stride", "berti"} {
			memint = append(memint, RunSpec{Workload: w, L1DPf: pf})
		}
	}
	if _, err := h.RunMany(memint); err != nil {
		t.Fatal(err)
	}
	mix := []RunSpec{{Mix: []string{"mcf_like_1554", "lbm_like", "bfs-road", "pr-kron"}, L1DPf: "berti", Seed: 1}}
	plan := &fault.Plan{Kind: fault.DelayFill, Seed: 3, Rate: 0.02, After: 50, Param: 2_000}
	faulty := []RunSpec{{Workload: "mcf_like_1554", L1DPf: "berti"}}

	for _, tc := range []struct {
		name string
		got  string
		want string
	}{
		{"memint", goldenDigest(t, memint, memo), goldenMemIntDigest},
		{"mix", goldenDigest(t, mix, memo), goldenMixDigest},
		{"delay-fill", goldenDigest(t, faulty, func(spec RunSpec) []byte {
			res, err := h.RunWith(spec, RunOptions{Fault: plan})
			return resultJSON(t, res, err)
		}), goldenFaultDigest},
	} {
		t.Logf("%s digest %s", tc.name, tc.got)
		if tc.got != tc.want {
			t.Errorf("%s results changed: digest %s, pinned %s", tc.name, tc.got, tc.want)
		}
	}
}
