package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// perLayerUnits lists every per-layer metric with its unit. A traced run
// prints all of them; one a workload does not exercise (HTTP timings on an
// engine workload, say) or whose percentile has too few samples beyond it
// reads 0 and is named on an "unavailable" line.
var perLayerUnits = func() map[string]string {
	m := map[string]string{}
	for _, l := range cpuLayers {
		m["cpu_share."+l] = "ratio"
	}
	for _, l := range spanLayers {
		m["self_s."+l] = "s"
	}
	for _, n := range []string{
		"core.instructions", "core.cycles", "core.rob_full_stalls",
		"l1d.accesses", "l1d.misses", "l1d.pf_issued", "l1d.pf_useful",
		"l2.accesses", "l2.misses", "llc.accesses", "llc.misses",
		"dram.reads", "dram.writes",
		"harness.runs", "http.requests", "lease.grants",
		"fleet.duplicates", "fleet.reassigned",
		"proc.gc_cycles", "profile.samples", "trace.lanes", "trace.spans",
	} {
		m[n] = "count"
	}
	for n, u := range map[string]string{
		"sim.host_ns_per_cycle":              "ns",
		"sim.host_ns_per_l1d_access":         "ns",
		"tracestore.decode_mb_per_s":         "MB/s",
		"tracestore.decode_records_per_s":    "records/s",
		"tracestore.decode_mb_per_s_2w":      "MB/s",
		"tracestore.decode_records_per_s_2w": "records/s",
		"tracestore.encode_mb_per_s":         "MB/s",
		"tracestore.bytes_per_record":        "B/record",
		"workloads.gen_s":                    "s",
		"workloads.records_per_s":            "records/s",
		"harness.run_ms.p50":                 "ms",
		"harness.run_ms.p90":                 "ms",
		"http.lease_acquire_ms.p50":          "ms",
		"http.lease_acquire_ms.p90":          "ms",
		"http.results_push_ms.p50":           "ms",
		"http.results_push_ms.p90":           "ms",
		"http.heartbeat_ms.p50":              "ms",
		"http.status_ms.p50":                 "ms",
		"lease.round_trip_ms.p50":            "ms",
		"lease.round_trip_ms.p90":            "ms",
		"lease.specs_per_lease":              "specs",
		"lease.empty_grants_ratio":           "ratio",
		"campaign.journal_append_ms.p50":     "ms",
		"campaign.journal_append_ms.p90":     "ms",
		"campaign.journal_bytes_per_spec":    "B/spec",
		"store.put_ms.p50":                   "ms",
		"store.put_ms.p90":                   "ms",
		"proc.wchar_mb":                      "MB",
		"proc.gc_pause_ms":                   "ms",
		"proc.alloc_mb":                      "MB",
		"host.steal_frac":                    "ratio",
		"fail_ratio":                         "ratio",
		"trace.kinstr_per_s":                 "kinstr/s",
		"trace.untraced_kinstr_per_s":        "kinstr/s",
		"trace.overhead_frac":                "ratio",
		"trace.wall_s":                       "s",
		"trace.self_sum_s":                   "s",
	} {
		m[n] = u
	}
	return m
}()

// fillPerLayer adds every per-layer metric the run could not measure as 0
// and returns their names.
func fillPerLayer(m metrics) []string {
	var missing []string
	for n, u := range perLayerUnits {
		if _, ok := m[n]; !ok {
			m.set(n, 0, u)
			missing = append(missing, n)
		}
	}
	sort.Strings(missing)
	return missing
}

// checkDeclared verifies that the metrics printed match BENCHMARK.json in
// the working directory, name for name and unit for unit.
func checkDeclared(m metrics, traced bool) error {
	body, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	decl := doc.EndToEnd
	if traced {
		decl = doc.PerLayer
	}
	if len(decl) != len(m) {
		return fmt.Errorf("BENCHMARK.json declares %d metrics for this mode, the run printed %d", len(decl), len(m))
	}
	for _, d := range decl {
		got, ok := m[d.Name]
		if !ok || got.Unit != d.Unit {
			return fmt.Errorf("BENCHMARK.json metric %s (%s) does not match the run's output", d.Name, d.Unit)
		}
	}
	return nil
}
