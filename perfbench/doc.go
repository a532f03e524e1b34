// Workloads, layers and what each per-layer metric should move.
//
// Workloads (each uses at most NumCPU goroutines doing simulation):
//
//   - engine-memint: the 33 MemInt traces × {ip-stride, berti} at L1D,
//     run serially from in-memory traces. Nearly all of it is per-tick
//     core, cache, DRAM and prefetcher work; it carries berti_speedup.
//   - stream-corpus: the compute-bound and cloud traces with no prefetcher,
//     run serially and streamed from an on-disk v2 corpus built in set-up.
//     The engine is cheapest per record here, so decode is its largest
//     share.
//   - campaign-lease: the 37-trace × 16-configuration grid at micro scale,
//     submitted to a lease-only coordinator behind loopback HTTP and run by
//     two in-process workers.
//   - campaign-local: the same grid through the coordinator's local shard
//     executor (harness Workers = 2, no HTTP workers). It runs by name but
//     is not among the workloads BENCHMARK.json gates: on a 2-vCPU host its
//     fsync-bound, both-CPU campaigns spread beyond the wall-clock bound
//     between runs. campaign-lease still runs it once per invocation as its
//     byte-identity cross-check.
//
// Per-layer metrics and the end-to-end metric each should move:
//
//   - Engine (cpu_share.{sim,cache,dram,core,prefetch,vm,ringbuf}, the
//     exact work counts core.*, l1d.*, l2.*, llc.*, dram.*, and
//     sim.host_ns_per_{cycle,l1d_access}): kinstr_per_cpu_s and
//     kinstr_per_s on engine-memint, less on stream-corpus; flat on the
//     campaign workloads.
//   - tracestore (cpu_share.{tracestore,flate}, decode MB/s and records/s
//     from timed File.NewReader drains with 1 and 2 workers, encode MB/s,
//     bytes per record): kinstr_per_s on stream-corpus; flat on
//     engine-memint, whose in-memory traces bypass decode.
//   - workloads (workloads.gen_s, workloads.records_per_s): setup_s on
//     every workload.
//   - harness (cpu_share.harness, harness.run_ms.p50/p90): specs_per_s on
//     every workload. On campaign-lease a run's time is inferred from the
//     worker's request timeline; campaign-local runs are not visible
//     individually.
//   - server (http.* per endpoint through a timing RoundTripper, lease.*,
//     fleet.duplicates and fleet.reassigned from /metrics, which must read
//     0, cpu_share.{server,net_http,json}): specs_per_s on campaign-lease;
//     flat on campaign-local and engine-memint.
//   - campaign and store (a persistence pass replaying the run's results
//     through campaign.Journal.Append and server.Store.Put:
//     campaign.journal_append_ms, campaign.journal_bytes_per_spec,
//     store.put_ms, plus proc.wchar_mb and cpu_share.{campaign,syscall}):
//     specs_per_s on both campaign workloads; flat on engine-memint.
//   - process (proc.gc_cycles, proc.gc_pause_ms, proc.alloc_mb per traced
//     pass, cpu_share.runtime): peak_rss_mb and kinstr_per_s everywhere.
//     host.steal_frac is a diagnostic of the host, not of the program.
//
// Self times (self_s.<layer>) come from the spans the benchmark records
// around each call it makes into a layer; the Chrome trace_event export is
// written next to the run state as trace-<workload>.json.

package main
