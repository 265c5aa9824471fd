// The benchmark's workloads (BENCHMARK.json names them and says why each
// exists). bulk_ingest drives an in-process serve::Server — the object
// `grepair serve --listen` runs — over loopback from one closed-loop client
// connection; offline_repair runs the paper's batch RepairEngine::Run on
// clones of dirty KGs. Every op a client sends is generated from the seed before the
// timed window opens.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "serve/repair_service.h"

namespace perfbench {

/// Workload names, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

struct RunOptions {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;  ///< length of the measured window
  std::string workdir;    ///< scratch directory (WAL, state files)
};

/// Instrument readings taken while the service is quiescent, before and
/// after the measured window; per-layer metrics are their differences.
struct Counters {
  grepair::ServiceStats stats;  ///< all zero for offline_repair
  double request_ms_sum = 0.0;  ///< grepair_server_request_ms
  uint64_t requests = 0;
  double detect_ms_sum = 0.0;   ///< grepair_serve_detect_ms (seed pass)
  uint64_t pool_tasks = 0;
  double pool_wait_ms_sum = 0.0;
  uint64_t pool_waits = 0;
  double pool_run_ms_sum = 0.0;
  uint64_t pool_runs = 0;
  uint64_t seeds = 0, candidates = 0, expansions = 0;
  uint64_t plan_compile_us = 0;
  uint64_t plan_hits = 0, plan_misses = 0, plan_revalidations = 0;
};

/// One gated sample: a `commit` round trip, or on offline_repair one whole
/// RepairEngine::Run (the dirty graph committed as one batch).
struct Commit {
  double at_s = 0.0;  ///< completion, seconds since the window opened
  double ms = 0.0;    ///< latency
  double edits = 0;   ///< client edits committed (fixes applied, offline)
  /// Scales the times around this commit to the reference host speed
  /// (calibrate.h): ms x scale is the latency at that speed.
  double scale = 1.0;
};

/// Everything one set-up plus measured window observed.
struct Window {
  std::string workload;
  bool traced = false;
  double setup_s = 0.0;  ///< the window's own set-up
  double setup_scale = 1.0;  ///< to reference host speed, as Commit::scale

  // Service configuration and graph size (serve workloads).
  size_t threads = 0;
  size_t shards = 0;
  std::string fsync_policy = "none";  ///< "none" without a WAL
  uint64_t checkpoint_every = 0;
  size_t nodes_start = 0, edges_start = 0, nodes_end = 0, edges_end = 0;

  double seconds = 0.0;  ///< measured window wall time

  std::vector<Commit> commits;
  /// Consecutive commits per throughput sample; 0 (offline_repair): one
  /// sample per repair.
  size_t rate_group = 0;
  /// Serve: when each group started, in seconds since the window opened.
  std::vector<double> group_start_s;
  /// Host-speed calibration points (calibrate.h), in ms: one before every
  /// group of commits (serve) or turn through the KGs (offline_repair), and
  /// one after the last.
  std::vector<double> reference_ms;
  // Client-observed, in ms. service_ms is the batch line's `ms=`.
  std::vector<double> edit_ms, service_ms;
  uint64_t attempted = 0, failed = 0;
  uint64_t edits = 0;  ///< edits in acknowledged commits
  uint64_t knows_edits = 0;       ///< of which one-way knows edges
  /// Edit mix: shares of born_in, Org, is_capital and knows edits.
  std::vector<double> mix;

  // offline_repair: per RepairEngine::Run, parallel to `commits`.
  std::vector<double> repair_detect_ms, repair_rounds;
  double f1 = 0.0;

  // Serve: bytes written to the WAL directory in the window.
  uint64_t wal_bytes = 0;
  uint64_t checkpoint_file_bytes = 0;  ///< newest checkpoint file
  uint64_t checkpoints = 0;

  /// The process's peak RSS when the window and its end checks are done,
  /// before anything is torn down.
  double peak_rss_mb = 0.0;

  Counters before, after;
  std::string trace_json;  ///< Chrome trace of the window (traced only)
  /// obs::NowUs() when the window closed; later spans are the end checks.
  uint64_t window_end_us = UINT64_MAX;

  std::vector<std::string> check_failures;  ///< failed correctness checks
  std::vector<std::string> request_errors;  ///< first failed replies
};

/// Sets up `opt.workload`, measures one window of `opt.seconds` (or, for a
/// fixed-work workload, of `opt.seconds` worth of edits), runs its
/// correctness checks and tears down. Throws std::runtime_error when the
/// workload cannot run at all.
Window RunWorkload(const RunOptions& opt, bool traced);

/// CPUs this process may run on (what `nproc` prints).
size_t Nproc();
/// Pool threads a workload serves or repairs with. offline_repair repairs
/// with 2, so the parallel detector and the pool are measured. bulk_ingest
/// serves with 1: on a shared 4-vCPU VM its commits with a pool of 2 took
/// 15-20 ms, and their run-to-run spread was twice the benchmark's bound,
/// against 11 ms and a quarter of the bound with one thread
/// (perfbench/README.md, "Pool threads").
size_t PoolThreads(const std::string& workload);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
