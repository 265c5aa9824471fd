// Per-layer metrics of a traced window, and the end-to-end metrics of any
// window. Layer names follow the source modules (serve, storage, graph,
// parallel, match, repair); perfbench/layer_map.json records which
// end-to-end metric and workload each layer metric is expected to move.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Aggregate of one span name in a Chrome trace: self time is a span's
/// duration minus the part of it its child spans (same thread, nested in
/// time) cover. Only events starting before `until_us` (obs::NowUs time
/// base) count.
struct SpanStats {
  size_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
  std::vector<double> durations_ms;
};
std::map<std::string, SpanStats> AggregateTrace(const std::string& json,
                                               uint64_t until_us = UINT64_MAX);

/// The most events any one thread has in a Chrome trace.
size_t MaxEventsPerThread(const std::string& json);

/// Every commit's latency at the reference host speed (Commit::scale).
std::vector<double> CommitMsAtReference(const Window& w);

/// Throughput samples of a window at the reference host speed, in edits
/// per second. Serve: one per `rate_group` consecutive commits, the edits
/// they acknowledged over the time from the group's start to its last ack.
/// offline_repair: one per repair, fixes applied over the repair's wall
/// time, since cloning the input between repairs is not the system's work.
std::vector<double> RateSamples(const Window& w);

/// The gated end-to-end metrics (BENCHMARK.json "end_to_end") of one
/// window, in that order, with times at the reference host speed. run.py
/// reports setup_s and peak_rss_mb as the median over the windows of a run,
/// and the others from the windows' samples pooled.
std::vector<Metric> EndToEndMetrics(const Window& w);

/// The end-to-end metrics the report prints but BENCHMARK.json cannot gate,
/// because not every workload has them (WAL disk use, repair time and
/// quality), plus the commit tail (p90, p99), set-up and commit p50 as
/// measured (before scaling), and error_frac.
std::vector<Metric> WorkloadMetrics(const Window& w);

/// Every per-layer metric (BENCHMARK.json "per_layer"), in that order; a
/// layer the workload bypasses reads 0.
std::vector<Metric> LayerMetrics(const Window& w,
                                 const std::map<std::string, SpanStats>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
