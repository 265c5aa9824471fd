#include "layers.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <string_view>
#include <unordered_map>

namespace perfbench {
namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

bool NumberAfter(std::string_view line, std::string_view key, uint64_t* out) {
  const size_t at = line.find(key);
  if (at == std::string_view::npos) return false;
  const char* b = line.data() + at + key.size();
  auto [p, ec] = std::from_chars(b, line.data() + line.size(), *out);
  return ec == std::errc() && p != b;
}

struct Event {
  std::string name;
  uint64_t ts = 0, dur = 0;
  uint64_t covered = 0;  ///< by direct children
};

/// Nearest-rank percentile of `v` (p in [0,100]); 0 for an empty sample.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const size_t i = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return v[std::min(i, v.size() - 1)];
}

double Median(const std::vector<double>& v) { return Percentile(v, 50); }

}  // namespace

std::map<std::string, SpanStats> AggregateTrace(const std::string& json,
                                               uint64_t until_us) {
  // ChromeTraceJson writes one event object per line.
  std::unordered_map<uint64_t, std::vector<Event>> by_thread;
  size_t begin = 0;
  while (begin < json.size()) {
    size_t end = json.find('\n', begin);
    if (end == std::string::npos) end = json.size();
    const std::string_view line(json.data() + begin, end - begin);
    begin = end + 1;
    constexpr std::string_view kName = "\"name\":\"";
    const size_t at = line.find(kName);
    if (at == std::string_view::npos) continue;
    const size_t name_end = line.find('"', at + kName.size());
    Event e;
    uint64_t tid = 0;
    if (name_end == std::string_view::npos ||
        !NumberAfter(line, "\"tid\":", &tid) ||
        !NumberAfter(line, "\"ts\":", &e.ts) ||
        !NumberAfter(line, "\"dur\":", &e.dur))
      continue;
    if (e.ts >= until_us) continue;
    e.name = std::string(line.substr(at + kName.size(),
                                     name_end - at - kName.size()));
    by_thread[tid].push_back(std::move(e));
  }

  std::map<std::string, SpanStats> out;
  for (auto& [tid, events] : by_thread) {
    // Parents before the children they contain: earlier start first, and
    // of two spans starting in the same microsecond, the longer one.
    std::sort(events.begin(), events.end(),
              [](const Event& a, const Event& b) {
                return a.ts != b.ts ? a.ts < b.ts : a.dur > b.dur;
              });
    std::vector<size_t> open;
    for (size_t i = 0; i < events.size(); ++i) {
      Event& e = events[i];
      while (!open.empty() &&
             events[open.back()].ts + events[open.back()].dur <= e.ts)
        open.pop_back();
      if (!open.empty()) {
        Event& parent = events[open.back()];
        const uint64_t end = std::min(e.ts + e.dur, parent.ts + parent.dur);
        parent.covered += end - e.ts;
      }
      open.push_back(i);
    }
    for (const Event& e : events) {
      SpanStats& s = out[e.name];
      ++s.count;
      s.total_ms += static_cast<double>(e.dur) / 1000.0;
      s.self_ms +=
          static_cast<double>(e.dur - std::min(e.covered, e.dur)) / 1000.0;
      s.durations_ms.push_back(static_cast<double>(e.dur) / 1000.0);
    }
  }
  return out;
}

size_t MaxEventsPerThread(const std::string& json) {
  std::unordered_map<uint64_t, size_t> events;
  size_t most = 0;
  for (size_t begin = 0; begin < json.size();) {
    size_t end = json.find('\n', begin);
    if (end == std::string::npos) end = json.size();
    uint64_t tid = 0;
    if (NumberAfter(std::string_view(json.data() + begin, end - begin),
                    "\"tid\":", &tid))
      most = std::max(most, ++events[tid]);
    begin = end + 1;
  }
  return most;
}

std::vector<double> CommitMsAtReference(const Window& w) {
  std::vector<double> out;
  for (const Commit& c : w.commits) out.push_back(c.ms * c.scale);
  return out;
}

std::vector<double> RateSamples(const Window& w) {
  std::vector<double> out;
  if (w.rate_group == 0) {
    for (const Commit& c : w.commits)
      out.push_back(Ratio(c.edits, c.ms * c.scale / 1000.0));
    return out;
  }
  double edits = 0.0;
  for (size_t i = 0; i < w.commits.size(); ++i) {
    const Commit& c = w.commits[i];
    edits += c.edits;
    if ((i + 1) % w.rate_group != 0) continue;
    const double start_s = w.group_start_s[i / w.rate_group];
    out.push_back(Ratio(edits, (c.at_s - start_s) * c.scale));
    edits = 0.0;
  }
  return out;
}

std::vector<Metric> EndToEndMetrics(const Window& w) {
  return {
      {"setup_s", w.setup_s * w.setup_scale, "s"},
      {"commit_ms_p50", Percentile(CommitMsAtReference(w), 50), "ms"},
      {"edits_per_s", Median(RateSamples(w)), "1/s"},
      {"peak_rss_mb", w.peak_rss_mb, "MB"},
  };
}

std::vector<Metric> WorkloadMetrics(const Window& w) {
  const std::vector<double> commit_ms = CommitMsAtReference(w);
  std::vector<double> raw_ms;
  for (const Commit& c : w.commits) raw_ms.push_back(c.ms);
  std::vector<Metric> out = {
      {"commit_ms_p90", Percentile(commit_ms, 90), "ms"},
      {"commit_ms_p99", Percentile(commit_ms, 99), "ms"},
      // As measured, before scaling to the reference host speed.
      {"raw_setup_s", w.setup_s, "s"},
      {"raw_commit_ms_p50", Percentile(raw_ms, 50), "ms"}};
  if (w.workload == "bulk_ingest") {
    const double disk = static_cast<double>(w.wal_bytes) +
                        static_cast<double>(w.checkpoints) *
                            static_cast<double>(w.checkpoint_file_bytes);
    out.push_back({"disk_bytes_per_edit",
                   Ratio(disk, static_cast<double>(w.edits)), "B"});
  }
  if (w.workload == "offline_repair") {
    out.push_back({"repair_s", Median(commit_ms) / 1000.0, "s"});
    out.push_back({"repair_f1", w.f1, "ratio"});
  }
  out.push_back({"error_frac",
                 Ratio(static_cast<double>(w.failed),
                       static_cast<double>(w.attempted)),
                 "ratio"});
  return out;
}

std::vector<Metric> LayerMetrics(
    const Window& w, const std::map<std::string, SpanStats>& spans) {
  const grepair::ServiceStats& a = w.before.stats;
  const grepair::ServiceStats& b = w.after.stats;
  auto d = [](size_t after, size_t before) {
    return static_cast<double>(after - before);
  };
  auto span = [&spans](const char* name) -> const SpanStats& {
    static const SpanStats kNone;
    auto it = spans.find(name);
    return it == spans.end() ? kNone : it->second;
  };
  auto mean = [&span](const char* name) {
    const SpanStats& s = span(name);
    return Ratio(s.total_ms, static_cast<double>(s.count));
  };

  const bool offline = w.workload == "offline_repair";
  const double batches = d(b.batches, a.batches);
  const double edits = static_cast<double>(w.edits);
  const double acquisitions = d(b.snapshot_patches + b.snapshot_rebuilds,
                                a.snapshot_patches + a.snapshot_rebuilds);
  const double acquire_ms = (b.snapshot_patch_ms + b.snapshot_rebuild_ms) -
                            (a.snapshot_patch_ms + a.snapshot_rebuild_ms);
  // Work units the pool and planner serve: commits, or repairs.
  const double units =
      offline ? static_cast<double>(w.commits.size()) : batches;

  // Server-side request time not spent inside the service's own spans is
  // admission, parsing and, above all, waiting for the service mutex.
  const double in_service =
      span("commit").total_ms + span("serve.edit").total_ms;
  const double requests =
      static_cast<double>(w.after.requests - w.before.requests);
  const double lock_wait =
      std::max(0.0, (w.after.request_ms_sum - w.before.request_ms_sum) -
                        in_service);

  const double service_expansions = d(b.expansions, a.expansions);
  const double run_ms = w.after.pool_run_ms_sum - w.before.pool_run_ms_sum;

  std::vector<double> fix_ms;
  for (size_t i = 0; i < w.repair_detect_ms.size(); ++i)
    fix_ms.push_back(w.commits[i].ms - w.repair_detect_ms[i]);

  return {
      // serve
      {"serve.edit_rtt_ms_p50", Percentile(w.edit_ms, 50), "ms"},
      {"serve.lock_wait_ms_mean", Ratio(lock_wait, requests), "ms"},
      {"serve.commit_service_ms_p50", Percentile(w.service_ms, 50), "ms"},
      {"serve.publish_ms_mean",
       Ratio(b.publish_ms - a.publish_ms, d(b.publishes, a.publishes)), "ms"},
      {"serve.fanout_frac",
       Ratio(d(b.snapshot_batches, a.snapshot_batches), batches), "ratio"},
      // storage
      {"storage.wal_ms_mean", mean("commit.wal"), "ms"},
      {"storage.syncs_per_commit", Ratio(d(b.wal_syncs, a.wal_syncs), batches),
       "syncs/commit"},
      {"storage.checkpoint_ms_mean", mean("serve.checkpoint"), "ms"},
      {"storage.checkpoints", d(b.checkpoints, a.checkpoints), "count"},
      {"storage.wal_bytes_per_edit",
       Ratio(d(b.wal_bytes, a.wal_bytes), edits), "B/edit"},
      {"storage.checkpoint_bytes",
       static_cast<double>(w.checkpoint_file_bytes), "B"},
      // graph
      {"graph.snapshot_acquire_ms_mean", Ratio(acquire_ms, acquisitions),
       "ms"},
      {"graph.snapshot_rebuild_frac",
       Ratio(d(b.snapshot_rebuilds, a.snapshot_rebuilds), acquisitions),
       "ratio"},
      {"graph.shard_rebuilds_per_commit",
       Ratio(d(b.shard_rebuilds, a.shard_rebuilds), batches),
       "shards/commit"},
      {"graph.snapshot_memory_mb",
       static_cast<double>(b.snapshot_memory_bytes) / 1e6, "MB"},
      // parallel
      {"parallel.seed_ms_mean",
       Ratio(w.after.detect_ms_sum - w.before.detect_ms_sum - acquire_ms,
             batches),
       "ms"},
      {"parallel.tasks_per_commit",
       Ratio(static_cast<double>(w.after.pool_tasks - w.before.pool_tasks),
             offline ? static_cast<double>(w.commits.size()) : batches),
       "tasks/commit"},
      {"parallel.task_wait_ms_mean",
       Ratio(w.after.pool_wait_ms_sum - w.before.pool_wait_ms_sum,
             static_cast<double>(w.after.pool_waits - w.before.pool_waits)),
       "ms"},
      {"parallel.task_run_ms_mean",
       Ratio(run_ms,
             static_cast<double>(w.after.pool_runs - w.before.pool_runs)),
       "ms"},
      {"parallel.busy_frac",
       Ratio(run_ms, static_cast<double>(w.threads) * w.seconds * 1000.0),
       "ratio"},
      // match
      {"match.anchor_ms_mean", mean("commit.delta"), "ms"},
      {"match.candidates_per_seed",
       Ratio(static_cast<double>(w.after.candidates - w.before.candidates),
             static_cast<double>(w.after.seeds - w.before.seeds)),
       "cand/seed"},
      {"match.plan_cache_hit_frac",
       Ratio(static_cast<double>(w.after.plan_hits - w.before.plan_hits),
             static_cast<double>(
                 (w.after.plan_hits + w.after.plan_misses +
                  w.after.plan_revalidations) -
                 (w.before.plan_hits + w.before.plan_misses +
                  w.before.plan_revalidations))),
       "ratio"},
      {"match.plan_compile_ms",
       Ratio(static_cast<double>(w.after.plan_compile_us -
                                 w.before.plan_compile_us) /
                 1000.0,
             units),
       "ms"},
      // repair
      {"repair.cascade_ms_mean",
       Ratio(span("commit.cascade").self_ms,
             static_cast<double>(span("commit.cascade").count)),
       "ms"},
      {"repair.fixes_per_edit",
       Ratio(d(b.violations_repaired, a.violations_repaired), edits),
       "fixes/edit"},
      {"repair.expansions_per_edit", Ratio(service_expansions, edits),
       "exp/edit"},
      {"repair.detect_ms", Median(w.repair_detect_ms), "ms"},
      {"repair.fix_ms", Median(fix_ms), "ms"},
      {"repair.rounds", Median(w.repair_rounds), "count"},
  };
}

}  // namespace perfbench
