// perfbench: the repository benchmark binary (perfbench/run.py builds and
// runs it; see perfbench/README.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// A window gets a fresh set-up and lasts S (on bulk_ingest, it holds a
// fixed number of edits, S worth at the nominal rate). Prints a JSON header line, a JSON summary per
// window, a human-readable table, and as its LAST line one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// With --trace 0 the process measures one window, and the metrics are every
// end-to-end one, gated or not, with times scaled to the reference host
// speed (calibrate.h); run.py runs several such processes and reports
// medians. With --trace 1 it measures an untraced and then a traced
// window, reports the tracing overhead between them, and the metrics are
// the per-layer ones from the traced window.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "layers.h"
#include "obs/build_info.h"
#include "obs/trace.h"
#include "util/strings.h"
#include "workloads.h"

namespace {

using perfbench::Metric;
using perfbench::Window;

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ",";
    out += JsonString(metrics[i].name) + ":{\"value\":" +
           Num(metrics[i].value) + ",\"unit\":" + JsonString(metrics[i].unit) +
           "}";
  }
  return out + "}";
}

/// The per-window run record: configuration, graph size at both ends, and
/// the sample count behind every percentile.
void PrintSummary(const Window& w, uint64_t seed) {
  const bool offline = w.workload == "offline_repair";
  const size_t commits = w.commits.size();
  // A percentile is supported when at least ten samples lie beyond it.
  auto beyond = [](size_t n, double p) {
    return n * (100.0 - p) / 100.0 >= 10.0 ? "true" : "false";
  };
  const std::string config =
      offline
          ? grepair::StrFormat(
                "\"engine\":{\"strategy\":\"greedy\",\"threads\":%zu}",
                w.threads)
          : grepair::StrFormat(
                "\"service\":{\"threads\":%zu,\"shards\":%zu,"
                "\"publish\":true,\"fsync_policy\":%s,"
                "\"checkpoint_every\":%llu}",
                w.threads, w.shards, JsonString(w.fsync_policy).c_str(),
                static_cast<unsigned long long>(w.checkpoint_every));
  const std::string mix =
      offline ? ""
              : grepair::StrFormat(
                    ",\"mix\":{\"born_in\":%.4f,\"org\":%.4f,"
                    "\"is_capital\":%.4f,\"knows\":%.4f},\"knows_edits\":%llu",
                    w.mix[0], w.mix[1], w.mix[2], w.mix[3],
                    static_cast<unsigned long long>(w.knows_edits));
  // The host-speed scales the window's times were taken at (calibrate.h).
  double scale_min = w.setup_scale, scale_max = w.setup_scale;
  for (const perfbench::Commit& c : w.commits) {
    scale_min = std::min(scale_min, c.scale);
    scale_max = std::max(scale_max, c.scale);
  }
  std::printf(
      "{\"perfbench\":\"window\",\"workload\":%s,\"traced\":%s,"
      "\"seed\":%llu,\"window_s\":%s,%s%s,\"nodes_start\":%zu,"
      "\"edges_start\":%zu,\"nodes_end\":%zu,\"edges_end\":%zu,"
      "\"setup_s\":%s,\"host_scale\":{\"setup\":%s,\"min\":%s,"
      "\"max\":%s},\"samples\":{\"commit\":%zu,\"edit\":%zu},"
      "\"supported\":{\"commit_p90\":%s,\"commit_p99\":%s},"
      "\"attempted\":%llu,\"failed\":%llu}\n",
      JsonString(w.workload).c_str(), w.traced ? "true" : "false",
      static_cast<unsigned long long>(seed), Num(w.seconds).c_str(),
      config.c_str(), mix.c_str(), w.nodes_start, w.edges_start, w.nodes_end,
      w.edges_end, Num(w.setup_s).c_str(), Num(w.setup_scale).c_str(),
      Num(scale_min).c_str(), Num(scale_max).c_str(), commits,
      w.edit_ms.size(), beyond(commits, 90), beyond(commits, 99),
      static_cast<unsigned long long>(w.attempted),
      static_cast<unsigned long long>(w.failed));
  for (const std::string& e : w.request_errors)
    std::printf("# failed request: %s\n", e.c_str());
  for (const std::string& c : w.check_failures)
    std::printf("# CHECK FAILED: %s\n", c.c_str());
}

void PrintTable(const char* title, const std::vector<Metric>& metrics) {
  std::printf("# %s\n", title);
  for (const Metric& m : metrics)
    std::printf("#   %-34s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
}

bool Correct(const std::vector<Window>& windows) {
  for (const Window& w : windows)
    if (!w.check_failures.empty() || w.failed != 0 || w.attempted == 0)
      return false;
  return true;
}

/// `extra` is appended to the object as more keys (",\"key\":value...").
void PrintResult(const std::vector<Window>& windows,
                 const std::vector<Metric>& metrics,
                 const std::string& extra = "") {
  unsigned long long attempted = 0, failed = 0;
  for (const Window& w : windows) {
    attempted += w.attempted;
    failed += w.failed;
  }
  std::printf(
      "{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":%s%s}\n",
      Correct(windows) ? "true" : "false", attempted, failed,
      MetricsJson(metrics).c_str(), extra.c_str());
}

std::string JsonArray(const std::vector<double>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ",";
    out += Num(v[i]);
  }
  return out + "]";
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--workdir DIR] [--git-sha SHA]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  opt.workdir = ".bench_build/perfbench-work";
  std::string git_sha = grepair::obs::BuildGitSha();
  int trace = -1;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(opt.seconds > 0)) return Usage();
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage();
      trace = value == "1";
    } else if (flag == "--workdir") {
      opt.workdir = value;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else {
      return Usage();
    }
  }
  bool known = false;
  for (const std::string& name : perfbench::WorkloadNames())
    known |= name == opt.workload;
  if (!known || !have_seed || trace < 0) return Usage();
  opt.workdir += "/" + opt.workload + "-" + std::to_string(::getpid());

  std::printf(
      "{\"perfbench\":\"header\",\"workload\":%s,\"seed\":%llu,\"seconds\":%s,"
      "\"trace\":%d,\"hardware_threads\":%u,\"nproc\":%zu,\"pool_threads\":"
      "%zu,\"git_sha\":%s,\"build_type\":%s,\"compiler\":%s}\n",
      JsonString(opt.workload).c_str(),
      static_cast<unsigned long long>(opt.seed), Num(opt.seconds).c_str(),
      trace, std::thread::hardware_concurrency(), perfbench::Nproc(),
      perfbench::PoolThreads(opt.workload), JsonString(git_sha).c_str(),
      JsonString(grepair::obs::BuildType()).c_str(),
      JsonString(grepair::obs::BuildCompiler()).c_str());
  std::fflush(stdout);

  try {
    if (trace == 0) {
      const Window w = perfbench::RunWorkload(opt, /*traced=*/false);
      std::vector<Metric> e2e = perfbench::EndToEndMetrics(w);
      const std::vector<Metric> more = perfbench::WorkloadMetrics(w);
      PrintSummary(w, opt.seed);
      PrintTable("window end-to-end (gated)", e2e);
      PrintTable("window end-to-end (printed, not gated)", more);
      e2e.insert(e2e.end(), more.begin(), more.end());
      // The samples themselves, at reference host speed, so run.py can take
      // the percentiles over every window's samples together; and as
      // measured, with the calibration points that scaled them.
      std::vector<double> raw_ms;
      for (const perfbench::Commit& c : w.commits) raw_ms.push_back(c.ms);
      PrintResult({w}, e2e,
                  ",\"samples\":{\"commit_ms\":" +
                      JsonArray(perfbench::CommitMsAtReference(w)) +
                      ",\"rate\":" + JsonArray(perfbench::RateSamples(w)) +
                      ",\"raw_commit_ms\":" + JsonArray(raw_ms) +
                      ",\"reference_ms\":" + JsonArray(w.reference_ms) +
                      "}");
      return 0;
    }

    // Rings are sized before any traced thread records its first span. A
    // full ring has dropped its oldest spans, and the layer metrics built on
    // them would be wrong, so a full ring fails the run. In a 5-second
    // window (run.py --seconds 30) the busiest serve thread records ~90k
    // spans: bulk_ingest's session thread, one per edit. offline_repair's
    // engine starts a new pool for every repair, hundreds in a window, and
    // every ring is kept (zero-filled) for the process's life; its busiest
    // thread records ~250 spans.
    const size_t ring_events =
        opt.workload == "offline_repair" ? 1u << 12 : 1u << 18;
    grepair::obs::SetTraceRingCapacity(ring_events);
    const Window plain = perfbench::RunWorkload(opt, /*traced=*/false);
    Window traced = perfbench::RunWorkload(opt, /*traced=*/true);
    if (perfbench::MaxEventsPerThread(traced.trace_json) >= ring_events)
      traced.check_failures.push_back(grepair::StrFormat(
          "a thread filled its %zu-event trace ring; spans were dropped",
          ring_events));
    PrintSummary(plain, opt.seed);
    PrintSummary(traced, opt.seed);

    const std::vector<Metric> u = perfbench::EndToEndMetrics(plain);
    const std::vector<Metric> t = perfbench::EndToEndMetrics(traced);
    std::printf("# tracing overhead (traced - untraced window)\n");
    for (size_t i = 0; i < u.size(); ++i) {
      if (u[i].name == "peak_rss_mb") continue;  // one process, both windows
      std::printf("#   %-34s %14.6f -> %14.6f %-4s (%+.1f%%)\n",
                  u[i].name.c_str(), u[i].value, t[i].value, u[i].unit.c_str(),
                  u[i].value != 0 ? 100.0 * (t[i].value - u[i].value) / u[i].value
                                  : 0.0);
    }

    std::printf("# span self time over the traced window and end checks\n");
    for (const auto& [name, s] : perfbench::AggregateTrace(traced.trace_json))
      std::printf("#   %-28s n=%-8zu total=%12.3f ms self=%12.3f ms\n",
                  name.c_str(), s.count, s.total_ms, s.self_ms);
    const std::string trace_path =
        std::filesystem::path(opt.workdir).parent_path() /
        ("trace-" + opt.workload + ".json");
    std::FILE* f = std::fopen(trace_path.c_str(), "w");
    if (f != nullptr) {
      std::fwrite(traced.trace_json.data(), 1, traced.trace_json.size(), f);
      std::fclose(f);
      std::printf("# chrome trace: %s\n", trace_path.c_str());
    }

    const std::vector<Metric> layers = perfbench::LayerMetrics(
        traced,
        perfbench::AggregateTrace(traced.trace_json, traced.window_end_us));
    PrintResult({plain, traced}, layers);
    return 0;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
