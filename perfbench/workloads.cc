#include "workloads.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "calibrate.h"
#include "client.h"
#include "eval/experiment.h"
#include "graph/graph_io.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/server.h"
#include "storage/checkpoint.h"
#include "util/strings.h"

namespace perfbench {
namespace {

using grepair::EdgeId;
using grepair::Graph;
using grepair::NodeId;
using grepair::RepairService;
using grepair::RuleSet;
using grepair::ServeOptions;
using grepair::SymbolId;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;
namespace obs = grepair::obs;

[[noreturn]] void Fail(const std::string& what) {
  throw std::runtime_error(what);
}

double MsSince(Clock::time_point t) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t).count();
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ------------------------------------------------------------ the KG

/// The offline workload repairs these pinned dirty KGs, so each one's F1 can
/// be compared against the value this benchmark was defined with: the
/// paper's T2 quality must not move silently.
constexpr size_t kOfflinePersons = 1500;
struct PinnedKg {
  uint64_t graph_seed;
  uint64_t inject_seed;
  double f1;
};
constexpr PinnedKg kPinnedKgs[] = {
    {101, 201, 0.99485420240137212}, {102, 202, 0.99663299663299665},
    {103, 203, 0.98657153164709188}, {104, 204, 1.0},
    {105, 205, 1.0},                 {106, 206, 0.99819168173598549},
    {107, 207, 0.99815157116451014}, {108, 208, 0.99553571428571441},
};

grepair::KgOptions OfflineKgOptions(uint64_t graph_seed) {
  grepair::KgOptions g;
  g.num_persons = kOfflinePersons;
  g.num_cities = 120;
  g.num_countries = 20;
  g.num_orgs = 90;
  g.seed = graph_seed;
  return g;
}

/// A KG generated with 5% injected errors, repaired to zero violations and
/// re-read so node ids are dense. Dense ids are what a checkpoint's id
/// compaction produces, so ids the clients were handed stay valid across
/// every checkpoint: the edit mix never deletes an original node.
struct CleanKg {
  Graph graph;
  RuleSet rules;
};

CleanKg BuildCleanKg(uint64_t seed) {
  grepair::KgOptions g;  // the generator's default size
  g.seed = seed;
  grepair::InjectOptions inject;
  inject.rate = 0.05;
  inject.seed = seed ^ 0x5eedULL;
  auto bundle = grepair::MakeKgBundle(g, inject);
  if (!bundle.ok()) Fail("KG bundle: " + bundle.status().ToString());
  grepair::DatasetBundle& b = bundle.value();
  grepair::RepairOptions ro;
  ro.num_threads = PoolThreads("bulk_ingest");
  grepair::Result<grepair::RepairResult> repaired =
      grepair::Status::Internal("not run");
  {
    obs::Span span("bench.repair_engine_run");
    repaired = grepair::RepairEngine(ro).Run(&b.graph, b.rules);
  }
  if (!repaired.ok()) Fail("initial repair: " + repaired.status().ToString());
  if (repaired.value().remaining_violations != 0)
    Fail(grepair::StrFormat("initial repair left %zu violations",
                            repaired.value().remaining_violations));
  auto dense = grepair::ParseGraph(grepair::SerializeGraph(b.graph), b.vocab);
  if (!dense.ok()) Fail("id compaction: " + dense.status().ToString());
  return {std::move(dense).value(), std::move(b.rules)};
}

/// Node ids the op generator draws from, read once before the window.
struct KgIds {
  std::vector<NodeId> persons, cities, capitals;
  std::vector<NodeId> born;  ///< persons with a born_in edge
  /// Every city a person has had a born_in edge to, the original first.
  std::unordered_map<NodeId, std::vector<NodeId>> birthplaces;
  std::unordered_set<uint64_t> knows;  ///< (src << 32) | dst
};

SymbolId MustLabel(const Graph& g, const char* name) {
  SymbolId id = 0;
  if (!g.vocab()->lookup_only().Label(name, &id)) Fail("no label " + std::string(name));
  return id;
}

KgIds ScanKg(const Graph& g) {
  const SymbolId person = MustLabel(g, "Person"), city = MustLabel(g, "City"),
                 born_in = MustLabel(g, "born_in"),
                 capital_of = MustLabel(g, "capital_of"),
                 knows = MustLabel(g, "knows");
  KgIds ids;
  for (NodeId n : g.Nodes()) {
    if (g.NodeLabel(n) == person) ids.persons.push_back(n);
    if (g.NodeLabel(n) == city) ids.cities.push_back(n);
  }
  for (EdgeId e : g.Edges()) {
    const grepair::EdgeView ev = g.Edge(e);
    if (ev.label == born_in) ids.birthplaces[ev.src].push_back(ev.dst);
    if (ev.label == capital_of) ids.capitals.push_back(ev.src);
    if (ev.label == knows)
      ids.knows.insert((uint64_t{ev.src} << 32) | ev.dst);
  }
  for (NodeId p : ids.persons)
    if (ids.birthplaces.count(p)) ids.born.push_back(p);
  std::sort(ids.capitals.begin(), ids.capitals.end());
  ids.capitals.erase(std::unique(ids.capitals.begin(), ids.capitals.end()),
                     ids.capitals.end());
  if (ids.born.empty() || ids.cities.size() < 2 || ids.capitals.empty())
    Fail("KG too small for the edit mix");
  return ids;
}

// ------------------------------------------------------------ op streams

/// One client batch, sent in one write: every edit and then the commit, one
/// request a line.
struct Batch {
  std::string requests;
  size_t size = 0;   ///< edits in the batch
  size_t knows = 0;  ///< of which one-way knows edges
};

/// Edits whose repairs undo them, drawn in the proportions of the KG error
/// model (InjectKgErrors in src/graph/error_injector.cc). At one rate it
/// gives each person with a birthplace a second born_in, each capital a
/// cleared is_capital, 0.2 junk orgs per person, and each knows pair a
/// missing direction:
///   - a second born_in edge, which one_birthplace deletes;
///   - an unnamed, isolated Org node, which junk_org deletes;
///   - is_capital overwritten on a capital city, which capital_flag resets;
///   - a one-way knows edge, which knows_symmetric completes.
/// The first three are drawn in the model's proportions, persons with a
/// birthplace : 0.2 x persons : capitals. (A person without one, left by a
/// merge in the set-up repair, would keep the edge.) The client cannot drop
/// one direction of a knows pair, since the protocol removes edges by id and
/// a checkpoint renumbers edges, so its knows edit is a new pair's first
/// edge; with the repair's reverse edge it adds two edges for good. The
/// model would make knows about half of all edits, so |E| would grow without
/// bound; knows edits are instead held to kKnowsShare, at which a
/// bulk_ingest window (80k edits at run.py --seconds 20) grows the 29k-edge
/// KG by under 3%. So |V| stays, and |E| grows by exactly two per knows
/// edit. Only node ids of the original graph are referenced, never edge ids.
constexpr double kKnowsShare = 0.005;

class EditMix {
 public:
  explicit EditMix(KgIds* ids) : ids_(ids) {
    const double born = static_cast<double>(ids->born.size());
    const double persons = static_cast<double>(ids->persons.size());
    const double capitals = static_cast<double>(ids->capitals.size());
    const double rest =
        (1 - kKnowsShare) / (born + 0.2 * persons + capitals);
    kind_ = std::discrete_distribution<int>({born * rest, 0.2 * persons * rest,
                                             capitals * rest, kKnowsShare});
  }

  double share(int kind) const { return kind_.probabilities()[kind]; }

  /// One edit request; `*knows` is set when it is a knows edge.
  std::string Next(std::mt19937_64& rng, bool* knows) {
    KgIds& ids = *ids_;
    auto pick = [&rng](const std::vector<NodeId>& v) {
      return v[std::uniform_int_distribution<size_t>(0, v.size() - 1)(rng)];
    };
    *knows = false;
    switch (kind_(rng)) {
      case 0: {
        // A city the person never had: whichever born_in edge the repair
        // keeps, the new one is never a parallel duplicate of it.
        const NodeId p = pick(ids.born);
        std::vector<NodeId>& had = ids.birthplaces[p];
        NodeId c = pick(ids.cities);
        while (std::find(had.begin(), had.end(), c) != had.end())
          c = pick(ids.cities);
        had.push_back(c);
        return grepair::StrFormat("add_edge %u %u born_in", p, c);
      }
      case 1:
        return "add_node Org";
      case 2:
        return grepair::StrFormat("set_node_attr %u is_capital no",
                                  pick(ids.capitals));
      default:
        break;
    }
    *knows = true;
    for (;;) {
      const NodeId p = pick(ids.persons), q = pick(ids.persons);
      if (p == q || ids.knows.count((uint64_t{p} << 32) | q) ||
          ids.knows.count((uint64_t{q} << 32) | p))
        continue;
      ids.knows.insert((uint64_t{p} << 32) | q);
      return grepair::StrFormat("add_edge %u %u knows", p, q);
    }
  }

 private:
  KgIds* ids_;
  std::discrete_distribution<int> kind_;
};

/// Edits per batch: a batch holds kMinEdits..kMaxEdits, about 256.
constexpr size_t kMinEdits = 240, kMaxEdits = 272;

/// `batches` batches of kMinEdits..kMaxEdits edits each.
std::vector<Batch> MakeStream(std::mt19937_64& rng, EditMix& mix,
                              size_t batches) {
  std::vector<Batch> out;
  while (out.size() < batches) {
    Batch b;
    b.size = std::uniform_int_distribution<size_t>(kMinEdits, kMaxEdits)(rng);
    for (size_t i = 0; i < b.size; ++i) {
      bool knows = false;
      b.requests += mix.Next(rng, &knows) + "\n";
      b.knows += knows;
    }
    b.requests += "commit\n";
    out.push_back(std::move(b));
  }
  return out;
}

// ------------------------------------------------------------ counters

Counters ReadCounters(RepairService* service) {
  Counters c;
  obs::MetricsRegistry& g = obs::MetricsRegistry::Global();
  const auto& buckets = obs::DefaultLatencyBucketsMs();
  auto counter = [&g](const char* name) {
    return g.GetCounter(name, "")->Value();
  };
  c.pool_tasks = counter("grepair_pool_tasks_total");
  obs::Histogram* wait = g.GetHistogram("grepair_pool_task_wait_ms", "", buckets);
  obs::Histogram* run = g.GetHistogram("grepair_pool_task_run_ms", "", buckets);
  c.pool_wait_ms_sum = wait->Sum();
  c.pool_waits = wait->Count();
  c.pool_run_ms_sum = run->Sum();
  c.pool_runs = run->Count();
  c.seeds = counter("grepair_match_seeds_total");
  c.candidates = counter("grepair_match_candidates_total");
  c.expansions = counter("grepair_match_expansions_total");
  c.plan_compile_us = counter("grepair_plan_compile_us_total");
  c.plan_hits = counter("grepair_plan_cache_hits_total");
  c.plan_misses = counter("grepair_plan_cache_misses_total");
  c.plan_revalidations = counter("grepair_plan_cache_revalidations_total");
  if (service != nullptr) {
    c.stats = service->stats();
    obs::MetricsRegistry* reg = service->mutable_metrics_registry();
    obs::Histogram* req = reg->GetHistogram("grepair_server_request_ms", "", buckets);
    c.request_ms_sum = req->Sum();
    c.requests = req->Count();
    c.detect_ms_sum =
        reg->GetHistogram("grepair_serve_detect_ms", "", buckets)->Sum();
  }
  return c;
}

/// Sets every commit's host-speed scale from the window's calibration
/// points, one taken before every `group` commits and one after the last.
/// A point holds a few tens of ms of the host's speed and is noisy itself,
/// so a commit is scaled by the median of the two points around its group
/// and one more on each side.
void SetScales(size_t group, Window* w) {
  const std::vector<double>& p = w->reference_ms;
  for (size_t i = 0; i < w->commits.size(); ++i) {
    const size_t g = i / group;
    std::vector<double> near(p.begin() + (g > 0 ? g - 1 : 0),
                             p.begin() + std::min(p.size(), g + 3));
    std::sort(near.begin(), near.end());
    const size_t n = near.size();
    const double median =
        n % 2 ? near[n / 2] : (near[n / 2 - 1] + near[n / 2]) / 2;
    w->commits[i].scale = kReferenceMs / median;
  }
}

// ------------------------------------------------------------ connections

/// What one client connection saw during the window.
struct ConnResult {
  std::vector<Commit> commits;
  std::vector<double> edit_ms, service_ms;
  std::vector<double> group_start_s, group_reference_ms;
  uint64_t attempted = 0, failed = 0, edits = 0, knows = 0;
  std::vector<std::string> errors;
  std::vector<std::string> checks;  ///< failed correctness checks
};

/// One request's round trip: always a ms sample, plus a bench-side span
/// (`name`, a string literal) while tracing is on.
class RoundTrip {
 public:
  explicit RoundTrip(const char* name)
      : name_(name),
        start_(Clock::now()),
        start_us_(obs::TracingEnabled() ? obs::NowUs() : 0) {}
  double ElapsedMs() const { return MsSince(start_); }
  double Stop() const {
    if (obs::TracingEnabled() && start_us_ != 0)
      obs::RecordSpan(name_, start_us_, obs::NowUs() - start_us_);
    return ElapsedMs();
  }

 private:
  const char* name_;
  Clock::time_point start_;
  uint64_t start_us_;
};

bool Record(ConnResult* r, const Reply& reply) {
  ++r->attempted;
  if (reply.ok()) return true;
  ++r->failed;
  if (r->errors.size() < 5) r->errors.push_back(reply.error);
  return false;
}

/// A staged-mode edit is acknowledged with "staged <n>".
bool RecordEdit(ConnResult* r, const Reply& reply, double ms) {
  r->edit_ms.push_back(ms);
  if (reply.ok() && reply.lines[0].rfind("staged ", 0) != 0)
    return Record(r, Reply{reply.lines, "unexpected edit reply: " +
                                            reply.lines[0]});
  return Record(r, reply);
}

/// Checks a commit reply and records it; false stops the connection.
bool RecordCommit(ConnResult* r, const Reply& reply, double ms,
                  const Batch& b, Clock::time_point t0, uint64_t* last_batch) {
  if (!Record(r, reply)) return false;
  const std::string& line = reply.lines[0];
  const std::vector<std::string> tok = grepair::SplitWhitespace(line);
  uint64_t seq = 0;
  double service = 0;
  if (tok.size() < 2 || tok[0] != "batch" ||
      !grepair::ParseUint64(tok[1], &seq) ||
      !ReplyField(line, "ms", &service)) {
    ++r->failed;
    r->errors.push_back("unparseable commit reply: " + line);
    return false;
  }
  if (seq <= *last_batch)
    r->checks.push_back(grepair::StrFormat(
        "commit batch numbers went from %llu to %llu on one connection",
        static_cast<unsigned long long>(*last_batch),
        static_cast<unsigned long long>(seq)));
  *last_batch = seq;
  r->commits.push_back(
      {MsSince(t0) / 1000.0, ms, static_cast<double>(b.size)});
  r->service_ms.push_back(service);
  r->edits += b.size;
  r->knows += b.knows;
  return true;
}

/// Closed-loop writer: sends each batch in one write and waits for every
/// reply, until its stream ends or the deadline passes; edit replies are
/// timed from that write. A stream is never replayed: a replayed edit would
/// no longer be undone by its repair. Before every group of `group` batches,
/// and after the last, the writer times the reference task while the server
/// is idle (calibrate.h).
void RunWriter(Client* c, const std::vector<Batch>& batches, size_t group,
               Clock::time_point t0, Clock::time_point deadline,
               ConnResult* r) {
  uint64_t last_batch = 0;
  for (size_t i = 0; i < batches.size() && Clock::now() < deadline; ++i) {
    if (i % group == 0) {
      r->group_reference_ms.push_back(ReferenceMs());
      r->group_start_s.push_back(MsSince(t0) / 1000.0);
    }
    const Batch& b = batches[i];
    RoundTrip rtt("client.batch");
    if (!c->Send(b.requests)) {
      Record(r, Reply{{}, "send failed"});
      break;
    }
    bool ok = true;
    for (size_t e = 0; ok && e < b.size; ++e)
      ok = RecordEdit(r, c->Read(ReplyShape::kOneLine), rtt.ElapsedMs());
    if (!ok) break;
    const Reply reply = c->Read(ReplyShape::kOneLine);
    if (!RecordCommit(r, reply, rtt.Stop(), b, t0, &last_batch)) break;
  }
  r->group_reference_ms.push_back(ReferenceMs());
}

void Merge(Window* w, const ConnResult& r) {
  auto append = [](std::vector<double>* to, const std::vector<double>& from) {
    to->insert(to->end(), from.begin(), from.end());
  };
  w->commits.insert(w->commits.end(), r.commits.begin(), r.commits.end());
  append(&w->edit_ms, r.edit_ms);
  append(&w->service_ms, r.service_ms);
  w->attempted += r.attempted;
  w->failed += r.failed;
  w->edits += r.edits;
  w->knows_edits += r.knows;
  for (const std::string& e : r.errors)
    if (w->request_errors.size() < 5) w->request_errors.push_back(e);
  w->check_failures.insert(w->check_failures.end(), r.checks.begin(),
                           r.checks.end());
}

// ------------------------------------------------------------ serve

/// Fixed work: the writer's stream holds `seconds` x kBatchesPerS batches,
/// rounded to whole groups, and the window closes once it is committed.
/// Memory that grows with each committed edit then peaks at the same point
/// for a faster or a slower program.
constexpr double kBatchesPerS = 64;
/// Consecutive commits per throughput sample (see RateSamples).
constexpr size_t kGroup = 16;
/// A window is cut at this many times `seconds`.
constexpr double kMaxStretch = 4;

/// A running server over a freshly set-up service.
struct ServeFixture {
  std::unique_ptr<RepairService> service;
  std::unique_ptr<grepair::serve::Server> server;
  std::unique_ptr<Client> first;  ///< the connection that ended set-up

  void TearDown() {
    first.reset();
    if (server) server->Stop();
    server.reset();
    service.reset();
  }
};

ServeOptions ServiceOptions(const std::string& wal_dir) {
  // Shipped defaults: publication on, one shard per pool thread, fsync
  // every commit, a checkpoint every 256 batches.
  ServeOptions so;
  so.num_threads = PoolThreads("bulk_ingest");
  so.listen_port = 0;
  so.wal_dir = wal_dir;
  return so;
}

/// Set-up as a deployment pays it: generate, repair, construct the
/// service, open the WAL, start the server, and accept a first connection.
ServeFixture SetUpServe(const RunOptions& opt, const std::string& wal_dir,
                        Window* w) {
  std::error_code ec;
  fs::remove_all(wal_dir, ec);
  const double reference_before = ReferenceMs();
  const Clock::time_point t0 = Clock::now();
  ServeFixture f;
  CleanKg kg = BuildCleanKg(opt.seed);
  f.service = std::make_unique<RepairService>(
      std::move(kg.graph), std::move(kg.rules), ServiceOptions(wal_dir));
  auto rec = f.service->OpenDurability();
  if (!rec.ok()) Fail("OpenDurability: " + rec.status().ToString());
  f.server = std::make_unique<grepair::serve::Server>(f.service.get());
  grepair::Status st = f.server->Start();
  if (!st.ok()) Fail("server start: " + st.ToString());
  f.first = std::make_unique<Client>();
  const std::string err = f.first->Connect(f.server->port());
  if (!err.empty()) Fail("first connection: " + err);
  w->setup_s = MsSince(t0) / 1000.0;
  w->setup_scale = ScaleToReference(reference_before, ReferenceMs());
  return f;
}

uint64_t NewestCheckpointBytes(const std::string& dir) {
  auto seqs = grepair::storage::ListCheckpoints(
      grepair::storage::RealFs::Default(), dir);
  if (!seqs.ok() || seqs.value().empty()) return 0;
  std::error_code ec;
  const uintmax_t n = fs::file_size(
      fs::path(dir) / grepair::storage::CheckpointName(seqs.value().front()),
      ec);
  return ec ? 0 : static_cast<uint64_t>(n);
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// The acked state must be exactly what a restart recovers: save the live
/// service, reopen the WAL directory from a fresh service built the same
/// way, save it too, and compare. SaveState writes element ids as they are
/// (a reload renumbers them densely), and recovery ends with a compacting
/// baseline checkpoint the live service has not taken, so both files are
/// first normalised by a load->save round trip through one scratch
/// service, as the WAL crash tests do.
void CheckRecovery(const RunOptions& opt, const std::string& wal_dir, ServeFixture* f, Window* w) {
  const std::string live = opt.workdir + "/live.state";
  const std::string recovered = opt.workdir + "/recovered.state";
  f->first.reset();
  f->server->Stop();
  grepair::Status st = f->service->SaveState(live);
  if (!st.ok()) Fail("live SaveState: " + st.ToString());
  f->TearDown();

  {
    CleanKg kg = BuildCleanKg(opt.seed);
    RepairService reopened(std::move(kg.graph), std::move(kg.rules),
                           ServiceOptions(wal_dir));
    auto rec = reopened.OpenDurability();
    if (!rec.ok()) {
      w->check_failures.push_back("WAL reopen failed: " +
                                  rec.status().ToString());
      return;
    }
    st = reopened.SaveState(recovered);
    if (!st.ok()) Fail("recovered SaveState: " + st.ToString());
  }

  CleanKg kg = BuildCleanKg(opt.seed);
  RepairService scratch(std::move(kg.graph), std::move(kg.rules));
  auto normalized = [&](const std::string& path) {
    grepair::Status s = scratch.RestoreState(path);
    if (s.ok()) s = scratch.SaveState(path + ".norm");
    if (!s.ok()) Fail("normalising " + path + ": " + s.ToString());
    return ReadFileBytes(path + ".norm");
  };
  if (normalized(live) != normalized(recovered))
    w->check_failures.push_back(
        "recovered state differs from the acked live state");
}

void RunServe(const RunOptions& opt, Window* w) {
  const std::string wal_dir = opt.workdir + "/wal";
  ServeFixture f = SetUpServe(opt, wal_dir, w);
  RepairService* service = f.service.get();
  w->threads = service->options().num_threads;
  w->shards = service->num_shards();
  switch (service->options().fsync_policy) {
    case grepair::storage::FsyncPolicy::kEveryCommit:
      w->fsync_policy = "every";
      break;
    case grepair::storage::FsyncPolicy::kInterval:
      w->fsync_policy = "interval";
      break;
    case grepair::storage::FsyncPolicy::kOff:
      w->fsync_policy = "off";
      break;
  }
  w->checkpoint_every = service->options().checkpoint_every;
  w->nodes_start = service->graph().NumNodes();
  w->edges_start = service->graph().NumEdges();

  // Inputs, generated from the seed before anything is timed. The server
  // is idle here (every connection waits for a request), so reading the
  // graph does not race the service.
  KgIds ids = ScanKg(service->graph());
  std::mt19937_64 rng(opt.seed * 0x9e3779b97f4a7c15ULL + 1);
  const size_t groups = static_cast<size_t>(std::max(
      1.0, std::round(opt.seconds * kBatchesPerS / kGroup)));
  w->rate_group = kGroup;
  EditMix mix(&ids);
  w->mix = {mix.share(0), mix.share(1), mix.share(2), mix.share(3)};
  const std::vector<Batch> stream =
      MakeStream(rng, mix, groups * kGroup);

  std::unique_ptr<Client> client = std::move(f.first);
  w->before = ReadCounters(service);
  if (w->traced) {
    obs::ClearTrace();
    obs::SetTracingEnabled(true);
  }
  ConnResult r;
  const Clock::time_point t0 = Clock::now();
  RunWriter(client.get(), stream, kGroup, t0,
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(opt.seconds * kMaxStretch)),
            &r);
  w->seconds = MsSince(t0) / 1000.0;
  w->window_end_us = obs::NowUs();
  Merge(w, r);
  w->group_start_s = r.group_start_s;
  w->reference_ms = r.group_reference_ms;
  SetScales(kGroup, w);

  // The client is idle again, so the service is quiescent.
  w->after = ReadCounters(service);
  {
    const Reply reply = client->Call("detect");
    if (!reply.ok() || reply.lines[0] != "0 violations")
      w->check_failures.push_back("final published detect: " +
                                  (reply.ok() ? reply.lines[0] : reply.error));
  }
  {
    obs::Span span("bench.detect_published");
    auto d = service->DetectPublished("");
    if (!d.ok() || d.value().violations != 0)
      w->check_failures.push_back("DetectPublished did not report 0");
  }
  {
    obs::Span span("bench.read_violations");
    auto v = service->ReadViolations(0, 100);
    if (!v.ok() || v.value().total != 0)
      w->check_failures.push_back("ReadViolations did not report 0");
  }
  w->nodes_end = service->graph().NumNodes();
  w->edges_end = service->graph().NumEdges();
  // Every edit but a knows edge is undone by its repair; a knows edge and
  // its repair add one edge each.
  if (w->nodes_end != w->nodes_start ||
      w->edges_end != w->edges_start + 2 * w->knows_edits)
    w->check_failures.push_back(grepair::StrFormat(
        "graph went from |V|=%zu |E|=%zu to |V|=%zu |E|=%zu after %llu knows "
        "edits; expected |V| unchanged and |E| up by two per knows edit",
        w->nodes_start, w->edges_start, w->nodes_end, w->edges_end,
        static_cast<unsigned long long>(w->knows_edits)));
  if (w->traced) {
    obs::SetTracingEnabled(false);
    w->trace_json = obs::ChromeTraceJson();
  }
  client.reset();
  w->peak_rss_mb = PeakRssMb();

  w->wal_bytes = w->after.stats.wal_bytes - w->before.stats.wal_bytes;
  w->checkpoints = w->after.stats.checkpoints - w->before.stats.checkpoints;
  w->checkpoint_file_bytes = NewestCheckpointBytes(wal_dir);
  CheckRecovery(opt, wal_dir, &f, w);
  f.TearDown();
}

// ------------------------------------------------------------ offline

/// Repairs clones of all pinned KGs in turn, starting at the seed's, so
/// every run repairs the same mix. The reference task is timed before
/// set-up, before every turn through the KGs and after the last
/// (calibrate.h).
void RunOffline(const RunOptions& opt, Window* w) {
  constexpr size_t kKgs = std::size(kPinnedKgs);
  auto pin_of = [&opt](size_t k) -> const PinnedKg& {
    return kPinnedKgs[(opt.seed + k) % kKgs];
  };
  const double reference_before = ReferenceMs();
  const Clock::time_point setup0 = Clock::now();
  std::vector<std::unique_ptr<grepair::DatasetBundle>> bundles;
  for (size_t k = 0; k < kKgs; ++k) {
    grepair::InjectOptions inject;
    inject.rate = 0.05;
    inject.seed = pin_of(k).inject_seed;
    auto made =
        grepair::MakeKgBundle(OfflineKgOptions(pin_of(k).graph_seed), inject);
    if (!made.ok()) Fail("KG bundle: " + made.status().ToString());
    bundles.push_back(
        std::make_unique<grepair::DatasetBundle>(std::move(made).value()));
  }
  w->setup_s = MsSince(setup0) / 1000.0;
  w->setup_scale = ScaleToReference(reference_before, ReferenceMs());
  w->threads = PoolThreads(opt.workload);
  for (const auto& b : bundles) {
    w->nodes_start += b->graph.NumNodes();
    w->edges_start += b->graph.NumEdges();
  }
  grepair::RepairOptions ro;  // greedy, incremental: the paper's method
  ro.num_threads = w->threads;
  const grepair::RepairEngine engine(ro);

  w->before = ReadCounters(nullptr);
  if (w->traced) {
    obs::ClearTrace();
    obs::SetTracingEnabled(true);
  }
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(opt.seconds));
  std::vector<Graph> repaired;
  std::vector<size_t> first_fixes(kKgs, 0);
  std::vector<double> reference_ms;
  // Whole turns only, so every KG weighs the same.
  for (size_t i = 0; i % kKgs != 0 || Clock::now() < deadline; ++i) {
    const size_t k = i % kKgs;
    if (k == 0) reference_ms.push_back(ReferenceMs());
    const grepair::DatasetBundle& bundle = *bundles[k];
    Graph work = bundle.graph.Clone();
    const Clock::time_point r0 = Clock::now();
    grepair::Result<grepair::RepairResult> r =
        grepair::Status::Internal("not run");
    {
      obs::Span span("bench.repair_engine_run");
      r = engine.Run(&work, bundle.rules);
    }
    const double ms = MsSince(r0);
    ++w->attempted;
    if (!r.ok() || r.value().remaining_violations != 0) {
      ++w->failed;
      if (w->request_errors.size() < 5)
        w->request_errors.push_back(
            r.ok() ? grepair::StrFormat("repair left %zu violations",
                                        r.value().remaining_violations)
                   : r.status().ToString());
      break;
    }
    const grepair::RepairResult& res = r.value();
    if (i < kKgs) {
      first_fixes[k] = res.applied.size();
      const double f1 =
          grepair::EvaluateRepair(
              work, res.applied, bundle.truth,
              static_cast<NodeId>(bundle.graph.NodeIdBound()))
              .f1;
      w->f1 += f1 / kKgs;
      if (std::fabs(f1 - pin_of(k).f1) > 1e-12)
        w->check_failures.push_back(grepair::StrFormat(
            "repair F1 %.17g differs from the pinned %.17g (KG seed %llu)",
            f1, pin_of(k).f1,
            static_cast<unsigned long long>(pin_of(k).graph_seed)));
      repaired.push_back(std::move(work));
    } else if (res.applied.size() != first_fixes[k]) {
      w->check_failures.push_back(grepair::StrFormat(
          "repair applied %zu fixes, the first run %zu", res.applied.size(),
          first_fixes[k]));
    }
    w->commits.push_back({MsSince(t0) / 1000.0, ms,
                          static_cast<double>(res.applied.size())});
    w->repair_detect_ms.push_back(res.detect_ms);
    w->repair_rounds.push_back(static_cast<double>(res.rounds));
    w->edits += res.applied.size();
  }
  reference_ms.push_back(ReferenceMs());
  w->seconds = MsSince(t0) / 1000.0;
  w->window_end_us = obs::NowUs();
  w->after = ReadCounters(nullptr);
  w->reference_ms = reference_ms;
  SetScales(kKgs, w);
  {
    obs::Span span("bench.detect_all");
    for (size_t k = 0; k < repaired.size(); ++k) {
      grepair::ViolationStore store;
      const size_t left = grepair::DetectAll(repaired[k], bundles[k]->rules,
                                             &store, nullptr, w->threads);
      if (left != 0)
        w->check_failures.push_back(grepair::StrFormat(
            "DetectAll found %zu violations after repair", left));
    }
  }
  if (w->traced) {
    obs::SetTracingEnabled(false);
    w->trace_json = obs::ChromeTraceJson();
  }
  for (const Graph& g : repaired) {
    w->nodes_end += g.NumNodes();
    w->edges_end += g.NumEdges();
  }
  w->peak_rss_mb = PeakRssMb();
  if (repaired.size() != kKgs)
    w->check_failures.push_back("not every pinned KG was repaired");
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {
      "bulk_ingest", "offline_repair"};
  return kNames;
}

size_t Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0)
    return static_cast<size_t>(CPU_COUNT(&set));
  return std::thread::hardware_concurrency();
}


size_t PoolThreads(const std::string& workload) {
  return workload == "offline_repair" ? 2 : 1;
}

Window RunWorkload(const RunOptions& opt, bool traced) {
  Window w;
  w.workload = opt.workload;
  w.traced = traced;
  std::error_code ec;
  fs::create_directories(opt.workdir, ec);
  if (ec) Fail("cannot create " + opt.workdir + ": " + ec.message());
  if (opt.workload == "offline_repair")
    RunOffline(opt, &w);
  else
    RunServe(opt, &w);
  // A failed check keeps its files (WAL directory, saved states) to inspect.
  if (w.check_failures.empty()) fs::remove_all(opt.workdir, ec);
  else w.check_failures.push_back("inputs and outputs kept in " + opt.workdir);
  return w;
}

}  // namespace perfbench
