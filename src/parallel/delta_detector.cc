#include "parallel/delta_detector.h"

#include <algorithm>
#include <exception>
#include <unordered_set>
#include <utility>
#include <vector>

namespace grepair {

namespace {

// One unit of delta-detection work: one contiguous block of one rule's
// ascending anchor list, searched through either the edge-anchor or the
// node-anchor path. Tasks are created in emission order (rule id, edge
// slices before node slices, slice index); each fills only its own slot.
struct DeltaTask {
  RuleId rule;
  const MatchPlan* plan = nullptr;  // compiled plan for this rule, if any
  bool edge_kind = false;          // true: edge anchors, false: node anchors
  std::vector<EdgeId> edge_slice;  // ascending; used when edge_kind
  std::vector<NodeId> node_slice;  // ascending; used when !edge_kind
  std::vector<Match> out;          // raw, pre-dedup
  MatchStats stats;
};

void RunTask(const GraphView& g, const RuleSet& rules, DeltaTask* task) {
  DeltaMatcher dm(g, rules[task->rule].pattern(), task->plan);
  auto collect = [task](const Match& m) {
    task->out.push_back(m);
    return true;
  };
  task->stats = task->edge_kind
                    ? dm.MatchEdgeAnchors(task->edge_slice, collect)
                    : dm.MatchNodeAnchors(task->node_slice, collect);
}

}  // namespace

ParallelDeltaDetector::ParallelDeltaDetector(ThreadPool* pool,
                                             ParallelDeltaOptions options)
    : pool_(pool), options_(options) {}

MatchStats ParallelDeltaDetector::Detect(const GraphView& g, const RuleSet& rules,
                                         const std::vector<EditEntry>& delta,
                                         const Emit& emit,
                                         const MatchPlan* const* plans) const {
  if (rules.empty()) return MatchStats{};
  // Anchor extraction never reads the pattern, so one computation (through
  // an arbitrary rule's DeltaMatcher) serves the whole rule set.
  return Detect(g, rules,
                DeltaMatcher(g, rules[0].pattern()).ComputeAnchors(delta),
                emit, plans);
}

MatchStats ParallelDeltaDetector::Detect(const GraphView& g, const RuleSet& rules,
                                         const DeltaMatcher::Anchors& anchors,
                                         const Emit& emit,
                                         const MatchPlan* const* plans) const {
  MatchStats total;
  if (rules.empty()) return total;
  const size_t num_anchors = anchors.nodes.size() + anchors.edges.size();

  // Tiny deltas (the per-fix cascade case) stay on the calling thread: the
  // pool round-trip would dominate a handful of anchored searches.
  if (!WouldFanOut(num_anchors)) {
    for (RuleId r = 0; r < rules.size(); ++r) {
      DeltaMatcher dm(g, rules[r].pattern(), plans ? plans[r] : nullptr);
      MatchStats st = dm.FindDelta(anchors, [&](const Match& m) {
        emit(r, m);
        return true;
      });
      total.expansions += st.expansions;
      total.matches += st.matches;
      total.exhausted |= st.exhausted;
    }
    return total;
  }

  const size_t max_shards = options_.max_shards_per_rule
                                ? options_.max_shards_per_rule
                                : 2 * pool_->NumThreads();
  auto num_slices = [&](size_t n) {
    return n == 0 ? size_t{0} : std::min(std::max<size_t>(1, max_shards), n);
  };
  const size_t edge_slices = num_slices(anchors.edges.size());
  const size_t node_slices = num_slices(anchors.nodes.size());
  std::vector<DeltaTask> tasks;
  for (RuleId r = 0; r < rules.size(); ++r) {
    const MatchPlan* plan = plans ? plans[r] : nullptr;
    for (size_t s = 0; s < edge_slices; ++s) {
      DeltaTask t;
      t.rule = r;
      t.plan = plan;
      t.edge_kind = true;
      auto [begin, end] = BlockRange(anchors.edges.size(), s, edge_slices);
      t.edge_slice.assign(anchors.edges.begin() + begin,
                          anchors.edges.begin() + end);
      tasks.push_back(std::move(t));
    }
    for (size_t s = 0; s < node_slices; ++s) {
      DeltaTask t;
      t.rule = r;
      t.plan = plan;
      t.edge_kind = false;
      auto [begin, end] = BlockRange(anchors.nodes.size(), s, node_slices);
      t.node_slice.assign(anchors.nodes.begin() + begin,
                          anchors.nodes.begin() + end);
      tasks.push_back(std::move(t));
    }
  }

  std::vector<std::future<void>> futures;
  futures.reserve(tasks.size());
  for (DeltaTask& t : tasks) {
    futures.push_back(
        pool_->Submit([&g, &rules, task = &t] { RunTask(g, rules, task); }));
  }
  // Drain EVERY future before letting any exception unwind: workers hold raw
  // pointers into `tasks`, so the frame must stay alive until all finished.
  std::exception_ptr first_error;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);

  // Merge per rule group with the sequential footprint dedup: task order is
  // ascending anchor order (edges first, then nodes — exactly FindDelta's
  // visit order), so the survivor stream is bit-identical to the
  // sequential loop.
  size_t i = 0;
  while (i < tasks.size()) {
    size_t j = i + 1;
    while (j < tasks.size() && tasks[j].rule == tasks[i].rule) ++j;
    const RuleId rule = tasks[i].rule;
    std::unordered_set<uint64_t> seen;
    auto emit_dedup = [&](const Match& m) {
      if (!seen.insert(DeltaMatchHash(m)).second) return;
      emit(rule, m);
    };
    for (size_t k = i; k < j; ++k) {
      total.expansions += tasks[k].stats.expansions;
      total.exhausted |= tasks[k].stats.exhausted;
    }
    for (size_t k = i; k < j; ++k)
      for (const Match& m : tasks[k].out) emit_dedup(m);
    total.matches += seen.size();
    i = j;
  }
  return total;
}

}  // namespace grepair
