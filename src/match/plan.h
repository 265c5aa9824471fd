// Compiled match plans: the pattern-interpretation work Matcher used to
// redo per expansion — pivot selection, predicate scanning, variable
// ordering — done ONCE per (pattern, graph state) and replayed by a typed
// step list. A MatchPlan carries one PlanBody per anchor shape the system
// searches with (the unanchored pass, every single-var anchor, every
// edge-endpoint anchor pair); each body fixes the variable order and, per
// step, the candidate source (adjacency pivots to intersect, attribute
// joins to probe, or a label scan) plus the predicate checks that become
// decidable at that step.
//
// Determinism contract (the invariant every parallel layer builds on): a
// planned search emits the EXACT match stream of the interpreted search.
// Two facts make that hold by construction:
//   1. the variable order is computed by the same ordering function the
//      interpreter uses (PickNextVarOrdered below — Matcher::PickNextVar
//      delegates to it), and the order depends only on the pattern, the
//      bound-variable SET and graph label cardinalities, so it is static
//      per (pattern, view, anchor shape);
//   2. candidate lists on both paths are ascending and duplicate-free, and
//      a candidate is accepted purely by per-binding checks (label,
//      injectivity, adjacency, decidable predicates) — so SHRINKING a
//      candidate set (intersection, tighter partitions) can never change
//      the accepted sequence, only the work spent rejecting.
// Expansion counts also match exactly (one expansion per accepted binding
// plus the root), so budget truncation and the parallel detectors'
// sequential-rerun gate fire identically. MatchOptions::use_plan is the
// ablation switch back to the interpreter.
//
// Plans are compiled against a FROZEN view (a snapshot or a graph that is
// not mutating). The cascade repair path mutates the graph between
// searches and therefore stays on the interpreter (DESIGN.md "Match
// planning").
#ifndef GREPAIR_MATCH_PLAN_H_
#define GREPAIR_MATCH_PLAN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/graph_view.h"
#include "match/pattern.h"
#include "match/predicate.h"

namespace grepair {

/// The one variable-ordering policy, shared verbatim by the interpreter
/// (Matcher::PickNextVar) and the plan compiler so their orders cannot
/// drift: prefer vars adjacent to the bound set, then vars reachable
/// through an attr-join with a bound var or constant, then the rarest
/// label; first var wins ties. `is_bound(v)` reports membership in the
/// bound set — the ordering reads nothing else from the search state.
template <typename BoundFn>
VarId PickNextVarOrdered(const GraphView& g, const Pattern& p,
                         const BoundFn& is_bound) {
  VarId best = kNoVar;
  bool best_adjacent = false;
  bool best_attr_join = false;
  size_t best_freq = SIZE_MAX;
  for (VarId v = 0; v < p.NumNodes(); ++v) {
    if (is_bound(v)) continue;
    bool adjacent = false;
    for (const auto& pe : p.edges()) {
      if ((pe.src == v && pe.dst != v && is_bound(pe.dst)) ||
          (pe.dst == v && pe.src != v && is_bound(pe.src))) {
        adjacent = true;
        break;
      }
    }
    bool attr_join = false;
    if (!adjacent) {
      for (const auto& pred : p.predicates()) {
        if (pred.op != CmpOp::kEq) continue;
        if (PredicateUsesEdges(pred)) continue;
        if (pred.lhs.var == v &&
            (pred.rhs.var == kNoVar || is_bound(pred.rhs.var))) {
          attr_join = true;
          break;
        }
        if (pred.rhs.var == v &&
            (pred.lhs.var == kNoVar || is_bound(pred.lhs.var))) {
          attr_join = true;
          break;
        }
      }
    }
    size_t freq = g.CountNodesWithLabel(p.nodes()[v].label);
    if (p.nodes()[v].label == 0) freq = g.NumNodes();
    // Rank: adjacency > attr-join > rarity.
    bool better;
    if (adjacent != best_adjacent) {
      better = adjacent;
    } else if (!adjacent && attr_join != best_attr_join) {
      better = attr_join;
    } else {
      better = freq < best_freq;
    }
    if (best == kNoVar || better) {
      best = v;
      best_adjacent = adjacent;
      best_attr_join = attr_join;
      best_freq = freq;
    }
  }
  return best;
}

/// One bound-adjacent pattern edge of a step's variable: candidates come
/// from the bound endpoint's adjacency list (OutEdges when it is the src,
/// InEdges when it is the dst).
struct PlanPivot {
  uint32_t pattern_edge = 0;  ///< index into Pattern::edges()
  VarId bound_var = kNoVar;   ///< the endpoint bound before this step
  bool forward = false;       ///< bound is src: gather OutEdges, take dst
  SymbolId edge_label = 0;    ///< edge label filter (0 = any)
};

/// One usable EQ attr-join source for a step, in predicate order (the
/// interpreter takes the first whose value resolves non-absent).
struct PlanAttrJoin {
  SymbolId attr = 0;        ///< the step var's attribute
  VarId other_var = kNoVar; ///< kNoVar: constant join
  SymbolId other_attr = 0;  ///< bound var's attribute (other_var != kNoVar)
  SymbolId constant = 0;    ///< interned constant (other_var == kNoVar)
  /// Index (into Pattern::predicates()) of the EQ predicate this join came
  /// from. A candidate drawn from the join's attr index satisfies that
  /// predicate by construction, so the per-binding check skips it.
  uint32_t pred_index = 0;
};

/// One search step: bind `var` from the typed candidate source, then run
/// the per-binding checks. Compiled per (pattern, anchor shape).
struct PlanStep {
  enum class Source : uint8_t { kAdjacency, kAttrJoin, kLabelScan };

  VarId var = kNoVar;
  SymbolId label = 0;  ///< node label filter (0 = any)
  Source source = Source::kLabelScan;
  /// ALL bound-adjacent pattern edges (non-empty iff source == kAdjacency):
  /// the runtime gathers the smallest pivot's neighbor list and intersects
  /// the affordable others; pivots left out of the intersection are checked
  /// per candidate, exactly like the interpreter's adjacency loop.
  std::vector<PlanPivot> pivots;
  /// Self-loop pattern edges (src == dst == var), checked per candidate.
  std::vector<uint32_t> self_loops;
  /// Attr-join candidate sources, first resolvable wins (source ==
  /// kAttrJoin; may be non-empty on adjacency steps too, unused there).
  std::vector<PlanAttrJoin> attr_joins;
  /// Indices into Pattern::predicates() that become fully decidable when
  /// `var` binds (node-only predicates whose other operand, if any, is
  /// bound by an earlier step or the anchor) — hoisted to this step so no
  /// later step rescans them. NAC checks are NOT hoisted: the interpreter
  /// runs them only at the full binding, and moving them would change
  /// expansion counts under budget truncation.
  std::vector<uint32_t> preds;
};

/// The step list for one anchor shape. `anchor_mask` bit v set = node var v
/// is pre-bound before the search starts.
struct PlanBody {
  uint32_t anchor_mask = 0;
  std::vector<PlanStep> steps;  ///< one per unbound var, in search order
};

/// A compiled plan for one pattern over one frozen view. Immutable after
/// Compile; safe to share read-only across pool workers.
class MatchPlan {
 public:
  MatchPlan() = default;

  /// Compiles bodies for every anchor shape the system searches with: the
  /// empty mask (full detection seeding), each single-var mask (node
  /// anchors, per-seed sharding), and each pattern edge's endpoint mask
  /// (edge anchors). Patterns with more than 32 node vars get an unusable
  /// plan (BodyFor always null) and fall back to the interpreter.
  static MatchPlan Compile(const Pattern& pattern, const GraphView& g);

  /// The compiled body for an anchor shape, or nullptr when no body was
  /// compiled for that mask (the caller falls back to the interpreter).
  const PlanBody* BodyFor(uint32_t anchor_mask) const;

  /// The pattern this plan was compiled for (identity comparison — a plan
  /// must never run against a different Pattern object).
  const Pattern* pattern() const { return pattern_; }

  bool usable() const { return usable_; }

  /// Human-readable dump (the `explain_plan` CLI subcommand).
  std::string Explain(const Vocabulary& vocab) const;

 private:
  const Pattern* pattern_ = nullptr;
  bool usable_ = false;
  /// Sum of the label cardinalities the ordering read at compile time
  /// (printed by Explain).
  uint64_t signature_ = 0;
  std::vector<PlanBody> bodies_;  ///< sorted by anchor_mask
};

/// Per-thread reusable search workspace: bindings, edge dedup, and
/// per-depth candidate buffers, so the planned hot loop allocates nothing
/// after warm-up. Leased via ScratchLease — a thread-local freelist keeps
/// one scratch per concurrent search on the thread (re-entrant callbacks
/// that start nested searches lease their own).
struct MatchScratch {
  std::vector<NodeId> binding;       // var -> node (kInvalidNode = unbound)
  std::vector<EdgeId> edge_binding;  // pattern edge -> concrete edge
  std::vector<NodeId> used_nodes;    // injectivity scratch (interpreter)
  std::vector<EdgeId> used_edges;    // injective edge enumeration scratch
  struct DepthBufs {
    std::vector<uint32_t> cand;    // the step's candidate list
    std::vector<uint32_t> gather;  // pivot adjacency gather
    std::vector<uint32_t> tmp;     // intersection ping-pong
  };
  std::vector<DepthBufs> depth;

  /// Resets bindings for a pattern and pre-sizes the depth buffers so no
  /// mid-search resize invalidates a live reference.
  void Prepare(size_t num_vars, size_t num_edges) {
    binding.assign(num_vars, kInvalidNode);
    edge_binding.assign(num_edges, kInvalidEdge);
    used_nodes.clear();
    used_edges.clear();
    if (depth.size() < num_vars + 1) depth.resize(num_vars + 1);
  }
};

/// RAII lease of a thread-local MatchScratch (freelist-pooled: acquire
/// pops, destruction pushes back). Move-only.
class ScratchLease {
 public:
  ScratchLease();
  ~ScratchLease();
  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;

  MatchScratch* get() const { return s_.get(); }
  MatchScratch* operator->() const { return s_.get(); }

 private:
  std::unique_ptr<MatchScratch> s_;
};

/// Compiles one plan per rule pattern for a detection pass over a frozen
/// view. Index-aligned with the pattern list.
std::vector<MatchPlan> CompilePlans(
    const std::vector<const Pattern*>& patterns, const GraphView& g);

}  // namespace grepair

#endif  // GREPAIR_MATCH_PLAN_H_
