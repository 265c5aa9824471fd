#include "match/matcher.h"

#include <algorithm>

#include "graph/snapshot.h"
#include "match/intersect.h"
#include "match/plan.h"
#include "match/predicate.h"
#include "obs/metrics.h"

namespace grepair {

namespace {

// Process-wide matcher instruments. The hot loops count into plain
// SearchState locals; one flush of sharded-cell adds per FindAll keeps the
// per-expansion cost at zero (DESIGN.md "Observability").
struct MatchMetrics {
  obs::Counter* seeds;
  obs::Counter* candidates;
  obs::Counter* expansions;
  obs::Counter* matches;
  obs::Counter* gallop;
  obs::Counter* merge;
};

MatchMetrics& Metrics() {
  static MatchMetrics m = [] {
    auto& reg = obs::MetricsRegistry::Global();
    return MatchMetrics{
        reg.GetCounter("grepair_match_seeds_total",
                       "Root-level seed candidates tried across searches."),
        reg.GetCounter("grepair_match_candidates_total",
                       "Candidate nodes probed at every search depth."),
        reg.GetCounter("grepair_match_expansions_total",
                       "Backtracking search-tree expansions."),
        reg.GetCounter("grepair_match_matches_total",
                       "Embeddings found and delivered to callbacks."),
        reg.GetCounter("grepair_intersect_gallop_total",
                       "Candidate intersections taken by the galloping "
                       "kernel (planned path)."),
        reg.GetCounter("grepair_intersect_merge_total",
                       "Candidate intersections taken by the block-wise "
                       "merge kernel (planned path).")};
  }();
  return m;
}

// Injectivity via linear scan: the bound set is pattern-sized (a handful of
// entries), where a scan over contiguous ids beats hashed membership.
bool NodeBound(const std::vector<NodeId>& binding, NodeId node) {
  return std::find(binding.begin(), binding.end(), node) != binding.end();
}

bool EdgeBound(const std::vector<EdgeId>& edge_binding, EdgeId e) {
  return std::find(edge_binding.begin(), edge_binding.end(), e) !=
         edge_binding.end();
}

// A pivot list this many times larger than the current candidate set is
// cheaper to leave to the per-candidate HasEdge check than to gather, sort
// and intersect.
constexpr size_t kIntersectSlack = 8;

}  // namespace

bool Match::ContainsNode(NodeId n) const {
  return std::find(nodes.begin(), nodes.end(), n) != nodes.end();
}

bool Match::ContainsEdge(EdgeId e) const {
  return std::find(edges.begin(), edges.end(), e) != edges.end();
}

Matcher::Matcher(const GraphView& graph, const Pattern& pattern,
                 const MatchPlan* plan)
    : g_(graph), p_(pattern), plan_(plan), snap_(graph.AsSnapshot()) {}

struct Matcher::SearchState {
  const MatchOptions* opts;
  const MatchCallback* cb = nullptr;
  MatchStats stats;
  bool stop = false;

  MatchScratch* s = nullptr;       // bindings + per-depth candidate buffers
  const PlanBody* body = nullptr;  // non-null: compiled extension path
  size_t bound_count = 0;
  IntersectStats isect;  // kernel tallies, flushed once per FindAll

  // Local observability tallies, flushed to the registry once per FindAll.
  size_t root_depth = 0;      // bound_count after anchors = the seed level
  size_t obs_seeds = 0;       // candidates tried at the seed level
  size_t obs_candidates = 0;  // candidates generated at every level
};

// Checks label, injectivity, adjacency to all bound neighbors, and every
// predicate that becomes fully bound with this assignment.
bool Matcher::CheckNewBinding(SearchState* st, VarId var, NodeId node) const {
  if (!g_.NodeAlive(node)) return false;
  const PatternNode& pn = p_.nodes()[var];
  if (pn.label != 0 && g_.NodeLabel(node) != pn.label) return false;
  std::vector<NodeId>& binding = st->s->binding;
  if (NodeBound(binding, node)) return false;

  // Adjacency: every pattern edge between var and an already-bound var must
  // have at least one concrete counterpart.
  for (const auto& pe : p_.edges()) {
    if (pe.src == var && binding[pe.dst] != kInvalidNode) {
      if (!g_.HasEdge(node, binding[pe.dst], pe.label)) return false;
    } else if (pe.dst == var && binding[pe.src] != kInvalidNode) {
      if (!g_.HasEdge(binding[pe.src], node, pe.label)) return false;
    } else if (pe.src == var && pe.dst == var) {
      if (!g_.HasEdge(node, node, pe.label)) return false;
    }
  }

  // Predicates that just became decidable. (Edge-attribute predicates stay
  // kUnknown here — they are settled during edge enumeration.)
  binding[var] = node;
  bool ok = true;
  for (const auto& pred : p_.predicates()) {
    bool involves = (!pred.lhs.is_edge && pred.lhs.var == var) ||
                    (!pred.rhs.is_edge && pred.rhs.var == var);
    if (!involves) continue;
    if (EvalPredicate(g_, pred, binding) == PredVerdict::kFalse) {
      ok = false;
      break;
    }
  }
  binding[var] = kInvalidNode;
  return ok;
}

// The planned counterpart: same checks, but the pattern scan for relevant
// edges/predicates was done at compile time, and checks the candidate
// source already guarantees are skipped. `covered_pivots` bit i set means
// the candidate list was gathered from (or intersected with) pivot i's
// alive-adjacency under its edge-label filter — exactly HasEdge's
// membership on every backend, so re-probing cannot change the verdict.
// `covered_pred` (>= 0) is the attr-join predicate whose index supplied
// the candidates: membership means node.attr == the resolved value, which
// is the predicate's truth. Uncovered pivots/predicates are checked in
// full, so the accepted set never depends on the candidate source.
bool Matcher::CheckPlannedBinding(SearchState* st, const PlanStep& step,
                                  NodeId node, uint32_t covered_pivots,
                                  int covered_pred) const {
  if (!g_.NodeAlive(node)) return false;
  if (step.label != 0 && g_.NodeLabel(node) != step.label) return false;
  std::vector<NodeId>& binding = st->s->binding;
  if (NodeBound(binding, node)) return false;

  for (size_t i = 0; i < step.pivots.size(); ++i) {
    if (i < 32 && (covered_pivots >> i) & 1u) continue;
    const PlanPivot& piv = step.pivots[i];
    const NodeId b = binding[piv.bound_var];
    const bool ok = piv.forward ? g_.HasEdge(b, node, piv.edge_label)
                                : g_.HasEdge(node, b, piv.edge_label);
    if (!ok) return false;
  }
  for (uint32_t ei : step.self_loops)
    if (!g_.HasEdge(node, node, p_.edges()[ei].label)) return false;

  if (step.preds.empty()) return true;
  binding[step.var] = node;
  bool ok = true;
  for (uint32_t pi : step.preds) {
    if (covered_pred >= 0 && pi == static_cast<uint32_t>(covered_pred))
      continue;
    if (EvalPredicate(g_, p_.predicates()[pi], binding) ==
        PredVerdict::kFalse) {
      ok = false;
      break;
    }
  }
  binding[step.var] = kInvalidNode;
  return ok;
}

// Candidate nodes for `var`, from the most selective available source:
// 1) adjacency to a bound var, 2) attr-index join via an EQ predicate with
// a bound var or constant, 3) label index. Writes into *out (replaced).
void Matcher::CandidatesFor(const SearchState& st, VarId var,
                            std::vector<NodeId>* out, bool* sorted) const {
  const std::vector<NodeId>& binding = st.s->binding;
  out->clear();
  *sorted = false;
  // 1) adjacency pivot: choose the bound-adjacent pattern edge whose bound
  //    endpoint has the smallest relevant degree.
  int best_edge = -1;
  bool best_forward = false;  // true: bound is src, candidates from OutEdges
  size_t best_deg = SIZE_MAX;
  for (size_t i = 0; st.opts->use_adjacency_pivot && i < p_.edges().size();
       ++i) {
    const auto& pe = p_.edges()[i];
    if (pe.dst == var && pe.src != var && binding[pe.src] != kInvalidNode) {
      size_t deg = g_.OutDegree(binding[pe.src]);
      if (deg < best_deg) {
        best_deg = deg;
        best_edge = static_cast<int>(i);
        best_forward = true;
      }
    }
    if (pe.src == var && pe.dst != var && binding[pe.dst] != kInvalidNode) {
      size_t deg = g_.InDegree(binding[pe.dst]);
      if (deg < best_deg) {
        best_deg = deg;
        best_edge = static_cast<int>(i);
        best_forward = false;
      }
    }
  }
  if (best_edge >= 0) {
    const auto& pe = p_.edges()[best_edge];
    if (best_forward) {
      NodeId b = binding[pe.src];
      for (EdgeId e : g_.OutEdges(b)) {
        if (pe.label != 0 && g_.EdgeLabel(e) != pe.label) continue;
        out->push_back(g_.Edge(e).dst);
      }
    } else {
      NodeId b = binding[pe.dst];
      for (EdgeId e : g_.InEdges(b)) {
        if (pe.label != 0 && g_.EdgeLabel(e) != pe.label) continue;
        out->push_back(g_.Edge(e).src);
      }
    }
    // Sort+unique in place replaces the old per-call unordered_set dedup;
    // the search wants ascending order anyway, so report it as sorted and
    // downstream skips its re-sort.
    SortUniqueIds(out);
    *sorted = true;
    return;
  }

  // 2) attribute join: EQ predicate var.attr = bound.attr / constant.
  for (const auto& pred : p_.predicates()) {
    if (!st.opts->use_attr_join) break;
    if (pred.op != CmpOp::kEq) continue;
    if (PredicateUsesEdges(pred)) continue;
    const AttrOperand* self = nullptr;
    const AttrOperand* other = nullptr;
    if (pred.lhs.var == var) {
      self = &pred.lhs;
      other = &pred.rhs;
    } else if (pred.rhs.var == var) {
      self = &pred.rhs;
      other = &pred.lhs;
    } else {
      continue;
    }
    SymbolId value = 0;
    if (other->var == kNoVar) {
      value = other->constant;
    } else if (binding[other->var] != kInvalidNode) {
      value = g_.NodeAttr(binding[other->var], other->attr);
    } else {
      continue;
    }
    if (value == 0) continue;  // absent attr: EQ can't hold anyway
    *sorted = g_.CollectNodesWithAttr(self->attr, value, out);
    return;
  }

  // 3) label index.
  *sorted = g_.CollectNodesWithLabel(p_.nodes()[var].label, out);
}

// Candidate list for one planned step: pointer + count, either a zero-copy
// snapshot partition span or this depth's scratch buffer.
size_t Matcher::PlannedCandidates(SearchState* st, const PlanStep& step,
                                  size_t depth, const NodeId** out,
                                  uint32_t* covered_pivots,
                                  int* covered_pred) const {
  MatchScratch::DepthBufs& bufs = st->s->depth[depth];
  const std::vector<NodeId>& binding = st->s->binding;
  *covered_pivots = 0;
  *covered_pred = -1;

  if (step.source == PlanStep::Source::kAdjacency) {
    // Gather the pivot with the smallest runtime degree (the same pivot the
    // interpreter would pick), then shrink the set by intersecting the
    // other pivots' neighbor lists where that is affordable.
    size_t best = 0;
    size_t best_deg = SIZE_MAX;
    for (size_t i = 0; i < step.pivots.size(); ++i) {
      const PlanPivot& piv = step.pivots[i];
      const NodeId b = binding[piv.bound_var];
      const size_t deg = piv.forward ? g_.OutDegree(b) : g_.InDegree(b);
      if (deg < best_deg) {
        best_deg = deg;
        best = i;
      }
    }
    const auto gather = [this, &binding](const PlanPivot& piv,
                                         std::vector<NodeId>* dst) {
      dst->clear();
      const NodeId b = binding[piv.bound_var];
      if (piv.forward) {
        for (EdgeId e : g_.OutEdges(b)) {
          if (piv.edge_label != 0 && g_.EdgeLabel(e) != piv.edge_label)
            continue;
          dst->push_back(g_.Edge(e).dst);
        }
      } else {
        for (EdgeId e : g_.InEdges(b)) {
          if (piv.edge_label != 0 && g_.EdgeLabel(e) != piv.edge_label)
            continue;
          dst->push_back(g_.Edge(e).src);
        }
      }
      SortUniqueIds(dst);
    };
    gather(step.pivots[best], &bufs.cand);
    if (best < 32) *covered_pivots |= 1u << best;
    for (size_t i = 0; i < step.pivots.size() && !bufs.cand.empty(); ++i) {
      if (i == best) continue;
      const PlanPivot& piv = step.pivots[i];
      const NodeId b = binding[piv.bound_var];
      const size_t deg = piv.forward ? g_.OutDegree(b) : g_.InDegree(b);
      if (deg > kIntersectSlack * bufs.cand.size()) continue;
      gather(piv, &bufs.gather);
      IntersectSorted(bufs.cand, bufs.gather, &bufs.tmp, &st->isect);
      bufs.cand.swap(bufs.tmp);
      if (i < 32) *covered_pivots |= 1u << i;
    }
    *out = bufs.cand.data();
    return bufs.cand.size();
  }

  if (step.source == PlanStep::Source::kAttrJoin) {
    for (const PlanAttrJoin& j : step.attr_joins) {
      const SymbolId value =
          j.other_var == kNoVar ? j.constant
                                : g_.NodeAttr(binding[j.other_var],
                                              j.other_attr);
      // An absent bound-side value fails this join's EQ predicate for every
      // candidate (absent never satisfies EQ), and that predicate is checked
      // at this step, so no candidate can be accepted: skip the scan. The
      // stream and expansion count are the interpreter's, which scans and
      // rejects them all.
      if (value == 0 && j.other_var != kNoVar) return 0;
      if (value == 0) continue;
      *covered_pred = static_cast<int>(j.pred_index);
      if (snap_ != nullptr) {
        const IdSpan span = snap_->NodesWithAttrSorted(j.attr, value);
        *out = span.ptr;
        return span.len;
      }
      if (!g_.CollectNodesWithAttr(j.attr, value, &bufs.cand))
        std::sort(bufs.cand.begin(), bufs.cand.end());
      *out = bufs.cand.data();
      return bufs.cand.size();
    }
    // No join resolved at runtime: label scan, like the interpreter.
  }

  if (snap_ != nullptr) {
    const IdSpan span = snap_->NodesWithLabelSorted(step.label);
    *out = span.ptr;
    return span.len;
  }
  if (!g_.CollectNodesWithLabel(step.label, &bufs.cand))
    std::sort(bufs.cand.begin(), bufs.cand.end());
  *out = bufs.cand.data();
  return bufs.cand.size();
}

// Next unbound var: prefer ones adjacent to the bound set; tie-break by the
// graph-level frequency of the var's label (rarest first). Delegates to the
// shared ordering policy in plan.h — the plan compiler runs the SAME code,
// which is what keeps planned and interpreted variable orders identical.
VarId Matcher::PickNextVar(const SearchState& st) const {
  const std::vector<NodeId>& binding = st.s->binding;
  return PickNextVarOrdered(
      g_, p_, [&binding](VarId v) { return binding[v] != kInvalidNode; });
}

// All node vars bound: enumerate injective concrete-edge assignments for the
// pattern edges, then run NACs and emit.
void Matcher::EnumerateEdges(SearchState* st, size_t edge_idx) const {
  if (st->stop) return;
  std::vector<NodeId>& binding = st->s->binding;
  std::vector<EdgeId>& edge_binding = st->s->edge_binding;
  if (edge_idx == p_.NumEdges()) {
    // NACs (node-var based) — checked once per node binding; doing it here
    // (inside edge enumeration) would re-check identically, so callers
    // arrange to call with edge_idx==0 only after NACs pass.
    // Edge-attribute predicates become decidable only now.
    for (const auto& pred : p_.predicates()) {
      if (!PredicateUsesEdges(pred)) continue;
      if (EvalPredicate(g_, pred, binding, &edge_binding) !=
          PredVerdict::kTrue)
        return;
    }
    ++st->stats.matches;
    Match m;
    m.nodes = binding;
    m.edges = edge_binding;
    if (!(*st->cb)(m) || st->stats.matches >= st->opts->max_matches)
      st->stop = true;
    return;
  }
  const auto& pe = p_.edges()[edge_idx];
  // Honor anchors.
  for (const auto& [idx, eid] : st->opts->edge_anchors) {
    if (idx == edge_idx) {
      EdgeView v = g_.Edge(eid);
      if (g_.EdgeAlive(eid) && v.src == binding[pe.src] &&
          v.dst == binding[pe.dst] && (pe.label == 0 || v.label == pe.label) &&
          !EdgeBound(edge_binding, eid)) {
        edge_binding[edge_idx] = eid;
        EnumerateEdges(st, edge_idx + 1);
        edge_binding[edge_idx] = kInvalidEdge;
      }
      return;
    }
  }
  NodeId s = binding[pe.src], d = binding[pe.dst];
  for (EdgeId e : g_.OutEdges(s)) {
    EdgeView v = g_.Edge(e);
    if (v.dst != d) continue;
    if (pe.label != 0 && v.label != pe.label) continue;
    if (EdgeBound(edge_binding, e)) continue;
    edge_binding[edge_idx] = e;
    EnumerateEdges(st, edge_idx + 1);
    edge_binding[edge_idx] = kInvalidEdge;
    if (st->stop) return;
  }
}

void Matcher::Extend(SearchState* st) const {
  if (st->stop) return;
  if (++st->stats.expansions > st->opts->max_expansions) {
    st->stats.exhausted = true;
    st->stop = true;
    return;
  }
  if (st->bound_count == p_.NumNodes()) {
    // NACs first (cheap, node-level), then concrete edge enumeration.
    for (const auto& nac : p_.nacs())
      if (!EvalNac(g_, nac, st->s->binding)) return;
    EnumerateEdges(st, 0);
    return;
  }
  VarId var = PickNextVar(*st);
  // Per-depth scratch: deeper recursion uses its own entry, so this level's
  // list stays intact across the candidate loop.
  std::vector<NodeId>& cands = st->s->depth[st->bound_count].cand;
  bool sorted = false;
  CandidatesFor(*st, var, &cands, &sorted);
  // Deterministic (ascending) order helps tests and reproducibility; a
  // snapshot's label/attr partitions arrive pre-sorted.
  if (!sorted) std::sort(cands.begin(), cands.end());
  st->obs_candidates += cands.size();
  if (st->bound_count == st->root_depth) st->obs_seeds += cands.size();
  for (size_t i = 0; i < cands.size(); ++i) {
    NodeId cand = cands[i];
    if (!CheckNewBinding(st, var, cand)) continue;
    st->s->binding[var] = cand;
    ++st->bound_count;
    Extend(st);
    --st->bound_count;
    st->s->binding[var] = kInvalidNode;
    if (st->stop) return;
  }
}

// The compiled twin of Extend: same expansion accounting, same NAC/edge
// tail, but the step (variable, candidate source, hoisted checks) comes
// from the plan body instead of being re-derived.
void Matcher::ExtendPlanned(SearchState* st, size_t depth) const {
  if (st->stop) return;
  if (++st->stats.expansions > st->opts->max_expansions) {
    st->stats.exhausted = true;
    st->stop = true;
    return;
  }
  const PlanBody& body = *st->body;
  if (depth == body.steps.size()) {
    for (const auto& nac : p_.nacs())
      if (!EvalNac(g_, nac, st->s->binding)) return;
    EnumerateEdges(st, 0);
    return;
  }
  const PlanStep& step = body.steps[depth];
  const NodeId* cands = nullptr;
  uint32_t covered_pivots = 0;
  int covered_pred = -1;
  const size_t n =
      PlannedCandidates(st, step, depth, &cands, &covered_pivots,
                        &covered_pred);
  st->obs_candidates += n;
  if (depth == 0) st->obs_seeds += n;
  for (size_t i = 0; i < n; ++i) {
    NodeId cand = cands[i];
    if (!CheckPlannedBinding(st, step, cand, covered_pivots, covered_pred))
      continue;
    st->s->binding[step.var] = cand;
    ++st->bound_count;
    ExtendPlanned(st, depth + 1);
    --st->bound_count;
    st->s->binding[step.var] = kInvalidNode;
    if (st->stop) return;
  }
}

MatchStats Matcher::FindAll(const MatchOptions& opts,
                            const MatchCallback& cb) const {
  ScratchLease lease;
  SearchState st;
  st.opts = &opts;
  st.cb = &cb;
  st.s = lease.get();
  st.s->Prepare(p_.NumNodes(), p_.NumEdges());
  std::vector<NodeId>& binding = st.s->binding;

  // Apply edge anchors (bind endpoints too).
  for (const auto& [idx, eid] : opts.edge_anchors) {
    if (idx >= p_.NumEdges() || !g_.EdgeAlive(eid)) return st.stats;
    const auto& pe = p_.edges()[idx];
    EdgeView v = g_.Edge(eid);
    if (pe.label != 0 && v.label != pe.label) return st.stats;
    // Bind src endpoint.
    if (binding[pe.src] == kInvalidNode) {
      if (!CheckNewBinding(&st, pe.src, v.src)) return st.stats;
      binding[pe.src] = v.src;
      ++st.bound_count;
    } else if (binding[pe.src] != v.src) {
      return st.stats;
    }
    // Bind dst endpoint (self-loop pattern edges share the var).
    if (binding[pe.dst] == kInvalidNode) {
      if (!CheckNewBinding(&st, pe.dst, v.dst)) return st.stats;
      binding[pe.dst] = v.dst;
      ++st.bound_count;
    } else if (binding[pe.dst] != v.dst) {
      return st.stats;
    }
  }
  // Apply node anchors.
  for (const auto& [var, node] : opts.node_anchors) {
    if (var >= p_.NumNodes()) return st.stats;
    if (binding[var] != kInvalidNode) {
      if (binding[var] != node) return st.stats;
      continue;
    }
    if (!CheckNewBinding(&st, var, node)) return st.stats;
    binding[var] = node;
    ++st.bound_count;
  }

  st.root_depth = st.bound_count;

  // Planned path: only when the plan was compiled for this exact pattern,
  // the pruning heuristics it bakes in are enabled, and a body exists for
  // this anchor shape. Everything else falls back to the interpreter — the
  // emitted stream is identical either way.
  if (plan_ != nullptr && opts.use_plan && opts.use_adjacency_pivot &&
      opts.use_attr_join && plan_->usable() && plan_->pattern() == &p_) {
    uint32_t mask = 0;
    for (const auto& [idx, eid] : opts.edge_anchors)
      mask |= (1u << p_.edges()[idx].src) | (1u << p_.edges()[idx].dst);
    for (const auto& [var, node] : opts.node_anchors) mask |= 1u << var;
    st.body = plan_->BodyFor(mask);
  }
  if (st.body != nullptr)
    ExtendPlanned(&st, 0);
  else
    Extend(&st);

  if (obs::MetricsEnabled()) {
    MatchMetrics& m = Metrics();
    m.seeds->Add(st.obs_seeds);
    m.candidates->Add(st.obs_candidates);
    m.expansions->Add(st.stats.expansions);
    m.matches->Add(st.stats.matches);
    if (st.isect.gallop) m.gallop->Add(st.isect.gallop);
    if (st.isect.merge) m.merge->Add(st.isect.merge);
  }
  return st.stats;
}

std::vector<Match> Matcher::Collect(size_t limit) const {
  MatchOptions opts;
  opts.max_matches = limit;
  return CollectWith(opts);
}

std::vector<Match> Matcher::CollectWith(const MatchOptions& opts) const {
  std::vector<Match> out;
  FindAll(opts, [&](const Match& m) {
    out.push_back(m);
    return true;
  });
  return out;
}

bool Matcher::Exists() const {
  MatchOptions opts;
  opts.max_matches = 1;
  bool found = false;
  FindAll(opts, [&](const Match&) {
    found = true;
    return false;
  });
  return found;
}

size_t Matcher::Count(size_t limit) const {
  MatchOptions opts;
  opts.max_matches = limit;
  size_t n = 0;
  FindAll(opts, [&](const Match&) {
    ++n;
    return true;
  });
  return n;
}

VarId Matcher::SeedVar() const {
  if (p_.NumNodes() == 0) return kNoVar;
  const auto unbound = [](VarId) { return false; };
  return PickNextVarOrdered(g_, p_, unbound);
}

std::vector<NodeId> Matcher::SeedCandidates(VarId var) const {
  MatchOptions opts;
  ScratchLease lease;
  SearchState st;
  st.opts = &opts;
  st.s = lease.get();
  st.s->Prepare(p_.NumNodes(), p_.NumEdges());
  std::vector<NodeId> cands;
  bool sorted = false;
  CandidatesFor(st, var, &cands, &sorted);
  // Same deterministic order Extend() uses. Over a GraphSnapshot this is a
  // contiguous-range copy with no sort at all.
  if (!sorted) std::sort(cands.begin(), cands.end());
  return cands;
}

bool Matcher::Verify(const Match& m) const {
  if (m.nodes.size() != p_.NumNodes() || m.edges.size() != p_.NumEdges())
    return false;
  // Injectivity + aliveness + labels.
  for (VarId v = 0; v < p_.NumNodes(); ++v) {
    NodeId n = m.nodes[v];
    if (!g_.NodeAlive(n)) return false;
    const auto& pn = p_.nodes()[v];
    if (pn.label != 0 && g_.NodeLabel(n) != pn.label) return false;
    for (VarId w = 0; w < v; ++w)
      if (m.nodes[w] == n) return false;
  }
  for (size_t i = 0; i < p_.NumEdges(); ++i) {
    EdgeId e = m.edges[i];
    if (!g_.EdgeAlive(e)) return false;
    const auto& pe = p_.edges()[i];
    EdgeView v = g_.Edge(e);
    if (v.src != m.nodes[pe.src] || v.dst != m.nodes[pe.dst]) return false;
    if (pe.label != 0 && v.label != pe.label) return false;
    for (size_t j = 0; j < i; ++j)
      if (m.edges[j] == e) return false;
  }
  for (const auto& pred : p_.predicates())
    if (EvalPredicate(g_, pred, m.nodes, &m.edges) != PredVerdict::kTrue)
      return false;
  for (const auto& nac : p_.nacs())
    if (!EvalNac(g_, nac, m.nodes)) return false;
  return true;
}

}  // namespace grepair
