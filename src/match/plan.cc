#include "match/plan.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>

#include "graph/vocabulary.h"
#include "obs/metrics.h"

namespace grepair {

namespace {

// Plan-layer instruments. Compiles are per-pass events (not
// per-expansion), so they add straight into the global registry.
struct PlanMetrics {
  obs::Counter* compiles;
  obs::Counter* compile_us;
};

PlanMetrics& Metrics() {
  static PlanMetrics m = [] {
    auto& reg = obs::MetricsRegistry::Global();
    return PlanMetrics{
        reg.GetCounter("grepair_plan_compiles_total",
                       "Match plans compiled (pattern x view)."),
        reg.GetCounter("grepair_plan_compile_us_total",
                       "Microseconds spent compiling match plans.")};
  }();
  return m;
}

uint64_t CardinalitySignature(const Pattern& p, const GraphView& g) {
  uint64_t sig = 0;
  for (VarId v = 0; v < p.NumNodes(); ++v) {
    const SymbolId label = p.nodes()[v].label;
    sig += label == 0 ? g.NumNodes() : g.CountNodesWithLabel(label);
  }
  return sig;
}

// The step list for one anchor shape: variable order from the shared
// ordering policy, per-step candidate source and hoisted checks derived
// purely from the pattern structure given the bound-set sequence.
PlanBody CompileBody(const Pattern& p, const GraphView& g, uint32_t mask) {
  PlanBody body;
  body.anchor_mask = mask;
  uint32_t bound = mask;
  const auto is_bound = [&bound](VarId v) { return (bound >> v) & 1u; };
  while (true) {
    const VarId var = PickNextVarOrdered(g, p, is_bound);
    if (var == kNoVar) break;
    PlanStep step;
    step.var = var;
    step.label = p.nodes()[var].label;

    for (size_t i = 0; i < p.edges().size(); ++i) {
      const auto& pe = p.edges()[i];
      if (pe.src == var && pe.dst == var) {
        step.self_loops.push_back(static_cast<uint32_t>(i));
      } else if (pe.dst == var && pe.src != var && is_bound(pe.src)) {
        step.pivots.push_back(
            {static_cast<uint32_t>(i), pe.src, /*forward=*/true, pe.label});
      } else if (pe.src == var && pe.dst != var && is_bound(pe.dst)) {
        step.pivots.push_back(
            {static_cast<uint32_t>(i), pe.dst, /*forward=*/false, pe.label});
      }
    }

    if (!step.pivots.empty()) {
      step.source = PlanStep::Source::kAdjacency;
    } else {
      // Attr-join sources in predicate order — the runtime takes the first
      // whose value resolves, exactly like the interpreter's scan.
      for (size_t pi = 0; pi < p.predicates().size(); ++pi) {
        const auto& pred = p.predicates()[pi];
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
        PlanAttrJoin join;
        join.pred_index = static_cast<uint32_t>(pi);
        join.attr = self->attr;
        if (other->var == kNoVar) {
          join.constant = other->constant;
        } else if (is_bound(other->var)) {
          join.other_var = other->var;
          join.other_attr = other->attr;
        } else {
          continue;
        }
        step.attr_joins.push_back(join);
      }
      step.source = step.attr_joins.empty() ? PlanStep::Source::kLabelScan
                                            : PlanStep::Source::kAttrJoin;
    }

    // Node predicates that become fully decidable when `var` binds: they
    // mention var and every other node var they reference is already bound.
    // Predicates that stay partially unbound would evaluate kUnknown (a
    // no-op) in the interpreter, so skipping them here changes nothing —
    // they land on the step of their last-bound variable.
    for (size_t j = 0; j < p.predicates().size(); ++j) {
      const auto& pred = p.predicates()[j];
      if (PredicateUsesEdges(pred)) continue;
      const bool involves = (!pred.lhs.is_edge && pred.lhs.var == var) ||
                            (!pred.rhs.is_edge && pred.rhs.var == var);
      if (!involves) continue;
      bool decidable = true;
      if (pred.op == CmpOp::kAbsent || pred.op == CmpOp::kPresent) {
        // Unary ops resolve from lhs alone (predicate.cc), so they decide
        // as soon as lhs does — even at a step that binds only the rhs var.
        decidable = pred.lhs.var == kNoVar || pred.lhs.var == var ||
                    is_bound(pred.lhs.var);
      } else {
        for (const AttrOperand* op : {&pred.lhs, &pred.rhs}) {
          if (op->var == kNoVar || op->var == var) continue;
          if (!is_bound(op->var)) decidable = false;
        }
      }
      if (decidable) step.preds.push_back(static_cast<uint32_t>(j));
    }

    bound |= 1u << var;
    body.steps.push_back(std::move(step));
  }
  return body;
}

}  // namespace

MatchPlan MatchPlan::Compile(const Pattern& pattern, const GraphView& g) {
  MatchPlan plan;
  plan.pattern_ = &pattern;
  if (pattern.NumNodes() == 0 || pattern.NumNodes() > 32) return plan;

  const auto t0 = std::chrono::steady_clock::now();

  // Every anchor shape the system searches with (see header).
  std::vector<uint32_t> masks;
  masks.push_back(0);
  for (VarId v = 0; v < pattern.NumNodes(); ++v) masks.push_back(1u << v);
  for (const auto& pe : pattern.edges())
    masks.push_back((1u << pe.src) | (1u << pe.dst));
  std::sort(masks.begin(), masks.end());
  masks.erase(std::unique(masks.begin(), masks.end()), masks.end());

  plan.bodies_.reserve(masks.size());
  for (uint32_t mask : masks)
    plan.bodies_.push_back(CompileBody(pattern, g, mask));
  plan.signature_ = CardinalitySignature(pattern, g);
  plan.usable_ = true;

  if (obs::MetricsEnabled()) {
    const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    PlanMetrics& m = Metrics();
    m.compiles->Add(1);
    m.compile_us->Add(static_cast<uint64_t>(us));
  }
  return plan;
}

const PlanBody* MatchPlan::BodyFor(uint32_t anchor_mask) const {
  if (!usable_) return nullptr;
  auto it = std::lower_bound(
      bodies_.begin(), bodies_.end(), anchor_mask,
      [](const PlanBody& b, uint32_t mask) { return b.anchor_mask < mask; });
  if (it == bodies_.end() || it->anchor_mask != anchor_mask) return nullptr;
  return &*it;
}

namespace {

std::string VarName(const Pattern& p, VarId v) {
  const std::string& name = p.nodes()[v].var_name;
  if (!name.empty()) return name;
  char buf[16];
  std::snprintf(buf, sizeof(buf), "v%u", v);
  return buf;
}

std::string LabelName(const Vocabulary& vocab, SymbolId label) {
  return label == 0 ? "*" : vocab.LabelName(label);
}

}  // namespace

std::string MatchPlan::Explain(const Vocabulary& vocab) const {
  std::string out;
  char buf[256];
  if (!usable_) return "plan: unusable (interpreter fallback)\n";
  std::snprintf(buf, sizeof(buf), "plan: %zu bodies, signature %" PRIu64 "\n",
                bodies_.size(), signature_);
  out += buf;
  const Pattern& p = *pattern_;
  for (const PlanBody& body : bodies_) {
    if (body.anchor_mask == 0) {
      out += "body [unanchored]:\n";
    } else {
      out += "body [anchored:";
      for (VarId v = 0; v < p.NumNodes(); ++v)
        if ((body.anchor_mask >> v) & 1u) out += " " + VarName(p, v);
      out += "]:\n";
    }
    for (size_t i = 0; i < body.steps.size(); ++i) {
      const PlanStep& step = body.steps[i];
      std::snprintf(buf, sizeof(buf), "  step %zu: bind %s:%s via ", i + 1,
                    VarName(p, step.var).c_str(),
                    LabelName(vocab, step.label).c_str());
      out += buf;
      switch (step.source) {
        case PlanStep::Source::kAdjacency: {
          out += "adjacency(";
          for (size_t k = 0; k < step.pivots.size(); ++k) {
            const PlanPivot& piv = step.pivots[k];
            if (k) out += " ∩ ";
            std::snprintf(buf, sizeof(buf), "%s(%s)%s",
                          piv.forward ? "out" : "in",
                          VarName(p, piv.bound_var).c_str(),
                          piv.edge_label == 0
                              ? ""
                              : ("/" + LabelName(vocab, piv.edge_label))
                                    .c_str());
            out += buf;
          }
          out += ")";
          break;
        }
        case PlanStep::Source::kAttrJoin: {
          out += "attr-join(";
          for (size_t k = 0; k < step.attr_joins.size(); ++k) {
            const PlanAttrJoin& j = step.attr_joins[k];
            if (k) out += " | ";
            if (j.other_var == kNoVar) {
              std::snprintf(buf, sizeof(buf), "%s=\"%s\"",
                            vocab.AttrName(j.attr).c_str(),
                            vocab.ValueName(j.constant).c_str());
            } else {
              std::snprintf(buf, sizeof(buf), "%s=%s.%s",
                            vocab.AttrName(j.attr).c_str(),
                            VarName(p, j.other_var).c_str(),
                            vocab.AttrName(j.other_attr).c_str());
            }
            out += buf;
          }
          out += ")";
          break;
        }
        case PlanStep::Source::kLabelScan:
          out += "label-scan";
          break;
      }
      if (!step.self_loops.empty()) {
        std::snprintf(buf, sizeof(buf), " +%zu self-loop check%s",
                      step.self_loops.size(),
                      step.self_loops.size() == 1 ? "" : "s");
        out += buf;
      }
      if (!step.preds.empty()) {
        out += " then preds{";
        for (size_t k = 0; k < step.preds.size(); ++k) {
          if (k) out += ",";
          std::snprintf(buf, sizeof(buf), "#%u", step.preds[k]);
          out += buf;
        }
        out += "}";
      }
      out += "\n";
    }
  }
  return out;
}

namespace {

// Thread-local freelist backing ScratchLease: one live scratch per
// concurrent (possibly nested) search on the thread, buffers reused across
// searches so steady-state FindAll calls allocate nothing.
std::vector<std::unique_ptr<MatchScratch>>& ScratchFreelist() {
  static thread_local std::vector<std::unique_ptr<MatchScratch>> freelist;
  return freelist;
}

}  // namespace

ScratchLease::ScratchLease() {
  auto& fl = ScratchFreelist();
  if (fl.empty()) {
    s_ = std::make_unique<MatchScratch>();
  } else {
    s_ = std::move(fl.back());
    fl.pop_back();
  }
}

ScratchLease::~ScratchLease() {
  if (s_) ScratchFreelist().push_back(std::move(s_));
}

std::vector<MatchPlan> CompilePlans(
    const std::vector<const Pattern*>& patterns, const GraphView& g) {
  std::vector<MatchPlan> plans;
  plans.reserve(patterns.size());
  for (const Pattern* p : patterns) plans.push_back(MatchPlan::Compile(*p, g));
  return plans;
}

}  // namespace grepair
