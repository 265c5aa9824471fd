// Compiled match-plan tests: the vectorized intersection kernels on
// adversarial range shapes, the central bit-identical-stream guarantee
// (planned == interpreted FindAll on generator graphs, anchored and NAC
// patterns, and through both parallel detectors for every shard x thread
// combination).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "eval/experiment.h"
#include "graph/generators.h"
#include "graph/error_injector.h"
#include "graph/sharded_snapshot.h"
#include "graph/snapshot.h"
#include "match/incremental.h"
#include "match/intersect.h"
#include "match/matcher.h"
#include "match/plan.h"
#include "parallel/delta_detector.h"
#include "parallel/parallel_detector.h"
#include "parallel/thread_pool.h"

namespace grepair {
namespace {

// ------------------------------------------------------------ intersection

std::vector<uint32_t> Reference(const std::vector<uint32_t>& a,
                                const std::vector<uint32_t>& b) {
  std::vector<uint32_t> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

void ExpectIntersection(const std::vector<uint32_t>& a,
                        const std::vector<uint32_t>& b) {
  std::vector<uint32_t> out;
  IntersectSorted(a, b, &out);
  EXPECT_EQ(out, Reference(a, b));
  // Symmetric: the dispatcher routes by size, the result must not care.
  std::vector<uint32_t> rev;
  IntersectSorted(b, a, &rev);
  EXPECT_EQ(rev, Reference(a, b));
}

TEST(IntersectTest, EmptyAndDisjointAndEqual) {
  ExpectIntersection({}, {});
  ExpectIntersection({}, {1, 2, 3});
  ExpectIntersection({1, 3, 5}, {2, 4, 6});          // interleaved disjoint
  ExpectIntersection({1, 2, 3}, {1, 2, 3});          // identical
  ExpectIntersection({10, 20, 30}, {40, 50, 60});    // fully below/above
}

TEST(IntersectTest, NestedAndPartialOverlap) {
  ExpectIntersection({5, 6, 7}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  ExpectIntersection({1, 100}, {1, 2, 3, 99, 100});
  std::vector<uint32_t> dense, sparse;
  for (uint32_t i = 0; i < 1000; ++i) dense.push_back(i);
  for (uint32_t i = 0; i < 1000; i += 97) sparse.push_back(i);
  ExpectIntersection(dense, sparse);
}

TEST(IntersectTest, SkewTriggersGallopingAndBalancedTriggersMerge) {
  std::vector<uint32_t> small = {3, 5000, 99991};
  std::vector<uint32_t> large;
  for (uint32_t i = 0; i < 100000; ++i) large.push_back(i);
  std::vector<uint32_t> out;
  IntersectStats st;
  IntersectSorted(small.data(), small.size(), large.data(), large.size(),
                  &out, &st);
  EXPECT_EQ(out, small);
  EXPECT_EQ(st.gallop, 1u);
  EXPECT_EQ(st.merge, 0u);

  std::vector<uint32_t> a = {1, 2, 3, 4}, b = {2, 4, 6, 8};
  IntersectStats st2;
  IntersectSorted(a.data(), a.size(), b.data(), b.size(), &out, &st2);
  EXPECT_EQ(out, (std::vector<uint32_t>{2, 4}));
  EXPECT_EQ(st2.gallop, 0u);
  EXPECT_EQ(st2.merge, 1u);
}

TEST(IntersectTest, GallopingHandlesRunsAndBoundaries) {
  // Small list hugging both ends of the large list, plus a long run of
  // misses in between — the exponential stride must not overshoot.
  std::vector<uint32_t> large;
  for (uint32_t i = 0; i < 4096; ++i) large.push_back(2 * i);  // evens
  std::vector<uint32_t> small = {0, 1, 2, 4094, 8190, 8191};
  ExpectIntersection(small, large);
}

TEST(IntersectTest, SortUniqueIds) {
  std::vector<uint32_t> v = {5, 1, 5, 3, 1, 1, 9};
  SortUniqueIds(&v);
  EXPECT_EQ(v, (std::vector<uint32_t>{1, 3, 5, 9}));
  std::vector<uint32_t> empty;
  SortUniqueIds(&empty);
  EXPECT_TRUE(empty.empty());
}

// ------------------------------------------------- planned == interpreted

using Stream = std::vector<std::pair<RuleId, Match>>;

// Full per-rule FindAll stream through the interpreter (use_plan=false).
Stream InterpretedStream(const GraphView& g, const RuleSet& rules) {
  Stream out;
  for (RuleId r = 0; r < rules.size(); ++r) {
    Matcher m(g, rules[r].pattern());
    MatchOptions opts;
    opts.use_plan = false;
    m.FindAll(opts, [&](const Match& match) {
      out.emplace_back(r, match);
      return true;
    });
  }
  return out;
}

// Same stream through compiled plans.
Stream PlannedStream(const GraphView& g, const RuleSet& rules) {
  std::vector<const Pattern*> patterns;
  for (RuleId r = 0; r < rules.size(); ++r)
    patterns.push_back(&rules[r].pattern());
  std::vector<MatchPlan> plans = CompilePlans(patterns, g);
  Stream out;
  for (RuleId r = 0; r < rules.size(); ++r) {
    Matcher m(g, rules[r].pattern(), &plans[r]);
    m.FindAll(MatchOptions{}, [&](const Match& match) {
      out.emplace_back(r, match);
      return true;
    });
  }
  return out;
}

void ExpectSameStream(const Stream& a, const Stream& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].first, b[i].first) << "emission " << i;
    EXPECT_EQ(a[i].second, b[i].second) << "emission " << i;
  }
}

DatasetBundle SmallKg() {
  KgOptions gopt;
  gopt.num_persons = 400;
  gopt.num_cities = 40;
  gopt.num_countries = 10;
  gopt.num_orgs = 25;
  InjectOptions iopt;
  iopt.rate = 0.08;
  auto b = MakeKgBundle(gopt, iopt);
  EXPECT_TRUE(b.ok()) << b.status().ToString();
  return std::move(b).value();
}

TEST(MatchPlanTest, KgPlannedMatchesInterpreted) {
  DatasetBundle bundle = SmallKg();
  GraphSnapshot snap(bundle.graph);
  ExpectSameStream(InterpretedStream(snap, bundle.rules),
                   PlannedStream(snap, bundle.rules));
}

TEST(MatchPlanTest, SocialPlannedMatchesInterpreted) {
  SocialOptions gopt;
  gopt.num_persons = 400;
  InjectOptions iopt;
  iopt.rate = 0.08;
  auto b = MakeSocialBundle(gopt, iopt);
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  GraphSnapshot snap(b.value().graph);
  ExpectSameStream(InterpretedStream(snap, b.value().rules),
                   PlannedStream(snap, b.value().rules));
}

TEST(MatchPlanTest, CitationPlannedMatchesInterpreted) {
  CitationOptions gopt;
  gopt.num_papers = 300;
  gopt.num_authors = 120;
  InjectOptions iopt;
  iopt.rate = 0.08;
  auto b = MakeCitationBundle(gopt, iopt);
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  GraphSnapshot snap(b.value().graph);
  ExpectSameStream(InterpretedStream(snap, b.value().rules),
                   PlannedStream(snap, b.value().rules));
}

// Stats parity: identical expansion counts are what make budget truncation
// and the parallel detector's sequential-rerun trigger fire identically.
TEST(MatchPlanTest, ExpansionCountsMatchInterpreter) {
  DatasetBundle bundle = SmallKg();
  GraphSnapshot snap(bundle.graph);
  std::vector<const Pattern*> patterns;
  for (RuleId r = 0; r < bundle.rules.size(); ++r)
    patterns.push_back(&bundle.rules[r].pattern());
  std::vector<MatchPlan> plans = CompilePlans(patterns, snap);
  for (RuleId r = 0; r < bundle.rules.size(); ++r) {
    MatchOptions interp;
    interp.use_plan = false;
    MatchStats a =
        Matcher(snap, bundle.rules[r].pattern())
            .FindAll(interp, [](const Match&) { return true; });
    MatchStats b =
        Matcher(snap, bundle.rules[r].pattern(), &plans[r])
            .FindAll(MatchOptions{}, [](const Match&) { return true; });
    EXPECT_EQ(a.expansions, b.expansions) << "rule " << r;
    EXPECT_EQ(a.matches, b.matches) << "rule " << r;
    EXPECT_EQ(a.exhausted, b.exhausted) << "rule " << r;
  }
}

// Budget truncation must cut the planned stream at the same match.
TEST(MatchPlanTest, TruncationPointMatchesInterpreter) {
  DatasetBundle bundle = SmallKg();
  GraphSnapshot snap(bundle.graph);
  for (RuleId r = 0; r < bundle.rules.size(); ++r) {
    const Pattern& p = bundle.rules[r].pattern();
    MatchPlan plan = MatchPlan::Compile(p, snap);
    for (size_t budget : {1u, 7u, 50u, 500u}) {
      MatchOptions interp;
      interp.use_plan = false;
      interp.max_expansions = budget;
      MatchOptions planned;
      planned.max_expansions = budget;
      std::vector<Match> a, b;
      Matcher(snap, p).FindAll(interp, [&](const Match& m) {
        a.push_back(m);
        return true;
      });
      Matcher(snap, p, &plan).FindAll(planned, [&](const Match& m) {
        b.push_back(m);
        return true;
      });
      ASSERT_EQ(a.size(), b.size()) << "rule " << r << " budget " << budget;
      for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
    }
  }
}

// ------------------------------------- anchored and NAC patterns, planned

class PlanFixtureTest : public ::testing::Test {
 protected:
  PlanFixtureTest() : vocab_(MakeVocabulary()), g_(vocab_) {
    a_ = vocab_->Label("A");
    b_ = vocab_->Label("B");
    e_ = vocab_->Label("e");
    f_ = vocab_->Label("f");
  }

  // Planned and interpreted CollectWith must agree exactly.
  void ExpectParity(const Pattern& p, const MatchOptions& base) {
    GraphSnapshot snap(g_);
    MatchPlan plan = MatchPlan::Compile(p, snap);
    MatchOptions interp = base;
    interp.use_plan = false;
    std::vector<Match> want = Matcher(snap, p).CollectWith(interp);
    std::vector<Match> got = Matcher(snap, p, &plan).CollectWith(base);
    ASSERT_EQ(want.size(), got.size());
    for (size_t i = 0; i < want.size(); ++i) EXPECT_EQ(want[i], got[i]);
  }

  VocabularyPtr vocab_;
  Graph g_;
  SymbolId a_, b_, e_, f_;
};

TEST_F(PlanFixtureTest, NodeAnchorsUseAnchoredBody) {
  NodeId x1 = g_.AddNode(a_);
  NodeId x2 = g_.AddNode(a_);
  NodeId y = g_.AddNode(b_);
  g_.AddEdge(x1, y, e_);
  g_.AddEdge(x2, y, e_);
  Pattern p;
  VarId u = p.AddNode(a_), v = p.AddNode(b_);
  p.AddEdge(u, v, e_);
  MatchOptions opts;
  opts.node_anchors.push_back({u, x2});
  ExpectParity(p, opts);
  MatchOptions both;
  both.node_anchors.push_back({u, x1});
  both.node_anchors.push_back({v, y});
  ExpectParity(p, both);
}

TEST_F(PlanFixtureTest, EdgeAnchorsUseAnchoredBody) {
  NodeId x = g_.AddNode(a_), y = g_.AddNode(b_), z = g_.AddNode(b_);
  EdgeId target = g_.AddEdge(x, y, e_).value();
  g_.AddEdge(x, z, e_);
  Pattern p;
  VarId u = p.AddNode(a_), v = p.AddNode(b_);
  p.AddEdge(u, v, e_);
  MatchOptions opts;
  opts.edge_anchors.push_back({0, target});
  ExpectParity(p, opts);
}

TEST_F(PlanFixtureTest, NacPatternsAgree) {
  NodeId x1 = g_.AddNode(a_), x2 = g_.AddNode(a_);
  NodeId y1 = g_.AddNode(b_), y2 = g_.AddNode(b_);
  g_.AddEdge(x1, y1, e_);
  g_.AddEdge(x2, y2, e_);
  g_.AddEdge(y1, x1, f_);  // back edge only for the first pair
  Pattern p;
  VarId u = p.AddNode(a_), v = p.AddNode(b_);
  p.AddEdge(u, v, e_);
  Nac nac;
  nac.kind = NacKind::kNoEdge;
  nac.src_var = v;
  nac.dst_var = u;
  nac.label = f_;
  p.AddNac(nac);
  ExpectParity(p, MatchOptions{});
}

TEST_F(PlanFixtureTest, AttrJoinAndPredicatesAgree) {
  SymbolId name = vocab_->Attr("name");
  NodeId x = g_.AddNode(a_), y = g_.AddNode(a_), z = g_.AddNode(a_);
  g_.SetNodeAttr(x, name, vocab_->Value("n1"));
  g_.SetNodeAttr(y, name, vocab_->Value("n1"));
  g_.SetNodeAttr(z, name, vocab_->Value("n2"));
  Pattern p;
  VarId u = p.AddNode(a_), v = p.AddNode(a_);
  AttrPredicate pred;
  pred.lhs = AttrOperand::VarAttr(u, name);
  pred.op = CmpOp::kEq;
  pred.rhs = AttrOperand::VarAttr(v, name);
  p.AddPredicate(pred);
  ExpectParity(p, MatchOptions{});
}

// An anchor whose join attribute is absent: no candidate can satisfy the
// EQ join, so the planned search skips the label scan the interpreter
// runs and rejects — same (empty) stream, same expansions, on the live
// graph and on a snapshot alike.
TEST_F(PlanFixtureTest, AttrJoinOnAbsentValueAgrees) {
  SymbolId name = vocab_->Attr("name");
  NodeId x = g_.AddNode(a_), y = g_.AddNode(a_);
  NodeId nameless = g_.AddNode(a_);
  g_.SetNodeAttr(x, name, vocab_->Value("n1"));
  g_.SetNodeAttr(y, name, vocab_->Value("n1"));
  Pattern p;
  VarId u = p.AddNode(a_), v = p.AddNode(a_);
  AttrPredicate pred;
  pred.lhs = AttrOperand::VarAttr(u, name);
  pred.op = CmpOp::kEq;
  pred.rhs = AttrOperand::VarAttr(v, name);
  p.AddPredicate(pred);
  GraphSnapshot snap(g_);
  for (const GraphView* view : {static_cast<const GraphView*>(&g_),
                                static_cast<const GraphView*>(&snap)}) {
    const MatchPlan plan = MatchPlan::Compile(p, *view);
    for (NodeId anchor : {nameless, x}) {
      MatchOptions planned;
      planned.node_anchors.push_back({u, anchor});
      MatchOptions interp = planned;
      interp.use_plan = false;
      std::vector<Match> want, got;
      MatchStats ws = Matcher(*view, p).FindAll(interp, [&](const Match& m) {
        want.push_back(m);
        return true;
      });
      MatchStats gs =
          Matcher(*view, p, &plan).FindAll(planned, [&](const Match& m) {
            got.push_back(m);
            return true;
          });
      EXPECT_EQ(want, got) << "anchor " << anchor;
      EXPECT_EQ(ws.expansions, gs.expansions) << "anchor " << anchor;
      EXPECT_EQ(want.empty(), anchor == nameless);
    }
  }
}

// ---------------------------------------------- parallel detectors + plans

TEST(MatchPlanTest, ParallelDetectorWithPlansMatchesSequentialInterpreter) {
  DatasetBundle bundle = SmallKg();
  for (size_t shards : {1u, 2u, 4u, 8u}) {
    ShardedSnapshot snap(bundle.graph, shards);
    const Stream seq = InterpretedStream(snap, bundle.rules);
    std::vector<const Pattern*> patterns;
    for (RuleId r = 0; r < bundle.rules.size(); ++r)
      patterns.push_back(&bundle.rules[r].pattern());
    std::vector<MatchPlan> plans = CompilePlans(patterns, snap);
    std::vector<const MatchPlan*> ptrs;
    for (const MatchPlan& p : plans) ptrs.push_back(&p);
    for (size_t threads : {1u, 2u, 4u, 8u}) {
      ThreadPool pool(threads);
      ParallelDetectOptions opts;
      opts.shard_min_seeds = 1;  // force shard-level fan-out
      ParallelDetector detector(&pool, opts);
      Stream par;
      detector.Detect(
          snap, bundle.rules,
          [&](RuleId r, const Match& m) { par.emplace_back(r, m); },
          ptrs.data());
      ASSERT_EQ(seq.size(), par.size())
          << "shards=" << shards << " threads=" << threads;
      for (size_t i = 0; i < seq.size(); ++i) {
        EXPECT_EQ(seq[i].first, par[i].first) << "emission " << i;
        EXPECT_EQ(seq[i].second, par[i].second) << "emission " << i;
      }
    }
  }
}

TEST(MatchPlanTest, DeltaDetectorWithPlansMatchesSequentialInterpreter) {
  DatasetBundle bundle = SmallKg();
  Graph& g = bundle.graph;
  g.EnableDeltaLog();
  // A synthetic delta touching a spread of nodes: relabel every 7th node
  // to itself-adjacent labels via the journal (attr flips anchor nodes).
  size_t mark = g.JournalSize();
  SymbolId name = g.vocab()->Attr("name");
  for (NodeId n = 0; n < g.NumNodes(); n += 7) {
    if (!g.NodeAlive(n)) continue;
    g.SetNodeAttr(n, name, g.vocab()->Value("delta"));
  }
  std::vector<EditEntry> delta(g.Journal().begin() + mark, g.Journal().end());
  ASSERT_FALSE(delta.empty());

  // Sequential interpreter reference.
  Stream seq;
  for (RuleId r = 0; r < bundle.rules.size(); ++r) {
    DeltaMatcher dm(g, bundle.rules[r].pattern());
    dm.FindDelta(delta, [&](const Match& m) {
      seq.emplace_back(r, m);
      return true;
    });
  }

  for (size_t shards : {1u, 2u, 4u, 8u}) {
    ShardedSnapshot snap(g, shards);
    std::vector<const Pattern*> patterns;
    for (RuleId r = 0; r < bundle.rules.size(); ++r)
      patterns.push_back(&bundle.rules[r].pattern());
    std::vector<MatchPlan> plans = CompilePlans(patterns, snap);
    std::vector<const MatchPlan*> ptrs;
    for (const MatchPlan& p : plans) ptrs.push_back(&p);
    for (size_t threads : {1u, 2u, 4u, 8u}) {
      ThreadPool pool(threads);
      ParallelDeltaOptions opts;
      opts.shard_min_anchors = 1;  // force fan-out
      ParallelDeltaDetector detector(&pool, opts);
      Stream par;
      detector.Detect(
          snap, bundle.rules, delta,
          [&](RuleId r, const Match& m) { par.emplace_back(r, m); },
          ptrs.data());
      ASSERT_EQ(seq.size(), par.size())
          << "shards=" << shards << " threads=" << threads;
      for (size_t i = 0; i < seq.size(); ++i) {
        EXPECT_EQ(seq[i].first, par[i].first) << "emission " << i;
        EXPECT_EQ(seq[i].second, par[i].second) << "emission " << i;
      }
    }
  }
}

// ---------------------------------------------------------------- Explain

TEST(MatchPlanTest, ExplainSmoke) {
  DatasetBundle bundle = SmallKg();
  GraphSnapshot snap(bundle.graph);
  for (RuleId r = 0; r < bundle.rules.size(); ++r) {
    MatchPlan plan = MatchPlan::Compile(bundle.rules[r].pattern(), snap);
    if (!plan.usable()) continue;
    std::string text = plan.Explain(*bundle.graph.vocab());
    EXPECT_FALSE(text.empty()) << "rule " << r;
    EXPECT_NE(text.find("body"), std::string::npos) << text;
  }
}

// The ablation switch: use_plan=false on a plan-carrying matcher must take
// the interpreter path (and still agree, trivially, with itself).
TEST(MatchPlanTest, UsePlanFalseDisablesPlan) {
  DatasetBundle bundle = SmallKg();
  GraphSnapshot snap(bundle.graph);
  const Pattern& p = bundle.rules[0].pattern();
  MatchPlan plan = MatchPlan::Compile(p, snap);
  MatchOptions off;
  off.use_plan = false;
  std::vector<Match> a = Matcher(snap, p, &plan).CollectWith(off);
  std::vector<Match> b = Matcher(snap, p).CollectWith(MatchOptions{});
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

}  // namespace
}  // namespace grepair
