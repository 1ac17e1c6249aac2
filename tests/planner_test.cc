#include "query/planner.h"

#include <gtest/gtest.h>

namespace gridvine {
namespace {

TriplePattern P(Term s, Term p, Term o) {
  return TriplePattern(std::move(s), std::move(p), std::move(o));
}

TEST(ClassifyPatternTest, AllClasses) {
  EXPECT_EQ(ClassifyPattern(P(Term::Uri("s"), Term::Var("p"), Term::Var("o"))),
            PatternCost::kExactSubject);
  EXPECT_EQ(ClassifyPattern(
                P(Term::Var("s"), Term::Uri("p"), Term::Literal("exact"))),
            PatternCost::kExactObject);
  EXPECT_EQ(ClassifyPattern(P(Term::Var("s"), Term::Uri("p"), Term::Var("o"))),
            PatternCost::kExactPredicate);
  EXPECT_EQ(ClassifyPattern(
                P(Term::Var("s"), Term::Var("p"), Term::Literal("abc%"))),
            PatternCost::kRange);
  EXPECT_EQ(ClassifyPattern(P(Term::Var("s"), Term::Var("p"), Term::Var("o"))),
            PatternCost::kUnroutable);
  // Leading wildcard: not a range.
  EXPECT_EQ(ClassifyPattern(
                P(Term::Var("s"), Term::Var("p"), Term::Literal("%abc"))),
            PatternCost::kUnroutable);
  // Wildcard literal with an exact predicate: predicate class.
  EXPECT_EQ(ClassifyPattern(
                P(Term::Var("s"), Term::Uri("p"), Term::Literal("%abc%"))),
            PatternCost::kExactPredicate);
}

TEST(PlanConjunctiveTest, CheapestFirst) {
  ConjunctiveQuery q(
      {"x"},
      {P(Term::Var("x"), Term::Uri("p1"), Term::Var("o")),       // predicate
       P(Term::Uri("s"), Term::Uri("p2"), Term::Var("x")),       // subject
       P(Term::Var("x"), Term::Uri("p3"), Term::Literal("v"))}); // object
  auto order = PlanConjunctive(q);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 1u);  // exact subject first
  EXPECT_EQ(order[1], 2u);  // exact object second
  EXPECT_EQ(order[2], 0u);  // predicate last
}

TEST(PlanConjunctiveTest, PrefersJoinConnectedPatterns) {
  // p0 binds ?a; p1 is cheap (subject) but disconnected from ?a until p2
  // runs; p2 is predicate-class but shares ?a.
  ConjunctiveQuery q(
      {"a"},
      {P(Term::Uri("s0"), Term::Uri("p0"), Term::Var("a")),   // subject, ?a
       P(Term::Uri("s1"), Term::Uri("p1"), Term::Var("b")),   // subject, ?b
       P(Term::Var("a"), Term::Uri("p2"), Term::Var("b"))});  // joins both
  auto order = PlanConjunctive(q);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 0u);
  // After p0, the connected pattern p2 (predicate class, connected) competes
  // with p1 (subject class, NOT connected): connectivity wins.
  EXPECT_EQ(order[1], 2u);
  EXPECT_EQ(order[2], 1u);
}

TEST(PlanConjunctiveTest, StableForEqualRanks) {
  ConjunctiveQuery q(
      {"x"},
      {P(Term::Var("x"), Term::Uri("p1"), Term::Var("o")),
       P(Term::Var("x"), Term::Uri("p2"), Term::Var("o2"))});
  auto order = PlanConjunctive(q);
  EXPECT_EQ(order, (std::vector<size_t>{0, 1}));
}

TEST(PlanConjunctiveTest, SinglePattern) {
  ConjunctiveQuery q({"x"},
                     {P(Term::Var("x"), Term::Uri("p"), Term::Var("o"))});
  EXPECT_EQ(PlanConjunctive(q), (std::vector<size_t>{0}));
}

TEST(PlanPhysicalTest, DisconnectedPatternsFormConcurrentGroups) {
  // {?a} component (p0, p2) and {?b} component (p1) share no variable, so
  // they become separate groups merged by one cross-group LocalJoin.
  ConjunctiveQuery q(
      {"a", "b"},
      {P(Term::Uri("s0"), Term::Uri("p0"), Term::Var("a")),
       P(Term::Var("b"), Term::Uri("p1"), Term::Literal("v")),
       P(Term::Var("a"), Term::Uri("p2"), Term::Var("c"))});
  PhysicalPlan plan = PlanPhysical(q);
  ASSERT_EQ(plan.groups.size(), 2u);
  EXPECT_EQ(plan.groups[0].patterns, (std::vector<size_t>{0, 2}));
  EXPECT_EQ(plan.groups[1].patterns, (std::vector<size_t>{1}));
  ASSERT_EQ(plan.tail.size(), 3u);
  EXPECT_EQ(plan.tail[0].kind, OpKind::kLocalJoin);
  EXPECT_EQ(plan.tail[1].kind, OpKind::kProject);
  EXPECT_EQ(plan.tail[2].kind, OpKind::kDedup);
  // Order() flattens group-major and matches the legacy contract.
  EXPECT_EQ(plan.Order(), (std::vector<size_t>{0, 2, 1}));
  EXPECT_EQ(plan.Order(), PlanConjunctive(q));
}

TEST(PlanPhysicalTest, BindJoinChainShape) {
  ConjunctiveQuery q(
      {"x"},
      {P(Term::Uri("s"), Term::Uri("p0"), Term::Var("x")),
       P(Term::Var("x"), Term::Uri("p1"), Term::Var("o"))});
  PhysicalPlan bind = PlanPhysical(q);
  ASSERT_EQ(bind.groups.size(), 1u);
  const auto& steps = bind.groups[0].steps;
  ASSERT_EQ(steps.size(), 3u);
  EXPECT_EQ(steps[0].kind, OpKind::kRemoteScan);
  EXPECT_EQ(steps[0].pattern, 0u);
  EXPECT_EQ(steps[1].kind, OpKind::kLocalJoin);
  EXPECT_EQ(steps[2].kind, OpKind::kBindJoin);
  EXPECT_EQ(steps[2].pattern, 1u);

  // Collect mode trades every BindJoin for a full RemoteScan + LocalJoin;
  // the pattern order is identical either way.
  PlanOptions collect;
  collect.bind_join = false;
  PhysicalPlan coll = PlanPhysical(q, collect);
  ASSERT_EQ(coll.groups.size(), 1u);
  const auto& csteps = coll.groups[0].steps;
  ASSERT_EQ(csteps.size(), 4u);
  EXPECT_EQ(csteps[2].kind, OpKind::kRemoteScan);
  EXPECT_EQ(csteps[2].pattern, 1u);
  EXPECT_EQ(csteps[3].kind, OpKind::kLocalJoin);
  EXPECT_EQ(bind.Order(), coll.Order());
}

TEST(PlanPhysicalTest, CollectModeBindsUnroutablePatternWithoutEstimates) {
  // A full RemoteScan of an all-variable pattern has no routing key and
  // resolves no rows, so collect mode must bind it even with no statistics.
  ConjunctiveQuery q(
      {"x"},
      {P(Term::Uri("s"), Term::Uri("p0"), Term::Var("x")),
       P(Term::Var("x"), Term::Var("p"), Term::Var("v"))});
  PlanOptions collect;
  collect.bind_join = false;
  PhysicalPlan plan = PlanPhysical(q, collect);
  ASSERT_EQ(plan.groups.size(), 1u);
  const auto& steps = plan.groups[0].steps;
  ASSERT_EQ(steps.size(), 3u);
  EXPECT_EQ(steps[0].kind, OpKind::kRemoteScan);
  EXPECT_EQ(steps[0].pattern, 0u);
  EXPECT_EQ(steps[2].kind, OpKind::kBindJoin);
  EXPECT_EQ(steps[2].pattern, 1u);
  EXPECT_TRUE(plan.groups[0].est_cards.empty());
}

TEST(PlanPhysicalTest, FullyConstantPatternBecomesExistenceCheck) {
  ConjunctiveQuery q(
      {"x"},
      {P(Term::Var("x"), Term::Uri("p"), Term::Var("o")),
       P(Term::Uri("s"), Term::Uri("p"), Term::Literal("v"))});
  PhysicalPlan plan = PlanPhysical(q);
  ASSERT_EQ(plan.groups.size(), 2u);
  // The constant pattern is exact-subject class, so its singleton group
  // leads; it resolves as an existence probe, not a scan.
  ASSERT_EQ(plan.groups[0].patterns, (std::vector<size_t>{1}));
  ASSERT_EQ(plan.groups[0].steps.size(), 1u);
  EXPECT_EQ(plan.groups[0].steps[0].kind, OpKind::kExistenceCheck);
  EXPECT_EQ(plan.groups[0].steps[0].pattern, 1u);
  ASSERT_EQ(plan.groups[1].patterns, (std::vector<size_t>{0}));
  EXPECT_EQ(plan.groups[1].steps[0].kind, OpKind::kRemoteScan);
}

TEST(PlanPhysicalTest, DeterministicAcrossRepeatedRuns) {
  // Two components whose leads have equal cost (both exact-predicate):
  // ties break on the lowest original pattern index, every run.
  ConjunctiveQuery q(
      {"a", "b"},
      {P(Term::Var("a"), Term::Uri("p1"), Term::Var("o1")),
       P(Term::Var("b"), Term::Uri("p2"), Term::Var("o2")),
       P(Term::Var("a"), Term::Uri("p3"), Term::Var("o3")),
       P(Term::Var("b"), Term::Uri("p4"), Term::Var("o4"))});
  PhysicalPlan first = PlanPhysical(q);
  ASSERT_EQ(first.groups.size(), 2u);
  EXPECT_EQ(first.groups[0].patterns, (std::vector<size_t>{0, 2}));
  EXPECT_EQ(first.groups[1].patterns, (std::vector<size_t>{1, 3}));
  EXPECT_EQ(first.Order(), (std::vector<size_t>{0, 2, 1, 3}));
  for (int i = 0; i < 10; ++i) {
    PhysicalPlan again = PlanPhysical(q);
    ASSERT_EQ(again.ToString(), first.ToString());
    ASSERT_EQ(again.Order(), first.Order());
  }
}

// --- Cost-based planning (PlanOptions::estimates) ---------------------------

PatternEstimate Est(double rows, double ds, double dobj) {
  PatternEstimate e;
  e.known = true;
  e.rows = rows;
  e.distinct_subjects = ds;
  e.distinct_objects = dobj;
  return e;
}

TEST(CostPlannerTest, AllUnknownEstimatesMatchGreedyPlan) {
  // Differential guarantee: estimates that carry no information must produce
  // the greedy plan verbatim (same orders, same operator chains).
  ConjunctiveQuery q(
      {"x"},
      {P(Term::Var("x"), Term::Uri("p1"), Term::Var("o")),
       P(Term::Uri("s"), Term::Uri("p2"), Term::Var("x")),
       P(Term::Var("x"), Term::Uri("p3"), Term::Literal("v"))});
  PhysicalPlan greedy = PlanPhysical(q);
  PlanOptions unknown;
  unknown.estimates.resize(q.patterns().size());  // all !known
  PhysicalPlan cost = PlanPhysical(q, unknown);
  EXPECT_EQ(cost.ToString(), greedy.ToString());
  EXPECT_EQ(cost.Order(), greedy.Order());
}

TEST(CostPlannerTest, SmallestEstimatedExtentLeads) {
  // Greedy ranks the exact-subject pattern first; the estimates say its
  // extent is three orders of magnitude larger, so the cost model flips the
  // order and records its running cardinalities.
  ConjunctiveQuery q(
      {"x"},
      {P(Term::Var("x"), Term::Uri("p0"), Term::Var("o")),   // predicate class
       P(Term::Uri("s"), Term::Uri("p1"), Term::Var("x"))}); // subject class
  EXPECT_EQ(PlanPhysical(q).Order(), (std::vector<size_t>{1, 0}));

  PlanOptions opts;
  opts.estimates = {Est(2, 2, 2), Est(1000, 500, 500)};
  PhysicalPlan plan = PlanPhysical(q, opts);
  ASSERT_EQ(plan.groups.size(), 1u);
  EXPECT_EQ(plan.groups[0].patterns, (std::vector<size_t>{0, 1}));
  ASSERT_EQ(plan.groups[0].est_cards.size(), 2u);
  EXPECT_DOUBLE_EQ(plan.groups[0].est_cards[0], 2.0);
  EXPECT_DOUBLE_EQ(plan.groups[0].est_cards[1], 2.0 * 1000 / 500);
}

TEST(CostPlannerTest, EdgePicksBindOrCollectFromEstimates) {
  ConjunctiveQuery q(
      {"x"},
      {P(Term::Uri("s"), Term::Uri("p0"), Term::Var("x")),
       P(Term::Var("x"), Term::Uri("p1"), Term::Var("o"))});

  // The edge extent fans out hard (one distinct subject feeding the join):
  // the bound side of the bind-join would ship ~500 result rows back where
  // collecting the raw 100-row extent ships it once — the edge collects
  // despite bind_join = true.
  PlanOptions collect_wins;
  collect_wins.estimates = {Est(5, 5, 5), Est(100, 1, 100)};
  PhysicalPlan coll = PlanPhysical(q, collect_wins);
  ASSERT_EQ(coll.groups.size(), 1u);
  ASSERT_EQ(coll.groups[0].steps.size(), 4u);
  EXPECT_EQ(coll.groups[0].steps[2].kind, OpKind::kRemoteScan);
  EXPECT_EQ(coll.groups[0].steps[2].pattern, 1u);
  EXPECT_EQ(coll.groups[0].steps[3].kind, OpKind::kLocalJoin);

  // Small running join against a huge extent: bind-join pushdown stays.
  PlanOptions bind_wins;
  bind_wins.estimates = {Est(10, 1, 10), Est(10000, 10000, 10000)};
  PhysicalPlan bind = PlanPhysical(q, bind_wins);
  ASSERT_EQ(bind.groups[0].steps.size(), 3u);
  EXPECT_EQ(bind.groups[0].steps[2].kind, OpKind::kBindJoin);
  EXPECT_EQ(bind.groups[0].steps[2].pattern, 1u);
}

TEST(CostPlannerTest, UnroutablePatternAlwaysBinds) {
  // A RemoteScan of an unroutable pattern resolves no rows, so even when
  // the cost model would prefer collecting its (tiny) extent, the edge must
  // stay a bind-join.
  ConjunctiveQuery q(
      {"x"},
      {P(Term::Uri("s"), Term::Uri("p0"), Term::Var("x")),
       P(Term::Var("x"), Term::Var("p"), Term::Var("o"))});
  PlanOptions opts;
  opts.estimates = {Est(1000, 1, 1000), Est(5, 5, 5)};
  PhysicalPlan plan = PlanPhysical(q, opts);
  ASSERT_EQ(plan.groups.size(), 1u);
  ASSERT_EQ(plan.groups[0].steps.size(), 3u);
  EXPECT_EQ(plan.groups[0].steps[2].kind, OpKind::kBindJoin);
  EXPECT_EQ(plan.groups[0].steps[2].pattern, 1u);
}

TEST(CostPlannerTest, GroupSuffixDeterministicAndOrdersByObservedCard) {
  ConjunctiveQuery q(
      {"x"},
      {P(Term::Uri("s"), Term::Uri("p0"), Term::Var("x")),
       P(Term::Var("x"), Term::Uri("p1"), Term::Var("o")),
       P(Term::Var("x"), Term::Uri("p2"), Term::Var("o2"))});
  PlanOptions opts;
  opts.estimates = {Est(10, 1, 10), Est(500, 100, 100), Est(20, 20, 20)};

  GroupSuffix s1 = PlanGroupSuffix(q, {0}, {1, 2}, /*prefix_card=*/8, opts);
  GroupSuffix s2 = PlanGroupSuffix(q, {0}, {1, 2}, /*prefix_card=*/8, opts);
  ASSERT_EQ(s1.patterns.size(), 2u);
  // The smaller joined cardinality (pattern 2) extends the prefix first.
  EXPECT_EQ(s1.patterns[0], 2u);
  EXPECT_EQ(s1.patterns[1], 1u);
  // Equal inputs -> equal suffixes (the adaptive splice must be replayable).
  EXPECT_EQ(s1.patterns, s2.patterns);
  EXPECT_EQ(s1.est_cards, s2.est_cards);
  ASSERT_EQ(s1.steps.size(), s2.steps.size());
  for (size_t i = 0; i < s1.steps.size(); ++i) {
    EXPECT_EQ(s1.steps[i].kind, s2.steps[i].kind);
    EXPECT_EQ(s1.steps[i].pattern, s2.steps[i].pattern);
  }
}

}  // namespace
}  // namespace gridvine
