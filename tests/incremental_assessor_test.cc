#include "selforg/incremental_assessor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "mapping/mapping_graph.h"
#include "selforg/mapping_assessor.h"

namespace gridvine {
namespace {

SchemaMapping M(const std::string& id, const std::string& src,
                const std::string& dst,
                const std::vector<std::pair<std::string, std::string>>& corr,
                MappingProvenance prov = MappingProvenance::kAutomatic) {
  SchemaMapping m(id, src, dst);
  m.set_provenance(prov);
  for (const auto& [s, d] : corr) {
    EXPECT_TRUE(m.AddCorrespondence(src + "#" + s, dst + "#" + d).ok());
  }
  return m;
}

const std::vector<std::pair<std::string, std::string>> kIdentity = {
    {"organism", "organism"}, {"length", "length"}, {"gene", "gene"}};
const std::vector<std::pair<std::string, std::string>> kSwapped = {
    {"organism", "gene"}, {"length", "length"}, {"gene", "organism"}};

/// Drives `graph` (with `assessor` attached) through `steps` random
/// add / re-intern / deprecate / remove events. Interleaves Update() calls
/// so the incremental machinery runs mid-history, not only at the end.
void RunRandomHistory(MappingGraph* graph, IncrementalAssessor* assessor,
                      uint64_t seed, int steps) {
  Rng rng(seed);
  const std::vector<std::string> schemas = {"S0", "S1", "S2", "S3", "S4"};
  std::vector<std::string> ids;
  int seq = 0;
  for (int step = 0; step < steps; ++step) {
    int kind = int(rng.UniformInt(0, 9));
    if (kind < 5 || ids.empty()) {
      // Add a fresh mapping between a random ordered schema pair.
      size_t a = size_t(rng.UniformInt(0, int64_t(schemas.size()) - 1));
      size_t b = size_t(rng.UniformInt(0, int64_t(schemas.size()) - 2));
      if (b >= a) ++b;
      std::string id = std::string("m").append(std::to_string(seq++));
      auto m = M(id, schemas[a], schemas[b],
                 rng.Bernoulli(0.25) ? kSwapped : kIdentity,
                 rng.Bernoulli(0.15) ? MappingProvenance::kManual
                                     : MappingProvenance::kAutomatic);
      m.set_bidirectional(rng.Bernoulli(0.5));
      m.set_confidence(rng.Bernoulli(0.5) ? 0.7 : 0.55);
      graph->AddMapping(m);
      ids.push_back(id);
    } else if (kind < 7) {
      // Re-intern: same id, changed content (correspondences flipped).
      const std::string& id = ids[size_t(rng.UniformInt(0, int64_t(ids.size()) - 1))];
      auto cur = graph->Get(id);
      if (cur.ok() && !cur->deprecated()) {
        bool was_identity =
            cur->correspondences().count(cur->source_schema() + "#organism") &&
            cur->correspondences().at(cur->source_schema() + "#organism") ==
                cur->target_schema() + "#organism";
        auto m = M(id, cur->source_schema(), cur->target_schema(),
                   was_identity ? kSwapped : kIdentity, cur->provenance());
        m.set_bidirectional(cur->bidirectional());
        m.set_confidence(cur->confidence());
        graph->AddMapping(m);
      }
    } else if (kind < 9) {
      graph->Deprecate(ids[size_t(rng.UniformInt(0, int64_t(ids.size()) - 1))]);
    } else {
      size_t pick = size_t(rng.UniformInt(0, int64_t(ids.size()) - 1));
      graph->RemoveMapping(ids[pick]);
      ids.erase(ids.begin() + long(pick));
    }
    if (step % 7 == 3) assessor->Update();
  }
}

/// Exact (bitwise) equality of two posterior maps.
void ExpectBitIdentical(const std::map<std::string, double>& a,
                        const std::map<std::string, double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [id, p] : a) {
    ASSERT_TRUE(b.count(id)) << id;
    EXPECT_EQ(p, b.at(id)) << id;  // exact, not NEAR
  }
}

// ---------------------------------------------------------------------------
// Differential: incremental maintenance == full rebuild, on randomized
// event histories with pinned seeds.
// ---------------------------------------------------------------------------

class DifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DifferentialTest, StructureMatchesFreshRebuild) {
  MappingGraph graph;
  IncrementalAssessor inc;
  inc.Attach(&graph);
  RunRandomHistory(&graph, &inc, GetParam(), 80);

  MappingGraph copy = graph;
  copy.SetListener(nullptr);
  IncrementalAssessor fresh;
  fresh.Attach(&copy);

  EXPECT_EQ(inc.factor_count(), fresh.factor_count());
  EXPECT_EQ(inc.variable_count(), fresh.variable_count());
  EXPECT_EQ(inc.StructureDigest(), fresh.StructureDigest());
}

TEST_P(DifferentialTest, FixedScheduleBitIdenticalToRebuild) {
  MappingGraph graph;
  IncrementalAssessor inc;
  inc.Attach(&graph);
  RunRandomHistory(&graph, &inc, GetParam(), 80);

  MappingGraph copy = graph;
  copy.SetListener(nullptr);
  IncrementalAssessor fresh;
  fresh.Attach(&copy);

  // Same structure + same deterministic cold-start schedule => the exact
  // same float operations, so exact equality is required, not approximate.
  ExpectBitIdentical(inc.AssessWithFixedSchedule(),
                     fresh.AssessWithFixedSchedule());
}

TEST_P(DifferentialTest, WarmUpdateConvergesAndStaysClean) {
  // The warm-started residual schedule must drain on arbitrary histories
  // (no leaked dirty state) and produce valid posteriors. Note: on heavily
  // frustrated random graphs loopy BP has *multiple* fixed points, so the
  // warm fixed point is not compared against a cold rebuild here — the
  // guaranteed cross-history equivalence is AssessWithFixedSchedule (above);
  // warm-vs-rebuilt agreement on unambiguous graphs is covered by
  // WarmStartDifferentialTest.
  MappingGraph graph;
  IncrementalAssessor inc;
  inc.Attach(&graph);
  RunRandomHistory(&graph, &inc, GetParam(), 80);
  for (int i = 0; i < 200 && inc.dirty_count() > 0; ++i) inc.Update();
  EXPECT_EQ(inc.dirty_count(), 0u);
  auto stats = inc.Update();  // nothing left to do
  EXPECT_TRUE(stats.converged);
  EXPECT_EQ(stats.messages, 0u);
}

TEST_P(DifferentialTest, PosteriorsStayInUnitInterval) {
  MappingGraph graph;
  IncrementalAssessor inc;
  inc.Attach(&graph);
  RunRandomHistory(&graph, &inc, GetParam(), 80);
  for (int i = 0; i < 200 && inc.dirty_count() > 0; ++i) inc.Update();

  for (const auto& [id, p] : inc.Posteriors()) {
    EXPECT_GE(p, 0.0) << id;
    EXPECT_LE(p, 1.0) << id;
    EXPECT_TRUE(std::isfinite(p)) << id;
  }
  for (const auto& [id, p] : inc.AssessWithFixedSchedule()) {
    EXPECT_GE(p, 0.0) << id;
    EXPECT_LE(p, 1.0) << id;
  }
}

INSTANTIATE_TEST_SUITE_P(PinnedSeeds, DifferentialTest,
                         ::testing::Values(3u, 17u, 101u));

// ---------------------------------------------------------------------------
// Differential vs the legacy batch assessor on a deterministic graph whose
// cycle verdicts are representation-independent (all-consistent, or one
// clearly inconsistent edge): decisions must agree.
// ---------------------------------------------------------------------------

void BuildRichGraph(MappingGraph* g, bool include_bad) {
  const std::vector<std::string> schemas = {"A", "B", "C", "D"};
  for (size_t i = 0; i < schemas.size(); ++i) {
    for (size_t j = 0; j < schemas.size(); ++j) {
      if (i == j) continue;
      std::string id = schemas[i] + schemas[j];
      g->AddMapping(M(id, schemas[i], schemas[j],
                      include_bad && id == "BC" ? kSwapped : kIdentity));
    }
  }
}

TEST(WarmStartDifferentialTest, WarmFixedPointMatchesRebuiltOnRichGraph) {
  // On a graph where loopy BP converges to a single regime (dense
  // consistent cycles, one bad edge), the warm-started incremental fixed
  // point and a cold rebuild's converged fixed point coincide within the
  // documented epsilon — even after a history detour that makes the warm
  // message state genuinely path-dependent.
  MappingGraph graph;
  IncrementalAssessor inc;
  inc.Attach(&graph);
  BuildRichGraph(&graph, /*include_bad=*/true);
  inc.Update();
  graph.Deprecate("CD");
  inc.Update();
  graph.AddMapping(M("CD", "C", "D", kIdentity));  // re-intern reactivates
  for (int i = 0; i < 200 && inc.dirty_count() > 0; ++i) inc.Update();
  EXPECT_EQ(inc.dirty_count(), 0u);

  MappingGraph copy = graph;
  copy.SetListener(nullptr);
  IncrementalAssessor fresh;
  fresh.Attach(&copy);
  for (int i = 0; i < 200 && fresh.dirty_count() > 0; ++i) fresh.Update();

  auto warm = inc.Posteriors();
  auto rebuilt = fresh.Posteriors();
  ASSERT_EQ(warm.size(), rebuilt.size());
  for (const auto& [id, p] : warm) {
    EXPECT_NEAR(p, rebuilt.at(id), 1e-6) << id;
  }
}

TEST(IncrementalVsLegacyTest, SameDecisionsOnRichGraph) {
  MappingGraph graph;
  IncrementalAssessor inc;
  inc.Attach(&graph);
  BuildRichGraph(&graph, /*include_bad=*/true);
  for (int i = 0; i < 200 && inc.dirty_count() > 0; ++i) inc.Update();

  MappingAssessor legacy;
  auto batch = legacy.Assess(graph);
  auto warm = inc.Posteriors();
  ASSERT_EQ(warm.size(), batch.posterior.size());
  for (const auto& [id, p] : batch.posterior) {
    ASSERT_TRUE(warm.count(id)) << id;
    // Decision-level agreement around the deprecation line (factor
    // representations and multiply order differ between the two paths).
    if (id == "BC") {
      EXPECT_LT(warm.at(id), 0.45);
    } else {
      EXPECT_GT(warm.at(id), 0.5) << id;
    }
    EXPECT_NEAR(warm.at(id), p, 0.05) << id;
  }
}

TEST(IncrementalVsLegacyTest, LonelyMappingKeepsPrior) {
  MappingGraph graph;
  IncrementalAssessor inc;
  inc.Attach(&graph);
  auto lone = M("xy", "X", "Y", kIdentity);
  lone.set_confidence(0.66);
  graph.AddMapping(lone);
  inc.Update();
  EXPECT_NEAR(inc.Posterior("xy"), 0.66, 1e-9);
  EXPECT_NEAR(inc.AssessWithFixedSchedule().at("xy"), 0.66, 1e-9);
}

// ---------------------------------------------------------------------------
// Property: event-order independence for histories reaching the same
// active content.
// ---------------------------------------------------------------------------

TEST(OrderIndependenceTest, PermutedAddsYieldIdenticalState) {
  std::vector<SchemaMapping> ms;
  ms.push_back(M("ab", "A", "B", kIdentity));
  ms.push_back(M("bc", "B", "C", kIdentity));
  ms.push_back(M("ca", "C", "A", kIdentity));
  ms.push_back(M("ba", "B", "A", kSwapped));
  auto bidi = M("ac", "A", "C", kIdentity);
  bidi.set_bidirectional(true);
  ms.push_back(bidi);

  std::vector<size_t> order = {0, 1, 2, 3, 4};
  std::string base_digest;
  std::map<std::string, double> base_posteriors;
  int tried = 0;
  do {
    MappingGraph g;
    IncrementalAssessor inc;
    inc.Attach(&g);
    for (size_t i : order) g.AddMapping(ms[i]);
    if (base_digest.empty()) {
      base_digest = inc.StructureDigest();
      base_posteriors = inc.AssessWithFixedSchedule();
    } else {
      EXPECT_EQ(inc.StructureDigest(), base_digest)
          << "order " << ::testing::PrintToString(order);
      ExpectBitIdentical(inc.AssessWithFixedSchedule(), base_posteriors);
    }
  } while (std::next_permutation(order.begin(), order.end()) && ++tried < 24);
}

TEST(OrderIndependenceTest, DeprecateReAddHistoryConverges) {
  // Two histories with the same final active content: one plain build, one
  // with a deprecate + re-intern detour on the way.
  MappingGraph plain;
  IncrementalAssessor inc_plain;
  inc_plain.Attach(&plain);
  BuildRichGraph(&plain, /*include_bad=*/false);

  MappingGraph detour;
  IncrementalAssessor inc_detour;
  inc_detour.Attach(&detour);
  BuildRichGraph(&detour, /*include_bad=*/true);  // BC starts swapped
  inc_detour.Update();
  detour.Deprecate("AB");
  auto ab = M("AB", "A", "B", kIdentity);  // re-intern reactivates it
  detour.AddMapping(ab);
  inc_detour.Update();
  auto bc = M("BC", "B", "C", kIdentity);  // fix the bad edge in place
  detour.AddMapping(bc);

  // Digests agree on the *active* structure; the deprecated-then-readded
  // and replaced mappings leave no residue.
  EXPECT_EQ(inc_plain.StructureDigest(), inc_detour.StructureDigest());
  ExpectBitIdentical(inc_plain.AssessWithFixedSchedule(),
                     inc_detour.AssessWithFixedSchedule());
}

// ---------------------------------------------------------------------------
// Property: deprecation monotonicity. On a graph whose shared cycles are
// all *consistent*, deprecating one mapping can only lower (never raise)
// the posteriors of the others: consistent factors always push beliefs up,
// so losing them is losing support. (Inconsistent shared cycles push down,
// so this property intentionally restricts itself to consistent ones.)
// ---------------------------------------------------------------------------

TEST(DeprecationMonotonicityTest, DeprecationNeverRaisesOthers) {
  MappingGraph graph;
  IncrementalAssessor inc;
  inc.Attach(&graph);
  BuildRichGraph(&graph, /*include_bad=*/false);

  auto before = inc.AssessWithFixedSchedule();
  graph.Deprecate("AB");
  auto after = inc.AssessWithFixedSchedule();

  EXPECT_EQ(after.count("AB"), 0u);
  for (const auto& [id, p] : after) {
    EXPECT_LE(p, before.at(id) + 1e-12) << id;
  }
  // And strictly lower for a mapping that shared consistent cycles with AB.
  EXPECT_LT(after.at("BA"), before.at("BA"));
}

// ---------------------------------------------------------------------------
// Property: the per-round message cap bounds each Update() and capped
// convergence reaches the same fixed point as unconstrained convergence.
// ---------------------------------------------------------------------------

TEST(MessageCapTest, CapRespectedAndStillConverges) {
  IncrementalAssessor::Options capped_opts;
  capped_opts.message_cap = 12;

  MappingGraph graph;
  IncrementalAssessor capped(capped_opts);
  capped.Attach(&graph);
  BuildRichGraph(&graph, /*include_bad=*/true);

  size_t rounds = 0;
  bool converged = false;
  while (rounds < 5000) {
    auto stats = capped.Update();
    ++rounds;
    EXPECT_LE(stats.messages, capped_opts.message_cap);
    if (stats.converged && capped.dirty_count() == 0) {
      converged = true;
      break;
    }
  }
  EXPECT_TRUE(converged) << "capped propagation never drained";
  EXPECT_GT(rounds, 1u) << "cap of 12 should force multiple rounds";

  MappingGraph graph2;
  IncrementalAssessor uncapped;
  uncapped.Attach(&graph2);
  BuildRichGraph(&graph2, /*include_bad=*/true);
  for (int i = 0; i < 200 && uncapped.dirty_count() > 0; ++i) uncapped.Update();

  auto a = capped.Posteriors();
  auto b = uncapped.Posteriors();
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [id, p] : a) {
    EXPECT_NEAR(p, b.at(id), 1e-6) << id;
  }
}

TEST(MessageCapTest, DirtyCarryOverIsReported) {
  IncrementalAssessor::Options opts;
  opts.message_cap = 1;  // pathological: at most one factor per round
  MappingGraph graph;
  IncrementalAssessor inc(opts);
  inc.Attach(&graph);
  BuildRichGraph(&graph, /*include_bad=*/false);

  auto stats = inc.Update();
  EXPECT_FALSE(stats.converged);
  EXPECT_GT(stats.dirty_after, 0u);
  EXPECT_GT(inc.dirty_count(), 0u);
}

// ---------------------------------------------------------------------------
// MappingGraph event feed: the contract the incremental assessor (and the
// version-keyed caches) rely on.
// ---------------------------------------------------------------------------

class RecordingListener : public MappingGraph::Listener {
 public:
  void OnMappingAdded(const MappingGraph&, const std::string& id) override {
    events.push_back("add:" + id);
  }
  void OnMappingReplaced(const MappingGraph&, const std::string& id) override {
    events.push_back("replace:" + id);
  }
  void OnMappingDeprecated(const MappingGraph&,
                           const std::string& id) override {
    events.push_back("deprecate:" + id);
  }
  void OnMappingRemoved(const MappingGraph&, const std::string& id) override {
    events.push_back("remove:" + id);
  }
  std::vector<std::string> events;
};

TEST(MappingGraphEventTest, EventsAndVersionGating) {
  MappingGraph g;
  RecordingListener rec;
  g.SetListener(&rec);

  g.AddMapping(M("ab", "A", "B", kIdentity));
  EXPECT_EQ(rec.events, std::vector<std::string>{"add:ab"});

  // Identical re-add: no event — periodic view re-syncs must not disturb
  // the incremental assessor or any other listener.
  g.AddMapping(M("ab", "A", "B", kIdentity));
  EXPECT_EQ(rec.events.size(), 1u);

  // Changed content under the same id: replace event.
  g.AddMapping(M("ab", "A", "B", kSwapped));
  EXPECT_EQ(rec.events.back(), "replace:ab");

  EXPECT_TRUE(g.Deprecate("ab"));
  EXPECT_EQ(rec.events.back(), "deprecate:ab");

  // Deprecating again: still "present" (true), but no event.
  EXPECT_TRUE(g.Deprecate("ab"));
  EXPECT_EQ(rec.events.back(), "deprecate:ab");
  EXPECT_EQ(rec.events.size(), 3u);

  EXPECT_TRUE(g.RemoveMapping("ab"));
  EXPECT_EQ(rec.events.back(), "remove:ab");
  // Removing an absent id: false, no event.
  EXPECT_FALSE(g.RemoveMapping("ab"));
  EXPECT_EQ(rec.events.size(), 4u);
}

TEST(MappingGraphEventTest, DetachStopsDelivery) {
  MappingGraph g;
  RecordingListener rec;
  g.SetListener(&rec);
  g.AddMapping(M("ab", "A", "B", kIdentity));
  g.SetListener(nullptr);
  g.AddMapping(M("cd", "C", "D", kIdentity));
  EXPECT_EQ(rec.events.size(), 1u);
}

// A backwards-only cycle: the newest edge's forward orientation closes no
// cycle, but its backward traversal does. Discovery must find it (the
// counterexample that forced two-orientation probing).
TEST(IncrementalDiscoveryTest, FindsCycleThroughNewEdgeBackwards) {
  MappingGraph g;
  IncrementalAssessor inc;
  inc.Attach(&g);
  g.AddMapping(M("ac", "A", "C", kIdentity));
  g.AddMapping(M("cb", "C", "B", kIdentity));
  EXPECT_EQ(inc.factor_count(), 0u);
  auto ab = M("ab", "A", "B", kIdentity);
  ab.set_bidirectional(true);
  g.AddMapping(ab);  // closes A->C->B->(ab backwards)->A
  EXPECT_EQ(inc.factor_count(), 1u);

  MappingGraph copy = g;
  copy.SetListener(nullptr);
  IncrementalAssessor fresh;
  fresh.Attach(&copy);
  EXPECT_EQ(inc.StructureDigest(), fresh.StructureDigest());
}

}  // namespace
}  // namespace gridvine
