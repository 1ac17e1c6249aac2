#include "selforg/mapping_assessor.h"

#include <gtest/gtest.h>

namespace gridvine {
namespace {

/// Builds a mapping with per-attribute correspondences given as local-name
/// pairs, e.g. {{"x", "x"}, {"y", "y"}} for an identity-style mapping.
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
// Swaps organism and gene: composing around a cycle will not return home.
const std::vector<std::pair<std::string, std::string>> kSwapped = {
    {"organism", "gene"}, {"length", "length"}, {"gene", "organism"}};

TEST(CycleCheckTest, ConsistentTriangle) {
  MappingGraph g;
  g.AddMapping(M("ab", "A", "B", kIdentity));
  g.AddMapping(M("bc", "B", "C", kIdentity));
  g.AddMapping(M("ca", "C", "A", kIdentity));
  MappingAssessor assessor;
  auto obs = assessor.CheckCycle(g, {"ab", "bc", "ca"});
  EXPECT_EQ(obs.attributes_checked, 3);
  EXPECT_TRUE(obs.consistent);
}

TEST(CycleCheckTest, InconsistentTriangle) {
  MappingGraph g;
  g.AddMapping(M("ab", "A", "B", kIdentity));
  g.AddMapping(M("bc", "B", "C", kSwapped));
  g.AddMapping(M("ca", "C", "A", kIdentity));
  MappingAssessor assessor;
  auto obs = assessor.CheckCycle(g, {"ab", "bc", "ca"});
  EXPECT_EQ(obs.attributes_checked, 3);
  // organism and gene come back swapped; only length survives: 1/3 < half.
  EXPECT_FALSE(obs.consistent);
}

TEST(CycleCheckTest, BrokenChainYieldsNoEvidence) {
  MappingGraph g;
  g.AddMapping(M("ab", "A", "B", kIdentity));
  g.AddMapping(M("cd", "C", "D", kIdentity));
  MappingAssessor assessor;
  auto obs = assessor.CheckCycle(g, {"ab", "cd"});
  EXPECT_EQ(obs.attributes_checked, 0);
}

TEST(CycleCheckTest, PartialCorrespondenceDropsAttributes) {
  MappingGraph g;
  g.AddMapping(M("ab", "A", "B", kIdentity));
  g.AddMapping(M("bc", "B", "C", {{"organism", "organism"}}));
  g.AddMapping(M("ca", "C", "A", {{"organism", "organism"}}));
  MappingAssessor assessor;
  auto obs = assessor.CheckCycle(g, {"ab", "bc", "ca"});
  EXPECT_EQ(obs.attributes_checked, 1);  // only organism chains through
  EXPECT_TRUE(obs.consistent);
}

TEST(CycleCheckTest, UsesBidirectionalEdgesBackwards) {
  MappingGraph g;
  auto ab = M("ab", "A", "B", kIdentity);
  auto ab2 = M("ab2", "A", "B", kIdentity);
  ab2.set_bidirectional(true);
  g.AddMapping(ab);
  g.AddMapping(ab2);
  MappingAssessor assessor;
  // Forward over ab, backward over ab2.
  auto obs = assessor.CheckCycle(g, {"ab", "ab2"});
  EXPECT_EQ(obs.attributes_checked, 3);
  EXPECT_TRUE(obs.consistent);
}

class AssessorTest : public ::testing::Test {
 protected:
  /// Four schemas fully cross-linked with correct mappings plus one bad
  /// apple: every correct mapping participates in consistent 2-cycles, the
  /// bad one makes its cycles inconsistent.
  void BuildRichGraph(bool include_bad) {
    const std::vector<std::string> schemas = {"A", "B", "C", "D"};
    for (size_t i = 0; i < schemas.size(); ++i) {
      for (size_t j = 0; j < schemas.size(); ++j) {
        if (i == j) continue;
        std::string id = schemas[i] + schemas[j];
        if (include_bad && id == "BC") {
          graph_.AddMapping(M(id, schemas[i], schemas[j], kSwapped));
        } else {
          graph_.AddMapping(M(id, schemas[i], schemas[j], kIdentity));
        }
      }
    }
  }
  MappingGraph graph_;
};

TEST_F(AssessorTest, AllCorrectMappingsGetHighPosterior) {
  BuildRichGraph(/*include_bad=*/false);
  MappingAssessor assessor;
  auto assessment = assessor.Assess(graph_);
  ASSERT_EQ(assessment.posterior.size(), 12u);
  for (const auto& [id, p] : assessment.posterior) {
    EXPECT_GT(p, 0.9) << id;
  }
  EXPECT_FALSE(assessment.observations.empty());
}

TEST_F(AssessorTest, BadMappingGetsLowestPosterior) {
  BuildRichGraph(/*include_bad=*/true);
  MappingAssessor assessor;
  auto assessment = assessor.Assess(graph_);
  double bad = assessment.posterior.at("BC");
  for (const auto& [id, p] : assessment.posterior) {
    if (id != "BC") {
      EXPECT_GT(p, bad) << id << " should outrank the erroneous mapping";
    }
  }
  EXPECT_LT(bad, 0.45);
  // Correct mappings must stay above the deprecation line despite sharing
  // inconsistent cycles with the bad one.
  for (const auto& [id, p] : assessment.posterior) {
    if (id != "BC") {
      EXPECT_GT(p, 0.5) << id;
    }
  }
}

TEST_F(AssessorTest, ManualMappingsAreNotAssessed) {
  graph_.AddMapping(M("ab", "A", "B", kIdentity, MappingProvenance::kManual));
  graph_.AddMapping(M("ba", "B", "A", kIdentity));
  MappingAssessor assessor;
  auto assessment = assessor.Assess(graph_);
  EXPECT_EQ(assessment.posterior.count("ab"), 0u);
  EXPECT_EQ(assessment.posterior.count("ba"), 1u);
  // The automatic one benefits from the consistent cycle with the manual.
  EXPECT_GT(assessment.posterior.at("ba"), 0.7);
}

TEST_F(AssessorTest, MappingWithoutCyclesKeepsPrior) {
  auto lone = M("xy", "X", "Y", kIdentity);
  lone.set_confidence(0.66);
  graph_.AddMapping(lone);
  MappingAssessor assessor;
  auto assessment = assessor.Assess(graph_);
  EXPECT_NEAR(assessment.posterior.at("xy"), 0.66, 1e-9);
}

TEST_F(AssessorTest, DeprecatedMappingsExcluded) {
  BuildRichGraph(false);
  graph_.Deprecate("AB");
  MappingAssessor assessor;
  auto assessment = assessor.Assess(graph_);
  EXPECT_EQ(assessment.posterior.count("AB"), 0u);
}

TEST_F(AssessorTest, CycleLengthCapHonored) {
  // Only a 3-cycle exists; with max_cycle_len = 2 no evidence is found.
  graph_.AddMapping(M("ab", "A", "B", kIdentity));
  graph_.AddMapping(M("bc", "B", "C", kIdentity));
  graph_.AddMapping(M("ca", "C", "A", kIdentity));
  MappingAssessor::Options opts;
  opts.max_cycle_len = 2;
  MappingAssessor assessor(opts);
  auto assessment = assessor.Assess(graph_);
  EXPECT_TRUE(assessment.observations.empty());
}

}  // namespace
}  // namespace gridvine
