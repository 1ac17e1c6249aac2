#include <gtest/gtest.h>

#include "query/query.h"
#include "query/reformulation.h"

namespace gridvine {
namespace {

TriplePatternQuery OrganismQuery(const std::string& schema = "EMBL") {
  return TriplePatternQuery(
      "x", TriplePattern(Term::Var("x"), Term::Uri(schema + "#Organism"),
                         Term::Literal("%Aspergillus%")));
}

SchemaMapping OrganismMapping(const std::string& id, const std::string& src,
                              const std::string& dst) {
  SchemaMapping m(id, src, dst);
  EXPECT_TRUE(m.AddCorrespondence(src + "#Organism", dst + "#Organism").ok());
  return m;
}

TEST(QueryTest, ValidateRequiresDistinguishedVarInPattern) {
  EXPECT_TRUE(OrganismQuery().Validate().ok());
  TriplePatternQuery bad(
      "z", TriplePattern(Term::Var("x"), Term::Uri("p"), Term::Var("y")));
  EXPECT_TRUE(bad.Validate().IsInvalidArgument());
  TriplePatternQuery empty(
      "", TriplePattern(Term::Var("x"), Term::Uri("p"), Term::Var("y")));
  EXPECT_TRUE(empty.Validate().IsInvalidArgument());
}

TEST(QueryTest, SchemaNameFromPredicate) {
  EXPECT_EQ(OrganismQuery().SchemaName(), "EMBL");
  TriplePatternQuery varpred(
      "x", TriplePattern(Term::Var("x"), Term::Var("p"), Term::Var("y")));
  EXPECT_EQ(varpred.SchemaName(), "");
}

TEST(QueryTest, SerializeParseRoundTrip) {
  TriplePatternQuery q = OrganismQuery();
  auto parsed = TriplePatternQuery::Parse(q.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(*parsed, q);
}

TEST(QueryTest, ParseRejectsGarbage) {
  EXPECT_FALSE(TriplePatternQuery::Parse("no separator").ok());
  EXPECT_FALSE(TriplePatternQuery::Parse("x\x1egarbage").ok());
}

TEST(QueryTest, ToStringMatchesPaperNotation) {
  EXPECT_EQ(OrganismQuery().ToString(),
            "SearchFor(x? : (?x, <EMBL#Organism>, \"%Aspergillus%\"))");
}

TEST(ConjunctiveQueryTest, Validate) {
  ConjunctiveQuery q(
      {"x"},
      {TriplePattern(Term::Var("x"), Term::Uri("EMBL#Organism"),
                     Term::Literal("%niger%")),
       TriplePattern(Term::Var("x"), Term::Uri("EMBL#Length"),
                     Term::Var("l"))});
  EXPECT_TRUE(q.Validate().ok());

  ConjunctiveQuery no_patterns({"x"}, {});
  EXPECT_TRUE(no_patterns.Validate().IsInvalidArgument());

  ConjunctiveQuery unbound(
      {"z"}, {TriplePattern(Term::Var("x"), Term::Uri("p"), Term::Var("y"))});
  EXPECT_TRUE(unbound.Validate().IsInvalidArgument());
}

TEST(ReformulateTest, SubstitutesPredicate) {
  auto q = OrganismQuery("EMBL");
  SchemaMapping m("m1", "EMBL", "EMP");
  ASSERT_TRUE(m.AddCorrespondence("EMBL#Organism", "EMP#SystematicName").ok());
  auto r = Reformulate(q, m);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->pattern().predicate().value(), "EMP#SystematicName");
  // Everything else unchanged (the paper's Figure 2 example).
  EXPECT_EQ(r->pattern().object().value(), "%Aspergillus%");
  EXPECT_EQ(r->distinguished_var(), "x");
}

TEST(ReformulateTest, FailsOnWrongSchema) {
  auto q = OrganismQuery("PDB");
  SchemaMapping m = OrganismMapping("m1", "EMBL", "EMP");
  EXPECT_TRUE(Reformulate(q, m).status().IsInvalidArgument());
}

TEST(ReformulateTest, FailsOnMissingCorrespondence) {
  TriplePatternQuery q(
      "x", TriplePattern(Term::Var("x"), Term::Uri("EMBL#Keywords"),
                         Term::Var("y")));
  SchemaMapping m = OrganismMapping("m1", "EMBL", "EMP");
  EXPECT_TRUE(Reformulate(q, m).status().IsNotFound());
}

TEST(ReformulateTest, FailsOnDeprecatedMapping) {
  auto q = OrganismQuery();
  SchemaMapping m = OrganismMapping("m1", "EMBL", "EMP");
  m.set_deprecated(true);
  EXPECT_TRUE(Reformulate(q, m).status().IsInvalidArgument());
}

TEST(ReformulateTest, FailsOnVariablePredicate) {
  TriplePatternQuery q(
      "x", TriplePattern(Term::Var("x"), Term::Var("p"), Term::Var("y")));
  SchemaMapping m = OrganismMapping("m1", "EMBL", "EMP");
  EXPECT_TRUE(Reformulate(q, m).status().IsInvalidArgument());
}

TEST(ReformulateTest, AlongPath) {
  auto q = OrganismQuery("A");
  std::vector<SchemaMapping> path = {OrganismMapping("ab", "A", "B"),
                                     OrganismMapping("bc", "B", "C")};
  auto r = ReformulateAlongPath(q, path);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->pattern().predicate().value(), "C#Organism");
  // Broken chain fails.
  std::vector<SchemaMapping> broken = {OrganismMapping("ab", "A", "B"),
                                       OrganismMapping("cd", "C", "D")};
  EXPECT_FALSE(ReformulateAlongPath(q, broken).ok());
}

TEST(ExpandQueryTest, ReachesAllSchemasOnce) {
  MappingGraph g;
  g.AddMapping(OrganismMapping("ab", "A", "B"));
  g.AddMapping(OrganismMapping("bc", "B", "C"));
  g.AddMapping(OrganismMapping("ac", "A", "C"));
  g.AddMapping(OrganismMapping("ca", "C", "A"));  // back-edge: no revisit

  auto expansions = ExpandQuery(OrganismQuery("A"), g, /*max_hops=*/5);
  // B and C each reached exactly once (A itself excluded).
  ASSERT_EQ(expansions.size(), 2u);
  std::set<std::string> schemas;
  for (const auto& e : expansions) {
    schemas.insert(e.schema);
    EXPECT_EQ(e.query.SchemaName(), e.schema);
  }
  EXPECT_TRUE(schemas.count("B"));
  EXPECT_TRUE(schemas.count("C"));
}

TEST(ExpandQueryTest, RespectsMaxHops) {
  MappingGraph g;
  g.AddMapping(OrganismMapping("ab", "A", "B"));
  g.AddMapping(OrganismMapping("bc", "B", "C"));
  auto expansions = ExpandQuery(OrganismQuery("A"), g, /*max_hops=*/1);
  ASSERT_EQ(expansions.size(), 1u);
  EXPECT_EQ(expansions[0].schema, "B");
}

TEST(ExpandQueryTest, TracksConfidenceAndPath) {
  MappingGraph g;
  auto ab = OrganismMapping("ab", "A", "B");
  ab.set_confidence(0.9);
  auto bc = OrganismMapping("bc", "B", "C");
  bc.set_confidence(0.5);
  g.AddMapping(ab);
  g.AddMapping(bc);
  auto expansions = ExpandQuery(OrganismQuery("A"), g, 5);
  ASSERT_EQ(expansions.size(), 2u);
  for (const auto& e : expansions) {
    if (e.schema == "C") {
      EXPECT_EQ(e.mapping_ids,
                (std::vector<std::string>{"ab", "bc"}));
      EXPECT_NEAR(e.confidence, 0.45, 1e-9);
    }
  }
}

TEST(ExpandQueryTest, PrunesBranchesWithoutCorrespondence) {
  MappingGraph g;
  SchemaMapping partial("ab", "A", "B");
  ASSERT_TRUE(partial.AddCorrespondence("A#Other", "B#Other").ok());
  g.AddMapping(partial);  // no Organism correspondence
  g.AddMapping(OrganismMapping("ac", "A", "C"));
  auto expansions = ExpandQuery(OrganismQuery("A"), g, 5);
  ASSERT_EQ(expansions.size(), 1u);
  EXPECT_EQ(expansions[0].schema, "C");
}

TEST(ExpandQueryTest, UsesBidirectionalMappingsBackwards) {
  MappingGraph g;
  auto ba = OrganismMapping("ba", "B", "A");
  ba.set_bidirectional(true);
  g.AddMapping(ba);
  auto expansions = ExpandQuery(OrganismQuery("A"), g, 5);
  ASSERT_EQ(expansions.size(), 1u);
  EXPECT_EQ(expansions[0].schema, "B");
  EXPECT_EQ(expansions[0].query.pattern().predicate().value(), "B#Organism");
}

TEST(OrientMappingsTest, ForwardEquivalenceAndReversedBidirectional) {
  auto eq = OrganismMapping("ab", "A", "B");
  auto bi = OrganismMapping("cb", "C", "B");
  bi.set_bidirectional(true);
  std::vector<SchemaMapping> raw = {eq, bi};
  auto from_a = OrientMappingsFrom("A", raw);
  ASSERT_EQ(from_a.size(), 1u);
  EXPECT_EQ(from_a[0].target_schema(), "B");
  auto from_b = OrientMappingsFrom("B", raw);
  // eq is unidirectional (no reverse); bi reverses to B -> C.
  ASSERT_EQ(from_b.size(), 1u);
  EXPECT_EQ(from_b[0].target_schema(), "C");
}

TEST(OrientMappingsTest, SubsumptionReversesAsSoundSpecialization) {
  // A#Organism ⊑ B#Organism, NOT bidirectional.
  auto sub = OrganismMapping("ab", "A", "B");
  sub.set_type(MappingType::kSubsumption);
  std::vector<SchemaMapping> raw = {sub};
  // Forward (generalizing) traversal allowed by default...
  auto from_a = OrientMappingsFrom("A", raw);
  ASSERT_EQ(from_a.size(), 1u);
  // ...but excluded under sound_only.
  EXPECT_TRUE(OrientMappingsFrom("A", raw, /*sound_only=*/true).empty());
  // Reverse (specializing) traversal is always available.
  auto from_b = OrientMappingsFrom("B", raw);
  ASSERT_EQ(from_b.size(), 1u);
  EXPECT_EQ(from_b[0].target_schema(), "A");
  EXPECT_EQ(OrientMappingsFrom("B", raw, true).size(), 1u);
}

TEST(OrientMappingsTest, DeprecatedExcluded) {
  auto m = OrganismMapping("ab", "A", "B");
  m.set_deprecated(true);
  EXPECT_TRUE(OrientMappingsFrom("A", {m}).empty());
}

TEST(ExpandQueryTest, EmptyForVariablePredicate) {
  MappingGraph g;
  g.AddMapping(OrganismMapping("ab", "A", "B"));
  TriplePatternQuery q(
      "x", TriplePattern(Term::Var("x"), Term::Var("p"), Term::Var("y")));
  EXPECT_TRUE(ExpandQuery(q, g, 5).empty());
}

}  // namespace
}  // namespace gridvine
