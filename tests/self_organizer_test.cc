#include "selforg/self_organizer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "workload/bio_workload.h"

namespace gridvine {
namespace {

/// Live-network fixture: 8 peers, 5 schemas with data, schema i owned by
/// peer i. No mappings initially.
class SelfOrganizerTest : public ::testing::Test {
 protected:
  SelfOrganizerTest() : net_(NetOptions()), workload_(WorkloadOptions()) {}

  static GridVineNetwork::Options NetOptions() {
    GridVineNetwork::Options o;
    o.num_peers = 8;
    o.key_depth = 12;
    o.seed = 5;
    o.latency = GridVineNetwork::LatencyKind::kConstant;
    o.latency_param = 0.01;
    o.peer.query_timeout = 4.0;
    return o;
  }

  static BioWorkload::Options WorkloadOptions() {
    BioWorkload::Options o;
    o.num_schemas = 5;
    o.num_entities = 40;
    o.entities_per_schema = 16;
    o.min_attrs = 4;
    o.max_attrs = 6;
    o.value_noise = 0.0;
    o.seed = 21;
    return o;
  }

  static SelfOrganizer::Options OrgOptions() {
    SelfOrganizer::Options o;
    o.domain = "protein-sequences";
    o.creations_per_round = 3;
    o.seed = 9;
    return o;
  }

  void SetUp() override {
    for (size_t s = 0; s < workload_.schemas().size(); ++s) {
      ASSERT_TRUE(net_.InsertSchema(s, workload_.schemas()[s]).ok());
      for (const auto& t : workload_.TriplesFor(s)) {
        ASSERT_TRUE(net_.InsertTriple(s, t).ok());
      }
    }
    organizer_ = std::make_unique<SelfOrganizer>(&net_, OrgOptions());
    for (size_t s = 0; s < workload_.schemas().size(); ++s) {
      organizer_->RegisterSchemaOwner(workload_.schemas()[s].name(), s);
    }
  }

  /// Client operations issued network-wide so far (removes count as
  /// updates).
  struct Traffic {
    uint64_t retrieves = 0;
    uint64_t updates = 0;
    uint64_t queries = 0;
  };
  Traffic IssuedSoFar() {
    MetricsRegistry& m = net_.CollectMetrics();
    return Traffic{m.Counter("pgrid.retrieves_issued"),
                   m.Counter("pgrid.updates_issued"),
                   m.Counter("gv.queries_issued")};
  }

  std::set<std::string> SchemasInRegistry(size_t reader) {
    auto records = net_.FetchDomainDegrees(reader, OrgOptions().domain);
    EXPECT_TRUE(records.ok()) << records.status();
    std::set<std::string> schemas;
    if (records.ok()) {
      for (const auto& rec : *records) schemas.insert(rec.schema);
    }
    return schemas;
  }

  GridVineNetwork net_;
  BioWorkload workload_;
  std::unique_ptr<SelfOrganizer> organizer_;
};

TEST_F(SelfOrganizerTest, IndicatorNegativeWithoutMappings) {
  ASSERT_TRUE(organizer_->PublishAllDegrees().ok());
  auto ci = organizer_->ComputeIndicator();
  ASSERT_TRUE(ci.ok()) << ci.status();
  // All degrees zero: ci = 0 at best; definitely not positive, and the
  // graph is certainly not strongly connected.
  EXPECT_LE(*ci, 0.0);
  EXPECT_LT(organizer_->BuildGraphView().LargestSccFraction(), 1.0);
}

TEST_F(SelfOrganizerTest, PublishAllDegreesGetsPastAnUnreachableOwner) {
  // Schemas publish in name order; take the owner of the first one down.
  const auto& schemas = workload_.schemas();
  size_t down = 0;
  for (size_t s = 1; s < schemas.size(); ++s) {
    if (schemas[s].name() < schemas[down].name()) down = s;
  }
  const size_t reader = (down + 1) % schemas.size();
  net_.SetAlive(down, false);
  EXPECT_FALSE(organizer_->PublishAllDegrees().ok());
  std::set<std::string> published = SchemasInRegistry(reader);
  EXPECT_EQ(published.size(), schemas.size() - 1);
  EXPECT_FALSE(published.count(schemas[down].name()));

  // Back up, the owner publishes although its degrees did not change: only
  // an acknowledged publish counts. The others are not rewritten.
  net_.SetAlive(down, true);
  std::vector<uint64_t> updates_before;
  for (size_t s = 0; s < schemas.size(); ++s) {
    updates_before.push_back(
        net_.peer(s)->overlay()->counters().updates_issued);
  }
  EXPECT_TRUE(organizer_->PublishAllDegrees().ok());
  EXPECT_EQ(SchemasInRegistry(reader).size(), schemas.size());
  for (size_t s = 0; s < schemas.size(); ++s) {
    if (s == down) continue;
    EXPECT_EQ(net_.peer(s)->overlay()->counters().updates_issued,
              updates_before[s])
        << schemas[s].name() << " rewrote an unchanged degree record";
  }
}

TEST_F(SelfOrganizerTest, IndicatorReadsPastAnUnreachableOwner) {
  SelfOrganizer::RoundReport last;
  for (int r = 0; r < 20 && last.scc_fraction_after < 1.0; ++r) {
    last = organizer_->RunRound();
  }
  ASSERT_EQ(last.scc_fraction_after, 1.0);
  ASSERT_GT(last.ci_after, 0.0);

  // The owner of the first schema by name goes down; the registry is still
  // readable through the others, so the round sees the same indicator and
  // has nothing to create.
  const auto& schemas = workload_.schemas();
  size_t down = 0;
  for (size_t s = 1; s < schemas.size(); ++s) {
    if (schemas[s].name() < schemas[down].name()) down = s;
  }
  net_.SetAlive(down, false);
  const Traffic before = IssuedSoFar();
  const SelfOrganizer::RoundReport report = organizer_->RunRound();
  EXPECT_EQ(report.ci_before, last.ci_after);
  EXPECT_EQ(report.ci_after, last.ci_after);
  EXPECT_EQ(report.mappings_created, 0u);
  EXPECT_EQ(IssuedSoFar().queries, before.queries);
}

TEST_F(SelfOrganizerTest, GraphViewSeesInsertedMappings) {
  ASSERT_TRUE(
      net_.InsertMapping(0, workload_.GroundTruthMapping(0, 1, "m01")).ok());
  MappingGraph g = organizer_->BuildGraphView();
  EXPECT_TRUE(g.Contains("m01"));
  EXPECT_EQ(g.active_mapping_count(), 1u);
}

TEST_F(SelfOrganizerTest, CreateMappingFindsCorrectCorrespondences) {
  auto created = organizer_->CreateMapping(workload_.schemas()[0].name(),
                                           workload_.schemas()[1].name());
  ASSERT_TRUE(created.ok()) << created.status();
  EXPECT_GT(created->size(), 0u);
  // With shared instance references and name variants, the matcher should be
  // mostly right.
  EXPECT_GE(workload_.MappingPrecision(*created), 0.7)
      << created->Serialize();
  // And the mapping must now be discoverable in the network.
  auto fetched = net_.FetchMappingsFor(3, workload_.schemas()[0].name());
  ASSERT_TRUE(fetched.ok());
  ASSERT_EQ(fetched->size(), 1u);
  EXPECT_EQ((*fetched)[0].id(), created->id());
}

TEST_F(SelfOrganizerTest, SampleValueSetsReflectData) {
  auto sets = organizer_->SampleValueSets(workload_.schemas()[0]);
  std::string organism_attr = workload_.AttributeFor(0, "organism");
  ASSERT_TRUE(sets.count(organism_attr));
  EXPECT_FALSE(sets.at(organism_attr).empty());
}

TEST_F(SelfOrganizerTest, CandidatePairsPreferUnlinkedSchemas) {
  ASSERT_TRUE(
      net_.InsertMapping(0, workload_.GroundTruthMapping(0, 1, "m01")).ok());
  MappingGraph g = organizer_->BuildGraphView();
  auto pairs = organizer_->SelectCandidatePairs(g, 100);
  for (const auto& [a, b] : pairs) {
    bool is_linked_pair =
        (a == workload_.schemas()[0].name() &&
         b == workload_.schemas()[1].name()) ||
        (a == workload_.schemas()[1].name() &&
         b == workload_.schemas()[0].name());
    EXPECT_FALSE(is_linked_pair);
  }
  // 5 schemas, 10 pairs, 1 linked -> 9 candidates.
  EXPECT_EQ(pairs.size(), 9u);
}

TEST_F(SelfOrganizerTest, RoundsDriveNetworkTowardInteroperability) {
  double last_scc = organizer_->BuildGraphView().LargestSccFraction();
  EXPECT_LT(last_scc, 1.0);
  size_t total_created = 0;
  double final_scc = last_scc;
  for (int round = 0; round < 6; ++round) {
    auto report = organizer_->RunRound();
    total_created += report.mappings_created;
    final_scc = report.scc_fraction_after;
    if (report.ci_after >= 0 && final_scc >= 1.0) break;
  }
  EXPECT_GT(total_created, 0u);
  // The mediation layer must reach (or approach) global interoperability.
  EXPECT_GE(final_scc, 0.8);
  auto ci = organizer_->ComputeIndicator();
  ASSERT_TRUE(ci.ok());
  EXPECT_GE(*ci, 0.0);
}

TEST_F(SelfOrganizerTest, SteadyRoundReadsOnceAndWritesNothing) {
  bool quiet = false;
  for (int round = 0; round < 8 && !quiet; ++round) {
    auto report = organizer_->RunRound();
    quiet = report.mappings_created == 0 && report.mappings_deprecated == 0 &&
            report.mappings_stale_deprecated == 0 &&
            report.scc_fraction_after >= 1.0;
  }
  ASSERT_TRUE(quiet) << "no round without changes";

  const Traffic before = IssuedSoFar();
  auto report = organizer_->RunRound();
  const Traffic after = IssuedSoFar();
  ASSERT_EQ(report.mappings_created + report.mappings_deprecated +
                report.mappings_stale_deprecated,
            0u);
  const uint64_t n = workload_.schemas().size();
  // One mapping-list fetch and one schema fetch per schema, and the two
  // registry reads; no degree changed, so none is rewritten; nothing is
  // created, so nothing is sampled.
  EXPECT_EQ(after.retrieves - before.retrieves, 2 * n + 2);
  EXPECT_EQ(after.updates - before.updates, 0u);
  EXPECT_EQ(after.queries - before.queries, 0u);
}

TEST_F(SelfOrganizerTest, CreationRoundFetchesAndSamplesEachSchemaOnce) {
  // From zero mappings the first round tries to map 3 pairs of 5 schemas,
  // so at least one schema takes part in two of them.
  const auto& schemas = workload_.schemas();
  std::vector<uint64_t> queries_before;
  for (size_t s = 0; s < schemas.size(); ++s) {
    queries_before.push_back(net_.peer(s)->counters().queries_issued);
  }
  const Traffic before = IssuedSoFar();
  auto report = organizer_->RunRound();
  const Traffic after = IssuedSoFar();
  ASSERT_GT(report.mappings_created, 0u);

  // Schema s is sampled from its owner, peer s, one query per attribute:
  // its subjects once (candidate selection), its value sets at most once
  // (matching).
  for (size_t s = 0; s < schemas.size(); ++s) {
    const uint64_t attrs = schemas[s].AttributeUris().size();
    const uint64_t issued =
        net_.peer(s)->counters().queries_issued - queries_before[s];
    EXPECT_TRUE(issued == attrs || issued == 2 * attrs)
        << schemas[s].name() << ": " << issued << " queries for " << attrs
        << " attributes";
  }
  // One mapping-list fetch and one schema fetch per schema, the two registry
  // reads, and the read that each deprecation's upsert makes first.
  const uint64_t n = schemas.size();
  EXPECT_EQ(after.retrieves - before.retrieves,
            2 * n + 2 + report.mappings_deprecated +
                report.mappings_stale_deprecated);
}

TEST_F(SelfOrganizerTest, CreateMappingFailsForUnknownSchema) {
  auto r = organizer_->CreateMapping("NoSuchSchema",
                                     workload_.schemas()[0].name());
  EXPECT_TRUE(r.status().IsNotFound()) << r.status();
  auto r2 = organizer_->CreateMapping(workload_.schemas()[0].name(),
                                      "NoSuchSchema");
  EXPECT_TRUE(r2.status().IsNotFound());
}

TEST_F(SelfOrganizerTest, IndicatorBeforeAnyPublishIsNotFound) {
  auto ci = organizer_->ComputeIndicator();
  EXPECT_TRUE(ci.status().IsNotFound()) << ci.status();
}

TEST_F(SelfOrganizerTest, OwnerOfUnknownSchemaDefaultsToZero) {
  EXPECT_EQ(organizer_->OwnerOf("NoSuchSchema"), 0u);
  organizer_->RegisterSchemaOwner("X", 3);
  EXPECT_EQ(organizer_->OwnerOf("X"), 3u);
}

TEST_F(SelfOrganizerTest, ErroneousMappingGetsDeprecated) {
  // Correct mesh between all pairs except an injected erroneous mapping.
  const auto& schemas = workload_.schemas();
  for (size_t i = 0; i < schemas.size(); ++i) {
    for (size_t j = i + 1; j < schemas.size(); ++j) {
      if (i == 1 && j == 2) continue;
      auto gt = workload_.GroundTruthMapping(
          i, j, "gt-" + std::to_string(i) + "-" + std::to_string(j));
      // Mark as automatic so the assessor evaluates everything.
      gt.set_provenance(MappingProvenance::kAutomatic);
      gt.set_confidence(0.7);
      ASSERT_TRUE(net_.InsertMapping(i, gt).ok());
    }
  }
  Rng rng(13);
  auto bad = workload_.ErroneousMapping(1, 2, "bad-1-2", &rng);
  ASSERT_TRUE(net_.InsertMapping(1, bad).ok());

  auto report = organizer_->RunRound();
  EXPECT_GE(report.mappings_deprecated, 1u);
  bool bad_deprecated = false;
  for (const auto& id : report.deprecated_ids) {
    if (id == "bad-1-2") bad_deprecated = true;
    // No correct mapping may be deprecated.
    EXPECT_EQ(id, "bad-1-2") << "false positive deprecation";
  }
  EXPECT_TRUE(bad_deprecated);

  // The deprecation must be visible network-wide.
  auto fetched = net_.FetchMappingsFor(4, schemas[1].name());
  ASSERT_TRUE(fetched.ok());
  for (const auto& m : *fetched) {
    if (m.id() == "bad-1-2") {
      EXPECT_TRUE(m.deprecated());
    }
  }
}

TEST_F(SelfOrganizerTest, IncrementalRoundMatchesFullRecompute) {
  // Same scenario as ErroneousMappingGetsDeprecated, as a differential: a
  // from-scratch MappingAssessor over the view the round starts from must
  // reach the same deprecation decisions as the incremental round.
  const auto& schemas = workload_.schemas();
  for (size_t i = 0; i < schemas.size(); ++i) {
    for (size_t j = i + 1; j < schemas.size(); ++j) {
      if (i == 1 && j == 2) continue;
      auto gt = workload_.GroundTruthMapping(
          i, j, "gt-" + std::to_string(i) + "-" + std::to_string(j));
      gt.set_provenance(MappingProvenance::kAutomatic);
      gt.set_confidence(0.7);
      ASSERT_TRUE(net_.InsertMapping(i, gt).ok());
    }
  }
  Rng rng(13);
  ASSERT_TRUE(
      net_.InsertMapping(1, workload_.ErroneousMapping(1, 2, "bad-1-2", &rng))
          .ok());

  const SelfOrganizer::Options opts = OrgOptions();
  MappingGraph view = organizer_->SyncGraphView();
  view.SetListener(nullptr);
  std::vector<std::string> expected;
  for (const auto& [id, posterior] :
       MappingAssessor(opts.assessor).Assess(view).posterior) {
    auto m = view.Get(id);
    if (posterior < SelfOrganizer::kDeprecateBelow && m.ok() &&
        !m->deprecated()) {
      expected.push_back(id);
    }
  }
  EXPECT_EQ(expected, std::vector<std::string>{"bad-1-2"});

  auto report = organizer_->RunRound();
  EXPECT_GT(report.bp_messages, 0u);
  // `expected` follows the posterior map's id order.
  std::vector<std::string> deprecated = report.deprecated_ids;
  std::sort(deprecated.begin(), deprecated.end());
  EXPECT_EQ(deprecated, expected);
}

TEST_F(SelfOrganizerTest, IncrementalStateMatchesFreshRebuildAfterRounds) {
  // Live-network differential: after real rounds (creations, deprecations,
  // DHT round-trips) the maintained factor graph must equal what a fresh
  // assessor builds from the same view — no leaked or missing state.
  for (int round = 0; round < 3; ++round) organizer_->RunRound();

  MappingGraph copy = organizer_->graph_view();
  copy.SetListener(nullptr);
  IncrementalAssessor fresh(organizer_->assessor().options());
  fresh.Attach(&copy);
  EXPECT_EQ(organizer_->assessor().StructureDigest(), fresh.StructureDigest());
  EXPECT_EQ(organizer_->assessor().factor_count(), fresh.factor_count());
}

TEST_F(SelfOrganizerTest, RunContinuousAdvancesTimeAndOrganizes) {
  SimTime before = net_.Now();
  auto reports = organizer_->RunContinuous(4, 0.5);
  ASSERT_EQ(reports.size(), 4u);
  EXPECT_GE(net_.Now(), before + 4 * 0.5);
  size_t created = 0;
  for (const auto& r : reports) created += r.mappings_created;
  EXPECT_GT(created, 0u);
  EXPECT_GE(reports.back().scc_fraction_after, 0.8);
  // The maintained factor graph tracks the created automatic mappings.
  // (Factors only appear once cycles form, which candidate selection avoids
  // early on — variables appear with the first automatic mapping.)
  EXPECT_GT(organizer_->assessor().variable_count(), 0u);
  for (const auto& r : reports) EXPECT_TRUE(r.bp_converged);
}

TEST_F(SelfOrganizerTest, SchemaEvolutionRepairedAndRecovered) {
  // Reach interoperability first.
  for (int round = 0; round < 6; ++round) {
    if (organizer_->RunRound().scc_fraction_after >= 1.0) break;
  }
  ASSERT_GE(organizer_->BuildGraphView().LargestSccFraction(), 0.8);

  // Schema 1 evolves: attribute renames invalidate the mappings that
  // reference the old URIs.
  Rng rng(7);
  auto ev = workload_.EvolveSchema(1, 0.6, &rng);
  ASSERT_FALSE(ev.renamed_uris.empty());
  ASSERT_TRUE(net_.UpsertSchema(1, ev.new_schema).ok());
  for (const auto& t : ev.removed_triples) {
    ASSERT_TRUE(net_.RemoveTriple(1, t).ok());
  }
  for (const auto& t : ev.added_triples) {
    ASSERT_TRUE(net_.InsertTriple(1, t).ok());
  }

  // Agreement maintenance: the next round deprecates the now-dangling
  // mappings...
  auto repair_report = organizer_->RunRound();
  EXPECT_GE(repair_report.mappings_stale_deprecated, 1u);
  const std::string evolved = ev.new_schema.name();
  for (const auto& id : repair_report.stale_deprecated_ids) {
    auto m = organizer_->graph_view().Get(id);
    ASSERT_TRUE(m.ok());
    EXPECT_TRUE(m->source_schema() == evolved || m->target_schema() == evolved)
        << id << " does not touch the evolved schema";
  }

  // ...and subsequent rounds re-derive mappings for the evolved schema,
  // restoring interoperability.
  double scc = repair_report.scc_fraction_after;
  for (int round = 0; round < 6 && scc < 1.0; ++round) {
    scc = organizer_->RunRound().scc_fraction_after;
  }
  EXPECT_GE(scc, 0.8);
  bool evolved_linked = false;
  MappingGraph g = organizer_->BuildGraphView();
  for (const auto& schema : g.Schemas()) {
    for (const auto& m : g.MappingsFrom(schema)) {
      if (m.source_schema() == evolved || m.target_schema() == evolved) {
        evolved_linked = true;
      }
    }
  }
  EXPECT_TRUE(evolved_linked);
}

TEST_F(SelfOrganizerTest, PublishesSelforgMetrics) {
  net_.AddMetricsSource(
      [this](MetricsRegistry* r) { organizer_->PublishMetrics(r); });
  organizer_->RunRound();
  auto& m = net_.CollectMetrics();
  EXPECT_GE(m.Counter("gv.selforg.rounds"), 1u);
  EXPECT_GT(m.Gauge("gv.selforg.bp.factors") +
                m.Gauge("gv.selforg.active_mappings"),
            0.0);
}

TEST_F(SelfOrganizerTest, EmbeddingChannelStillFindsCorrectMappings) {
  auto opts = OrgOptions();
  opts.matcher.embedding_weight = 0.25;
  opts.matcher.lexical_weight = 0.375;
  opts.matcher.value_weight = 0.375;
  organizer_ = std::make_unique<SelfOrganizer>(&net_, opts);
  const auto& schemas = workload_.schemas();
  for (size_t s = 0; s < schemas.size(); ++s) {
    organizer_->RegisterSchemaOwner(schemas[s].name(), s);
  }
  auto created =
      organizer_->CreateMapping(schemas[0].name(), schemas[1].name());
  ASSERT_TRUE(created.ok()) << created.status();
  EXPECT_GE(workload_.MappingPrecision(*created), 0.7) << created->Serialize();
}

}  // namespace
}  // namespace gridvine
