#include "gridvine/gridvine_peer.h"

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "gridvine/gridvine_network.h"
#include "pgrid/pgrid_builder.h"

namespace gridvine {
namespace {

Triple T(const std::string& s, const std::string& p, const std::string& o) {
  return Triple(Term::Uri(s), Term::Uri(p), Term::Literal(o));
}

TriplePatternQuery OrganismQuery(const std::string& predicate,
                                 const std::string& value) {
  return TriplePatternQuery(
      "x", TriplePattern(Term::Var("x"), Term::Uri(predicate),
                         Term::Literal(value)));
}

/// 16-peer network with three bioinformatic schemas and data under each:
///  EMBL#Organism, EMP#SystematicName, PDB#Species all describe organisms.
class GridVineTest : public ::testing::Test {
 protected:
  GridVineTest() : net_(MakeOptions()) {}

  static GridVineNetwork::Options MakeOptions() {
    GridVineNetwork::Options o;
    o.num_peers = 16;
    o.key_depth = 12;
    o.seed = 77;
    o.latency = GridVineNetwork::LatencyKind::kConstant;
    o.latency_param = 0.02;
    o.peer.query_timeout = 5.0;
    return o;
  }

  void SetUp() override {
    ASSERT_TRUE(net_.InsertSchema(
                        0, Schema("EMBL", "bio", {"Organism", "Length"}))
                    .ok());
    ASSERT_TRUE(
        net_.InsertSchema(1, Schema("EMP", "bio", {"SystematicName"})).ok());
    ASSERT_TRUE(net_.InsertSchema(2, Schema("PDB", "bio", {"Species"})).ok());

    ASSERT_TRUE(
        net_.InsertTriple(0, T("embl:A78712", "EMBL#Organism",
                               "Aspergillus niger"))
            .ok());
    ASSERT_TRUE(
        net_.InsertTriple(0, T("embl:A78767", "EMBL#Organism",
                               "Aspergillus niger"))
            .ok());
    ASSERT_TRUE(
        net_.InsertTriple(3, T("embl:B11111", "EMBL#Organism", "Penicillium"))
            .ok());
    ASSERT_TRUE(net_.InsertTriple(
                        4, T("emp:NEN94295", "EMP#SystematicName",
                             "Aspergillus niger"))
                    .ok());
    ASSERT_TRUE(net_.InsertTriple(
                        5, T("pdb:1abc", "PDB#Species", "Aspergillus niger"))
                    .ok());
    ASSERT_TRUE(
        net_.InsertTriple(0, T("embl:A78712", "EMBL#Length", "1204")).ok());
  }

  SchemaMapping EmblToEmp(bool bidirectional = false) {
    SchemaMapping m("embl-emp", "EMBL", "EMP");
    EXPECT_TRUE(
        m.AddCorrespondence("EMBL#Organism", "EMP#SystematicName").ok());
    m.set_bidirectional(bidirectional);
    return m;
  }

  SchemaMapping EmpToPdb() {
    SchemaMapping m("emp-pdb", "EMP", "PDB");
    EXPECT_TRUE(m.AddCorrespondence("EMP#SystematicName", "PDB#Species").ok());
    return m;
  }

  GridVineNetwork net_;
};

TEST_F(GridVineTest, TripleIndexedThreeTimes) {
  // The triple must be stored under the hash of its subject, predicate and
  // object — count peers holding it in their DB_p.
  Triple t = T("embl:A78712", "EMBL#Organism", "Aspergillus niger");
  size_t holders = 0;
  for (size_t i = 0; i < net_.size(); ++i) {
    if (net_.peer(i)->local_db().Contains(t)) ++holders;
  }
  EXPECT_GE(holders, 1u);
  EXPECT_LE(holders, 3u);

  // And the three index keys are each covered by some holder.
  const auto& h = net_.peer(0)->hasher();
  for (const auto& keyval :
       {h("embl:A78712"), h("EMBL#Organism"), h("Aspergillus niger")}) {
    bool covered = false;
    for (size_t i = 0; i < net_.size(); ++i) {
      if (net_.peer(i)->overlay()->IsResponsibleFor(keyval) &&
          net_.peer(i)->local_db().Contains(t)) {
        covered = true;
      }
    }
    EXPECT_TRUE(covered) << keyval;
  }
}

TEST_F(GridVineTest, SearchByPredicateWithLikePattern) {
  auto res = net_.SearchFor(
      7, OrganismQuery("EMBL#Organism", "%Aspergillus%"));
  ASSERT_TRUE(res.status.ok()) << res.status;
  EXPECT_EQ(res.items.size(), 2u);
  for (const auto& item : res.items) {
    EXPECT_EQ(item.schema, "EMBL");
    EXPECT_EQ(item.mapping_path_len, 0);
  }
  EXPECT_EQ(res.schemas_answered, 1u);
  EXPECT_GT(res.latency, 0.0);
}

TEST_F(GridVineTest, SearchBySubject) {
  TriplePatternQuery q("o", TriplePattern(Term::Uri("embl:A78712"),
                                          Term::Var("p"), Term::Var("o")));
  auto res = net_.SearchFor(9, q);
  ASSERT_TRUE(res.status.ok());
  // Two triples with that subject: organism + length.
  EXPECT_EQ(res.items.size(), 2u);
}

TEST_F(GridVineTest, SearchByExactObject) {
  TriplePatternQuery q("x", TriplePattern(Term::Var("x"), Term::Var("p"),
                                          Term::Literal("Penicillium")));
  auto res = net_.SearchFor(11, q);
  ASSERT_TRUE(res.status.ok());
  ASSERT_EQ(res.items.size(), 1u);
  EXPECT_EQ(res.items[0].value.value(), "embl:B11111");
}

TEST_F(GridVineTest, SearchNoMatchesIsEmptyNotError) {
  auto res = net_.SearchFor(3, OrganismQuery("EMBL#Organism", "%Nothing%"));
  ASSERT_TRUE(res.status.ok());
  EXPECT_TRUE(res.items.empty());
  EXPECT_LT(res.first_result_latency, 0);  // sentinel: no results
}

TEST_F(GridVineTest, InvalidQueryRejected) {
  TriplePatternQuery bad(
      "z", TriplePattern(Term::Var("x"), Term::Uri("p"), Term::Var("y")));
  auto res = net_.SearchFor(0, bad);
  EXPECT_TRUE(res.status.IsInvalidArgument());
}

TEST_F(GridVineTest, FetchSchemaRoundTrip) {
  auto schema = net_.FetchSchema(13, "EMP");
  ASSERT_TRUE(schema.ok()) << schema.status();
  EXPECT_EQ(schema->name(), "EMP");
  EXPECT_EQ(schema->attributes(),
            std::vector<std::string>{"SystematicName"});
  EXPECT_TRUE(net_.FetchSchema(13, "NOPE").status().IsNotFound());
}

// Under the order-preserving hash every "EMBL#..." predicate hashes to the
// key of the schema name "EMBL", so the schema's records share their key with
// its predicate-indexed triples. A record fetch must ship only its own record
// kind: a remote fetch's answer stays the same size however many triples
// pile onto the key, and every fetch returns what it returned before.
TEST_F(GridVineTest, RecordFetchesShipOnlyTheirRecordKind) {
  const auto& h = net_.peer(0)->hasher();
  const Key schema_key = h("EMBL");
  ASSERT_EQ(h("EMBL#Organism"), schema_key);
  size_t issuer = 0;
  while (issuer < net_.size() &&
         net_.peer(issuer)->overlay()->IsResponsibleFor(schema_key)) {
    ++issuer;
  }
  ASSERT_LT(issuer, net_.size());
  ASSERT_TRUE(net_.InsertMapping(6, EmblToEmp()).ok());
  ASSERT_TRUE(net_.PublishDegree(0, "bio", "EMBL", 1, 2).ok());

  // pgrid.retrieve_resp bytes one synchronous call produces.
  auto resp_bytes = [&](const std::function<void()>& call) {
    const NetworkStats& stats = net_.network()->stats();
    const uint64_t before = stats.BytesForType("pgrid.retrieve_resp");
    call();
    return stats.BytesForType("pgrid.retrieve_resp") - before;
  };
  auto schema_bytes = [&] {
    return resp_bytes([&] { net_.FetchSchema(issuer, "EMBL"); });
  };
  auto mapping_bytes = [&] {
    return resp_bytes([&] { net_.FetchMappingsFor(issuer, "EMBL"); });
  };
  // What every fetch returns, as one comparable string.
  auto answers = [&] {
    auto schema = net_.FetchSchema(issuer, "EMBL");
    std::string out =
        schema.ok() ? schema->Serialize() : schema.status().ToString();
    auto mappings = net_.FetchMappingsFor(issuer, "EMBL");
    if (!mappings.ok()) return out + ";" + mappings.status().ToString();
    for (const auto& m : *mappings) out.append(";").append(m.Serialize());
    auto degrees = net_.FetchDomainDegrees(issuer, "bio");
    if (!degrees.ok()) return out + ";" + degrees.status().ToString();
    for (const auto& d : *degrees) {
      out += ";" + d.schema + "/" + std::to_string(d.in_degree) + "/" +
             std::to_string(d.out_degree);
    }
    return out;
  };

  const uint64_t schema_before = schema_bytes();
  const uint64_t mapping_before = mapping_bytes();
  const std::string answers_before = answers();
  EXPECT_GT(schema_before, 0u);  // answered remotely
  EXPECT_EQ(answers_before,
            Schema("EMBL", "bio", {"Organism", "Length"}).Serialize() + ";" +
                EmblToEmp().Serialize() + ";EMBL/1/2");

  std::vector<Triple> batch;
  for (int i = 0; i < 120; ++i) {
    batch.push_back(T("embl:X" + std::to_string(i), "EMBL#Organism",
                      "organism " + std::to_string(i)));
  }
  ASSERT_TRUE(net_.InsertTriples(1, batch).ok());
  const TriplePattern organisms(Term::Var("s"), Term::Uri("EMBL#Organism"),
                                Term::Var("o"));
  for (size_t i = 0; i < net_.size(); ++i) {
    if (!net_.peer(i)->overlay()->IsResponsibleFor(schema_key)) continue;
    EXPECT_GE(net_.peer(i)->local_db().Select(organisms).size(), 120u);
  }

  EXPECT_EQ(schema_bytes(), schema_before);
  EXPECT_EQ(mapping_bytes(), mapping_before);
  EXPECT_EQ(answers(), answers_before);

  // UpsertSchema still finds and replaces the stale definition among the
  // co-located triples.
  Schema evolved("EMBL", "bio", {"Organism", "Length", "Taxon"});
  ASSERT_TRUE(net_.UpsertSchema(issuer, evolved).ok());
  auto fetched = net_.FetchSchema(issuer, "EMBL");
  ASSERT_TRUE(fetched.ok()) << fetched.status();
  EXPECT_EQ(fetched->Serialize(), evolved.Serialize());
  for (size_t i = 0; i < net_.size(); ++i) {
    if (!net_.peer(i)->overlay()->IsResponsibleFor(schema_key)) continue;
    size_t schema_records = 0;
    for (const auto& [key, value] : net_.peer(i)->overlay()->storage()) {
      if (key == schema_key && value.starts_with("schema|")) ++schema_records;
    }
    EXPECT_EQ(schema_records, 1u);
  }
}

TEST_F(GridVineTest, MappingStoredAtSourceKeySpace) {
  ASSERT_TRUE(net_.InsertMapping(6, EmblToEmp()).ok());
  auto at_src = net_.FetchMappingsFor(9, "EMBL");
  ASSERT_TRUE(at_src.ok());
  ASSERT_EQ(at_src->size(), 1u);
  EXPECT_EQ((*at_src)[0].id(), "embl-emp");
  // Unidirectional: nothing at the target key space.
  auto at_dst = net_.FetchMappingsFor(9, "EMP");
  ASSERT_TRUE(at_dst.ok());
  EXPECT_TRUE(at_dst->empty());
}

TEST_F(GridVineTest, BidirectionalMappingStoredAtBothKeySpaces) {
  ASSERT_TRUE(net_.InsertMapping(6, EmblToEmp(/*bidirectional=*/true)).ok());
  auto at_src = net_.FetchMappingsFor(9, "EMBL");
  auto at_dst = net_.FetchMappingsFor(9, "EMP");
  ASSERT_TRUE(at_src.ok());
  ASSERT_TRUE(at_dst.ok());
  EXPECT_EQ(at_src->size(), 1u);
  EXPECT_EQ(at_dst->size(), 1u);
}

TEST_F(GridVineTest, IterativeReformulationReachesSecondSchema) {
  ASSERT_TRUE(net_.InsertMapping(6, EmblToEmp()).ok());
  GridVinePeer::QueryOptions opts;
  opts.reformulate = true;
  opts.mode = ReformulationMode::kIterative;
  auto res = net_.SearchFor(7, OrganismQuery("EMBL#Organism", "%Aspergillus%"),
                            opts);
  ASSERT_TRUE(res.status.ok());
  // 2 EMBL sequences + 1 EMP entry (the paper's Figure 2 scenario).
  EXPECT_EQ(res.items.size(), 3u);
  size_t from_emp = 0;
  for (const auto& item : res.items) {
    if (item.schema == "EMP") {
      ++from_emp;
      EXPECT_EQ(item.mapping_path_len, 1);
    }
  }
  EXPECT_EQ(from_emp, 1u);
  EXPECT_EQ(res.reformulations, 1u);
  EXPECT_EQ(res.schemas_answered, 2u);
}

TEST_F(GridVineTest, RecursiveReformulationReachesSecondSchema) {
  ASSERT_TRUE(net_.InsertMapping(6, EmblToEmp()).ok());
  GridVinePeer::QueryOptions opts;
  opts.reformulate = true;
  opts.mode = ReformulationMode::kRecursive;
  opts.timeout = 3.0;
  auto res = net_.SearchFor(7, OrganismQuery("EMBL#Organism", "%Aspergillus%"),
                            opts);
  ASSERT_TRUE(res.status.ok());
  EXPECT_EQ(res.items.size(), 3u);
  EXPECT_EQ(res.schemas_answered, 2u);
}

TEST_F(GridVineTest, ReformulationChainsAcrossThreeSchemas) {
  ASSERT_TRUE(net_.InsertMapping(6, EmblToEmp()).ok());
  ASSERT_TRUE(net_.InsertMapping(6, EmpToPdb()).ok());
  for (auto mode :
       {ReformulationMode::kIterative, ReformulationMode::kRecursive}) {
    GridVinePeer::QueryOptions opts;
    opts.reformulate = true;
    opts.mode = mode;
    opts.timeout = 4.0;
    auto res = net_.SearchFor(
        7, OrganismQuery("EMBL#Organism", "%Aspergillus%"), opts);
    ASSERT_TRUE(res.status.ok());
    EXPECT_EQ(res.items.size(), 4u) << "mode " << int(mode);
    EXPECT_EQ(res.schemas_answered, 3u) << "mode " << int(mode);
    bool saw_pdb = false;
    for (const auto& item : res.items) {
      if (item.schema == "PDB") {
        saw_pdb = true;
        EXPECT_EQ(item.mapping_path_len, 2);
      }
    }
    EXPECT_TRUE(saw_pdb);
  }
}

TEST(GridVineIterativeTest, SynchronousBranchDoesNotEndQueryMidExpansion) {
  // Two peers, paths "0" and "1". The order-preserving hash puts keys
  // starting with 'a' under "0" and keys starting with 'm' or 'z' under
  // "1". Issued at peer 1, the a-query and the fetch of a's mappings go to
  // peer 0 and the a-query answers first; then every reformulated branch
  // (z, m) and z's mapping fetch resolve synchronously at the issuer. The
  // z branch must not finish the query before z's own mappings expand.
  GridVineNetwork::Options o;
  o.num_peers = 2;
  o.key_depth = 8;
  o.seed = 3;
  o.latency = GridVineNetwork::LatencyKind::kConstant;
  o.latency_param = 0.01;
  GridVineNetwork net(o);
  OrderPreservingHash hash(o.key_depth);
  for (const char* key : {"a", "a#p"}) {
    ASSERT_TRUE(net.peer(0)->overlay()->IsResponsibleFor(hash(key))) << key;
  }
  for (const char* key : {"z", "z#p", "m", "m#p"}) {
    ASSERT_TRUE(net.peer(1)->overlay()->IsResponsibleFor(hash(key))) << key;
  }
  for (const char* schema : {"a", "z", "m"}) {
    const std::string s = schema;
    ASSERT_TRUE(net.InsertTriple(0, T(s + ":1", s + "#p", "v")).ok());
  }
  SchemaMapping az("a-z", "a", "z");
  ASSERT_TRUE(az.AddCorrespondence("a#p", "z#p").ok());
  SchemaMapping zm("z-m", "z", "m");
  ASSERT_TRUE(zm.AddCorrespondence("z#p", "m#p").ok());
  ASSERT_TRUE(net.InsertMapping(0, az).ok());
  ASSERT_TRUE(net.InsertMapping(0, zm).ok());

  GridVinePeer::QueryOptions opts;
  opts.reformulate = true;
  opts.mode = ReformulationMode::kIterative;
  auto res = net.SearchFor(1, OrganismQuery("a#p", "%v%"), opts);
  ASSERT_TRUE(res.status.ok());
  EXPECT_EQ(res.items.size(), 3u);
  EXPECT_EQ(res.schemas_answered, 3u);
  EXPECT_EQ(res.reformulations, 2u);
}

TEST_F(GridVineTest, BidirectionalMappingAnswersReverseQueries) {
  ASSERT_TRUE(net_.InsertMapping(6, EmblToEmp(/*bidirectional=*/true)).ok());
  GridVinePeer::QueryOptions opts;
  opts.reformulate = true;
  // Query posed against EMP; data in EMBL reachable via the reverse mapping.
  auto res = net_.SearchFor(
      8, OrganismQuery("EMP#SystematicName", "%Aspergillus%"), opts);
  ASSERT_TRUE(res.status.ok());
  EXPECT_EQ(res.items.size(), 3u);
}

TEST_F(GridVineTest, DeprecatedMappingIsIgnored) {
  auto m = EmblToEmp();
  m.set_deprecated(true);
  ASSERT_TRUE(net_.InsertMapping(6, m).ok());
  GridVinePeer::QueryOptions opts;
  opts.reformulate = true;
  auto res = net_.SearchFor(7, OrganismQuery("EMBL#Organism", "%Aspergillus%"),
                            opts);
  ASSERT_TRUE(res.status.ok());
  EXPECT_EQ(res.items.size(), 2u);  // EMBL only
  EXPECT_EQ(res.reformulations, 0u);
}

TEST_F(GridVineTest, UpsertMappingDeprecationPropagates) {
  ASSERT_TRUE(net_.InsertMapping(6, EmblToEmp()).ok());
  auto m = EmblToEmp();
  m.set_deprecated(true);
  ASSERT_TRUE(net_.UpsertMapping(4, m).ok());

  auto fetched = net_.FetchMappingsFor(9, "EMBL");
  ASSERT_TRUE(fetched.ok());
  ASSERT_EQ(fetched->size(), 1u);
  EXPECT_TRUE((*fetched)[0].deprecated());

  GridVinePeer::QueryOptions opts;
  opts.reformulate = true;
  auto res = net_.SearchFor(7, OrganismQuery("EMBL#Organism", "%Aspergillus%"),
                            opts);
  EXPECT_EQ(res.items.size(), 2u);
}

TEST_F(GridVineTest, RemoveTripleMakesItUnfindable) {
  Triple t = T("embl:B11111", "EMBL#Organism", "Penicillium");
  ASSERT_TRUE(net_.RemoveTriple(2, t).ok());
  auto res = net_.SearchFor(3, OrganismQuery("EMBL#Organism", "%Penicillium%"));
  ASSERT_TRUE(res.status.ok());
  EXPECT_TRUE(res.items.empty());
}

/// One peer answers every key, so all three of a triple's index entries are
/// filed at it, and DB_p must keep the row while any of them is.
class GridVineOnePeerTest : public ::testing::Test {
 protected:
  GridVineOnePeerTest() : net_(MakeOptions()) {}

  static GridVineNetwork::Options MakeOptions() {
    GridVineNetwork::Options o;
    o.num_peers = 1;
    o.key_depth = 12;
    o.seed = 5;
    return o;
  }

  GridVinePeer* peer() { return net_.peer(0); }
  Key KeyOf(const std::string& term) { return peer()->hasher()(term); }

  /// One overlay Update or Remove of t_ under the key of `term`.
  void Apply(UpdateOp op, const std::string& term) {
    bool done = false;
    auto cb = [&done](Result<PGridPeer::Reply> r) {
      EXPECT_TRUE(r.ok()) << r.status();
      done = true;
    };
    if (op == UpdateOp::kInsert) {
      peer()->overlay()->Update(KeyOf(term), t_.Serialize(), cb);
    } else {
      peer()->overlay()->Remove(KeyOf(term), t_.Serialize(), cb);
    }
    net_.Settle();
    EXPECT_TRUE(done) << term;
  }

  size_t Rows() {
    auto res = net_.SearchFor(0, OrganismQuery("A#p", "zeta"));
    EXPECT_TRUE(res.status.ok()) << res.status;
    return res.items.size();
  }

  GridVineNetwork net_;
  const Triple t_ = T("a:s1", "A#p", "zeta");
};

TEST_F(GridVineOnePeerTest, RemoveUnderOneKeyKeepsTheRow) {
  ASSERT_TRUE(net_.InsertTriple(0, t_).ok());
  ASSERT_EQ(Rows(), 1u);
  Apply(UpdateOp::kDelete, "a:s1");  // the subject's entry only
  EXPECT_EQ(Rows(), 1u);
  Apply(UpdateOp::kDelete, "A#p");
  EXPECT_EQ(Rows(), 1u);
  Apply(UpdateOp::kDelete, "zeta");
  EXPECT_EQ(Rows(), 0u);
  EXPECT_TRUE(peer()->local_db().empty());
}

TEST_F(GridVineOnePeerTest, ReappliedUpdateAndForeignRemoveChangeNothing) {
  ASSERT_TRUE(net_.InsertTriple(0, t_).ok());
  const uint64_t version = peer()->local_db().version();
  for (const char* term : {"a:s1", "A#p", "zeta"}) {
    ASSERT_NE(KeyOf("elsewhere"), KeyOf(term));
  }
  Apply(UpdateOp::kInsert, "zeta");
  Apply(UpdateOp::kDelete, "elsewhere");  // none of the triple's keys
  EXPECT_EQ(peer()->local_db().version(), version);
  EXPECT_EQ(peer()->local_db().size(), 1u);
  EXPECT_EQ(peer()->overlay()->StorageSize(), 0u);
  Apply(UpdateOp::kDelete, "a:s1");
  Apply(UpdateOp::kDelete, "A#p");
  EXPECT_EQ(Rows(), 1u);  // the object's entry still holds it
}

TEST_F(GridVineOnePeerTest, OverlayStorageHoldsOnlyRecords) {
  ASSERT_TRUE(net_.InsertSchema(0, Schema("A", "dom", {"p"})).ok());
  ASSERT_TRUE(net_.InsertTriples(0, {t_, T("a:s2", "A#p", "eta")}).ok());
  ASSERT_TRUE(net_.PublishDegree(0, "dom", "A", 0, 1).ok());
  EXPECT_EQ(peer()->local_db().size(), 2u);
  EXPECT_EQ(peer()->overlay()->StorageSize(), 2u);
  for (const auto& [key, value] : peer()->overlay()->storage()) {
    EXPECT_TRUE(value.starts_with("schema|") || value.starts_with("conn|"))
        << value;
  }
}

TEST_F(GridVineTest, DegreeRegistryKeepsLatestVersion) {
  ASSERT_TRUE(net_.PublishDegree(0, "bio", "EMBL", 1, 2).ok());
  ASSERT_TRUE(net_.PublishDegree(1, "bio", "EMP", 0, 1).ok());
  // Supersede EMBL's record.
  ASSERT_TRUE(net_.PublishDegree(0, "bio", "EMBL", 3, 4).ok());

  auto records = net_.FetchDomainDegrees(5, "bio");
  ASSERT_TRUE(records.ok()) << records.status();
  ASSERT_EQ(records->size(), 2u);
  for (const auto& rec : *records) {
    if (rec.schema == "EMBL") {
      EXPECT_EQ(rec.in_degree, 3);
      EXPECT_EQ(rec.out_degree, 4);
    } else {
      EXPECT_EQ(rec.schema, "EMP");
      EXPECT_EQ(rec.out_degree, 1);
    }
  }
}

TEST_F(GridVineTest, PublishDegreeRejectsBadInput) {
  // A reserved character would split the record into extra fields.
  EXPECT_TRUE(net_.PublishDegree(0, "bio", "a|b", 3, 4).IsInvalidArgument());
  EXPECT_TRUE(net_.PublishDegree(0, "bio", "", 1, 1).IsInvalidArgument());
  EXPECT_TRUE(net_.PublishDegree(0, "bio", "EMBL", -1, 2).IsInvalidArgument());
  EXPECT_TRUE(net_.PublishDegree(0, "bio", "EMBL", 1, -2).IsInvalidArgument());
  ASSERT_TRUE(net_.PublishDegree(0, "bio", "EMBL", 1, 2).ok());

  auto records = net_.FetchDomainDegrees(5, "bio");
  ASSERT_TRUE(records.ok()) << records.status();
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0].schema, "EMBL");
}

TEST_F(GridVineTest, DegreeDecodeSkipsMalformedRecords) {
  ASSERT_TRUE(net_.PublishDegree(0, "bio", "EMBL", 1, 2).ok());
  // Raw records written straight to the domain key, bypassing
  // PublishDegree's checks: an overflowing degree, non-numeric degrees, a
  // trailing byte, a negative degree and a non-numeric version.
  const Key domain_key = net_.peer(0)->hasher()("bio");
  for (const std::string record :
       {"conn|X|99999999999999999999|1|7", "conn|Y|abc|def|8",
        "conn|Z|1x|2|9", "conn|W|-1|2|10", "conn|V|1|2|v11"}) {
    bool done = false;
    net_.peer(3)->overlay()->Update(
        domain_key, record, [&](Result<PGridPeer::Reply> r) {
          EXPECT_TRUE(r.ok()) << r.status();
          done = true;
        });
    net_.Settle();
    ASSERT_TRUE(done) << record;
  }

  auto records = net_.FetchDomainDegrees(5, "bio");
  ASSERT_TRUE(records.ok()) << records.status();
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0].schema, "EMBL");
  EXPECT_EQ((*records)[0].in_degree, 1);
  EXPECT_EQ((*records)[0].out_degree, 2);
}

TEST_F(GridVineTest, ConjunctiveQueryJoins) {
  // ?x is an Aspergillus organism AND has length ?l.
  ConjunctiveQuery q(
      {"x", "l"},
      {TriplePattern(Term::Var("x"), Term::Uri("EMBL#Organism"),
                     Term::Literal("%Aspergillus%")),
       TriplePattern(Term::Var("x"), Term::Uri("EMBL#Length"),
                     Term::Var("l"))});
  auto res = net_.SearchForConjunctive(10, q);
  ASSERT_TRUE(res.status.ok()) << res.status;
  ASSERT_EQ(res.rows.size(), 1u);
  EXPECT_EQ(res.rows[0].at("x").value(), "embl:A78712");
  EXPECT_EQ(res.rows[0].at("l").value(), "1204");
}

TEST(GridVineConjunctiveTest, CollectModeMatchesBindModeOnUnroutablePattern) {
  // The second pattern has no constant to route on, so the collect-then-join
  // baseline must bind it like bind mode does rather than scan it for nothing.
  GridVineNetwork::Options o;
  o.num_peers = 16;
  o.key_depth = 12;
  o.seed = 5;
  o.latency = GridVineNetwork::LatencyKind::kConstant;
  o.latency_param = 0.02;
  GridVineNetwork net(o);
  for (const Triple& t :
       {T("w:a", "W#type", "gadget"), T("w:a", "W#color", "red"),
        T("w:b", "W#type", "widget"), T("w:b", "W#color", "blue")}) {
    ASSERT_TRUE(net.InsertTriple(0, t).ok());
  }
  ConjunctiveQuery q(
      {"x", "p", "v"},
      {TriplePattern(Term::Var("x"), Term::Uri("W#type"),
                     Term::Literal("gadget")),
       TriplePattern(Term::Var("x"), Term::Var("p"), Term::Var("v"))});
  GridVinePeer::QueryOptions bind;
  GridVinePeer::QueryOptions collect;
  collect.bind_join = false;
  auto bound = net.SearchForConjunctive(9, q, bind);
  auto collected = net.SearchForConjunctive(9, q, collect);
  ASSERT_TRUE(bound.status.ok()) << bound.status;
  ASSERT_TRUE(collected.status.ok()) << collected.status;
  EXPECT_EQ(bound.rows.size(), 2u);
  EXPECT_EQ(collected.rows, bound.rows);
}

TEST_F(GridVineTest, ConjunctiveQueryEmptyJoinShortCircuits) {
  ConjunctiveQuery q(
      {"x"},
      {TriplePattern(Term::Var("x"), Term::Uri("EMBL#Organism"),
                     Term::Literal("%NoSuchOrganism%")),
       TriplePattern(Term::Var("x"), Term::Uri("EMBL#Length"),
                     Term::Var("l"))});
  auto res = net_.SearchForConjunctive(10, q);
  ASSERT_TRUE(res.status.ok());
  EXPECT_TRUE(res.rows.empty());
}

TEST_F(GridVineTest, ResultsDeduplicated) {
  // The same triple is reachable via several index keys, but SearchFor must
  // not return duplicates.
  auto res = net_.SearchFor(
      7, OrganismQuery("EMBL#Organism", "Aspergillus niger"));
  ASSERT_TRUE(res.status.ok());
  EXPECT_EQ(res.items.size(), 2u);
}

TEST_F(GridVineTest, SubsumptionSoundnessSemantics) {
  // EMBL#Organism ⊑ EMP#SystematicName (every organism entry is a
  // systematic-name entry, not vice versa), unidirectional.
  auto sub = EmblToEmp();
  sub.set_type(MappingType::kSubsumption);
  ASSERT_TRUE(net_.InsertMapping(6, sub).ok());

  // Query against EMP: specializing EMP -> EMBL is sound and available even
  // though the mapping is not bidirectional.
  GridVinePeer::QueryOptions sound;
  sound.reformulate = true;
  sound.sound_only = true;
  auto from_emp = net_.SearchFor(
      8, OrganismQuery("EMP#SystematicName", "%Aspergillus%"), sound);
  ASSERT_TRUE(from_emp.status.ok());
  EXPECT_EQ(from_emp.items.size(), 3u);  // 1 EMP + 2 EMBL

  // Query against EMBL with sound_only: the generalizing direction is
  // excluded, so only EMBL data comes back.
  auto from_embl_sound = net_.SearchFor(
      7, OrganismQuery("EMBL#Organism", "%Aspergillus%"), sound);
  ASSERT_TRUE(from_embl_sound.status.ok());
  EXPECT_EQ(from_embl_sound.items.size(), 2u);

  // Without sound_only the generalizing reformulation runs and EMP's
  // (possibly broader) answers are included.
  GridVinePeer::QueryOptions loose;
  loose.reformulate = true;
  auto from_embl_loose = net_.SearchFor(
      7, OrganismQuery("EMBL#Organism", "%Aspergillus%"), loose);
  ASSERT_TRUE(from_embl_loose.status.ok());
  EXPECT_EQ(from_embl_loose.items.size(), 3u);
}

TEST_F(GridVineTest, CountersTrack) {
  net_.SearchFor(7, OrganismQuery("EMBL#Organism", "%a%"));
  EXPECT_EQ(net_.peer(7)->counters().queries_issued, 1u);
}

// --- Remembered responders ---------------------------------------------------

/// 24 peers on 16 leaves: eight leaves hold two replicas each. The schema
/// `name_` lives on such a leaf; peer `issuer_` is outside it and reaches it
/// in one hop, through either replica.
class RememberedResponderTest : public ::testing::Test {
 protected:
  RememberedResponderTest() : net_(MakeOptions()) {}

  static GridVineNetwork::Options MakeOptions() {
    GridVineNetwork::Options o;
    o.num_peers = 24;
    o.key_depth = 12;
    o.seed = 3;
    o.latency = GridVineNetwork::LatencyKind::kConstant;
    o.latency_param = 0.02;
    return o;
  }

  void SetUp() override {
    for (char c = 'A'; c <= 'Z' && holders_.size() != 2; ++c) {
      name_ = std::string(1, c) + "em";
      key_ = net_.peer(0)->hasher()(name_);
      holders_.clear();
      for (size_t i = 0; i < net_.size(); ++i) {
        if (Overlay(i)->IsResponsibleFor(key_)) holders_.push_back(i);
      }
    }
    ASSERT_EQ(holders_.size(), 2u);
    while (Overlay(issuer_)->IsResponsibleFor(key_)) ++issuer_;
    // The issuer's only way into the leaf is one of its two replicas.
    RoutingTable* rt = Overlay(issuer_)->routing();
    const int level = rt->DivergenceLevel(key_);
    const RefSpan refs = rt->RefsAt(level);
    for (NodeId ref : std::vector<NodeId>(refs.begin(), refs.end())) {
      rt->RemoveRef(ref);
    }
    for (size_t h : holders_) ASSERT_TRUE(rt->AddRef(level, NodeId(h)));
  }

  PGridPeer* Overlay(size_t i) { return net_.peer(i)->overlay(); }
  GridVinePeer* Issuer() { return net_.peer(issuer_); }

  /// The peer the issuer remembers for the schema's key, or kInvalidNode.
  NodeId Remembered() {
    const auto* mem = Issuer()->remembered();
    if (mem == nullptr) return kInvalidNode;
    auto it = mem->peers.find(key_);
    return it == mem->peers.end() ? kInvalidNode : it->second;
  }
  /// The other replica of the leaf.
  NodeId OtherHolder(NodeId holder) {
    return NodeId(holders_[0]) == holder ? NodeId(holders_[1])
                                         : NodeId(holders_[0]);
  }
  uint64_t Sent() { return net_.network()->stats().messages_sent; }

  GridVineNetwork net_;
  std::string name_;
  Key key_;
  std::vector<size_t> holders_;
  size_t issuer_ = 0;
};

TEST_F(RememberedResponderTest, RepeatRequestGoesStraightToTheResponder) {
  const Schema schema(name_, "dom", {"a"});
  ASSERT_TRUE(net_.InsertSchema(issuer_, schema).ok());
  const NodeId responder = Remembered();
  ASSERT_NE(responder, kInvalidNode);
  const size_t replicas =
      Overlay(responder)->routing()->replicas().size();
  ASSERT_EQ(replicas, 1u);

  // A repeat update: one request and one ack, plus the responder's push to
  // its replica.
  uint64_t before = Sent();
  ASSERT_TRUE(net_.InsertSchema(issuer_, schema).ok());
  EXPECT_EQ(Sent() - before, 2 + replicas);

  // A repeat retrieve: one request and one reply, answered in one hop.
  net_.tracer()->Enable();
  before = Sent();
  auto fetched = net_.FetchSchema(issuer_, name_);
  ASSERT_TRUE(fetched.ok()) << fetched.status();
  EXPECT_EQ(fetched->Serialize(), schema.Serialize());
  EXPECT_EQ(Sent() - before, 2u);
  const std::vector<Tracer::Span> spans = net_.tracer()->Snapshot();
  net_.tracer()->Disable();
  size_t ops = 0;
  for (const Tracer::Span& span : spans) {
    if (span.name != "op.retrieve") continue;
    ++ops;
    std::map<std::string, double> notes;
    for (const auto& a : span.annotations) notes[a.key] = a.number;
    EXPECT_EQ(notes["hops"], 1.0);
    EXPECT_EQ(notes["attempts"], 1.0);
    EXPECT_EQ(notes["remembered"], 1.0);
  }
  EXPECT_EQ(ops, 1u);
  EXPECT_EQ(Remembered(), responder);
  EXPECT_EQ(Issuer()->remembered()->first_hops, 2u);
  EXPECT_EQ(Issuer()->remembered()->misses, 0u);
}

TEST_F(RememberedResponderTest, SilentRememberedPeerIsRoutedAround) {
  ASSERT_TRUE(net_.InsertSchema(issuer_, Schema(name_, "dom", {"a"})).ok());
  const NodeId down = Remembered();
  ASSERT_NE(down, kInvalidNode);
  net_.SetAlive(down, false);
  const PGridPeer::Counters before = Overlay(issuer_)->counters();

  auto fetched = net_.FetchSchema(issuer_, name_);
  ASSERT_TRUE(fetched.ok()) << fetched.status();
  EXPECT_EQ(fetched->name(), name_);
  // Attempt 1 went to the silent peer and timed out; attempt 2 avoided it.
  EXPECT_EQ(Overlay(issuer_)->counters().timeouts - before.timeouts, 1u);
  EXPECT_EQ(Overlay(issuer_)->counters().retries - before.retries, 1u);
  EXPECT_EQ(Remembered(), OtherHolder(down));
  MetricsRegistry& m = net_.CollectMetrics();
  EXPECT_EQ(m.Counter("gv.remembered_first_hops"), 1u);
  EXPECT_EQ(m.Counter("gv.remembered_misses"), 1u);
}

TEST_F(RememberedResponderTest, ReassignedPeerForwardsAndTheAnswerHolds) {
  const Schema schema(name_, "dom", {"a"});
  ASSERT_TRUE(net_.InsertSchema(issuer_, schema).ok());
  const NodeId moved = Remembered();
  ASSERT_NE(moved, kInvalidNode);
  // The remembered peer takes over another leaf; its old leaf keeps one
  // replica, which holds the schema too.
  size_t elsewhere = 0;
  while (Overlay(elsewhere)->IsResponsibleFor(key_) || elsewhere == issuer_) {
    ++elsewhere;
  }
  Overlay(moved)->SetPath(Overlay(elsewhere)->path());
  Rng rng(11);
  PGridBuilder::WireRouting(net_.overlay_peers(), &rng, 2);
  ASSERT_FALSE(Overlay(moved)->IsResponsibleFor(key_));

  const uint64_t forwards = Overlay(moved)->counters().forwards;
  auto fetched = net_.FetchSchema(issuer_, name_);
  ASSERT_TRUE(fetched.ok()) << fetched.status();
  EXPECT_EQ(fetched->Serialize(), schema.Serialize());
  EXPECT_EQ(Overlay(moved)->counters().forwards - forwards, 1u);
  EXPECT_EQ(Overlay(issuer_)->counters().retries, 0u);
  EXPECT_EQ(Remembered(), OtherHolder(moved));
  EXPECT_EQ(Issuer()->remembered()->misses, 1u);
}

TEST_F(RememberedResponderTest, FailedRequestForgetsItsKey) {
  ASSERT_TRUE(net_.InsertSchema(issuer_, Schema(name_, "dom", {"a"})).ok());
  ASSERT_NE(Remembered(), kInvalidNode);
  for (size_t h : holders_) net_.SetAlive(h, false);
  auto fetched = net_.FetchSchema(issuer_, name_);
  EXPECT_TRUE(fetched.status().IsTimeout()) << fetched.status();
  EXPECT_EQ(Remembered(), kInvalidNode);
  EXPECT_EQ(Issuer()->remembered()->misses, 1u);
}

TEST_F(RememberedResponderTest, MemoryNeverGrowsPastItsCap) {
  // Two-letter names spread over the key space, one key per name.
  std::set<Key> keys;
  for (char a = 'a'; a <= 'z'; ++a) {
    for (char b = 'a'; b <= 'z'; ++b) {
      const std::string name{a, b};
      const Key key = Issuer()->hasher()(name);
      if (Overlay(issuer_)->IsResponsibleFor(key) || !keys.insert(key).second) {
        continue;
      }
      EXPECT_TRUE(net_.FetchSchema(issuer_, name).status().IsNotFound());
      ASSERT_LE(Issuer()->remembered()->peers.size(),
                GridVinePeer::kMaxRemembered);
    }
  }
  ASSERT_GT(keys.size(), GridVinePeer::kMaxRemembered + 100);
  EXPECT_EQ(Issuer()->remembered()->peers.size(),
            GridVinePeer::kMaxRemembered);
}

TEST_F(RememberedResponderTest, PeerThatNeverIssuesAllocatesNothing) {
  EXPECT_EQ(Issuer()->remembered(), nullptr);
  ASSERT_TRUE(net_.InsertSchema(issuer_, Schema(name_, "dom", {"a"})).ok());
  ASSERT_TRUE(net_.FetchSchema(issuer_, name_).ok());
  // Only the issuer has sent requests; the others answered them.
  ASSERT_NE(Issuer()->remembered(), nullptr);
  for (size_t i = 0; i < net_.size(); ++i) {
    if (i != issuer_) {
      EXPECT_EQ(net_.peer(i)->remembered(), nullptr) << i;
    }
  }
  // A peer answered only by itself learns nothing either.
  GridVineNetwork::Options o = MakeOptions();
  o.num_peers = 1;
  GridVineNetwork lone(o);
  ASSERT_TRUE(lone.InsertSchema(0, Schema("Rem", "dom", {"a"})).ok());
  ASSERT_TRUE(lone.InsertTriple(0, T("rem:s", "Rem#a", "v")).ok());
  ASSERT_TRUE(lone.FetchSchema(0, "Rem").ok());
  EXPECT_EQ(lone.peer(0)->remembered(), nullptr);
}

}  // namespace
}  // namespace gridvine
