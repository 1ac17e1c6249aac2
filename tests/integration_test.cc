// Cross-module integration tests: the full stack (mediation layer on P-Grid
// on the simulated network) under churn, message loss, WAN latency and
// overlay reconfiguration.

#include <gtest/gtest.h>

#include <set>

#include "sim/churn.h"
#include "workload/bio_workload.h"
#include "gridvine/gridvine_network.h"

namespace gridvine {
namespace {

Triple T(const std::string& s, const std::string& p, const std::string& o) {
  return Triple(Term::Uri(s), Term::Uri(p), Term::Literal(o));
}

TEST(IntegrationTest, RetrievalSurvivesDeadPeersViaReplicasAndRetries) {
  // 48 peers over 32 leaf paths: 16 paths carry a replica pair.
  GridVineNetwork::Options o;
  o.num_peers = 48;
  o.key_depth = 12;
  o.seed = 3;
  o.latency = GridVineNetwork::LatencyKind::kConstant;
  o.latency_param = 0.01;
  o.refs_per_level = 3;
  o.overlay.retry.max_attempts = 4;
  o.overlay.retry.base_timeout = 1.0;
  GridVineNetwork net(o);

  ASSERT_TRUE(net.InsertSchema(0, Schema("S", "d", {"a"})).ok());
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(net.InsertTriple(size_t(i % net.size()),
                                 T("id" + std::to_string(i), "S#a",
                                   "val" + std::to_string(i)))
                    .ok());
  }

  // Kill 20% of peers (but not the issuer).
  Rng rng(5);
  size_t killed = 0;
  for (NodeId id = 1; id < net.size() && killed < net.size() / 5; ++id) {
    if (rng.Bernoulli(0.5)) {
      net.network()->SetAlive(id, false);
      ++killed;
    }
  }
  ASSERT_GT(killed, 0u);

  // Most queries must still succeed (replicas cover dead responsible peers;
  // retries explore alternate refs). Some keys may be lost when BOTH
  // replicas died: tolerate a small failure budget.
  size_t answered = 0;
  for (int i = 0; i < 40; ++i) {
    TriplePatternQuery q(
        "o", TriplePattern(Term::Uri("id" + std::to_string(i)),
                           Term::Var("p"), Term::Var("o")));
    auto res = net.SearchFor(0, q);
    if (res.status.ok() && !res.items.empty()) ++answered;
  }
  EXPECT_GE(answered, 30u) << "killed " << killed << " peers";
}

TEST(IntegrationTest, LossyWanNetworkStillConverges) {
  GridVineNetwork::Options o;
  o.num_peers = 24;
  o.key_depth = 12;
  o.seed = 8;
  o.latency = GridVineNetwork::LatencyKind::kWan;
  o.latency_param = 0.01;
  o.loss_probability = 0.05;
  o.overlay.retry.max_attempts = 5;
  o.overlay.retry.base_timeout = 2.0;
  o.peer.query_timeout = 20.0;
  GridVineNetwork net(o);

  size_t inserted = 0;
  for (int i = 0; i < 30; ++i) {
    if (net.InsertTriple(size_t(i % net.size()),
                         T("id" + std::to_string(i), "S#a", "v"))
            .ok()) {
      ++inserted;
    }
  }
  // 5% loss with 4 retries: nearly everything lands.
  EXPECT_GE(inserted, 28u);

  size_t answered = 0;
  for (int i = 0; i < 30; ++i) {
    TriplePatternQuery q(
        "o", TriplePattern(Term::Uri("id" + std::to_string(i)),
                           Term::Var("p"), Term::Var("o")));
    auto res = net.SearchFor(size_t((i * 5) % net.size()), q);
    if (res.status.ok() && !res.items.empty()) ++answered;
  }
  EXPECT_GE(answered, 25u);
}

TEST(IntegrationTest, ChurningNetworkKeepsAnsweringPinnedIssuer) {
  GridVineNetwork::Options o;
  o.num_peers = 32;
  o.key_depth = 10;
  o.seed = 13;
  o.latency = GridVineNetwork::LatencyKind::kConstant;
  o.latency_param = 0.01;
  o.refs_per_level = 3;
  o.overlay.retry.max_attempts = 4;
  o.overlay.retry.base_timeout = 1.0;
  GridVineNetwork net(o);

  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(net.InsertTriple(size_t(i % net.size()),
                                 T("id" + std::to_string(i), "S#a", "v"))
                    .ok());
  }

  ChurnModel::Options churn_opts;
  churn_opts.mean_session_seconds = 60;
  churn_opts.mean_downtime_seconds = 10;
  churn_opts.pinned = {net.peer(0)->id()};
  ChurnModel churn(net.sim(), net.network(), Rng(7), churn_opts);
  churn.Start();

  size_t answered = 0;
  for (int i = 0; i < 30; ++i) {
    TriplePatternQuery q(
        "o", TriplePattern(Term::Uri("id" + std::to_string(i)),
                           Term::Var("p"), Term::Var("o")));
    auto res = net.SearchFor(0, q);
    if (res.status.ok() && !res.items.empty()) ++answered;
  }
  churn.Stop();
  // With ~14% average downtime and retries, the vast majority succeeds.
  EXPECT_GE(answered, 22u);
}

TEST(IntegrationTest, AdaptiveRebuildThenFullWorkflow) {
  // Regression (end-to-end flavour of the stale-ref bug): rebuilding the
  // overlay adaptively and then running inserts + reformulated queries.
  GridVineNetwork::Options o;
  o.num_peers = 40;
  o.key_depth = 32;
  o.seed = 21;
  o.latency = GridVineNetwork::LatencyKind::kConstant;
  o.latency_param = 0.01;
  GridVineNetwork net(o);

  BioWorkload::Options wl;
  wl.num_schemas = 4;
  wl.num_entities = 50;
  wl.entities_per_schema = 20;
  wl.seed = 2;
  BioWorkload workload(wl);

  std::vector<Key> sample;
  const auto& h = net.peer(0)->hasher();
  for (size_t s = 0; s < workload.schemas().size(); ++s) {
    for (const auto& t : workload.TriplesFor(s)) {
      sample.push_back(h(t.subject().value()));
      sample.push_back(h(t.predicate().value()));
      sample.push_back(h(t.object().value()));
    }
  }
  net.RebuildOverlayAdaptive(sample);

  for (size_t s = 0; s < workload.schemas().size(); ++s) {
    ASSERT_TRUE(net.InsertSchema(s, workload.schemas()[s]).ok());
    for (const auto& t : workload.TriplesFor(s)) {
      ASSERT_TRUE(net.InsertTriple(s, t).ok());
    }
  }
  for (size_t s = 0; s + 1 < workload.schemas().size(); ++s) {
    ASSERT_TRUE(net.InsertMapping(
                       s, workload.GroundTruthMapping(
                              s, s + 1, "m" + std::to_string(s)))
                    .ok());
  }

  Rng rng(4);
  auto gq = workload.MakeQuery(0, &rng, "organism");
  GridVinePeer::QueryOptions qopts;
  qopts.reformulate = true;
  qopts.max_hops = 4;
  auto res = net.SearchFor(0, gq.query, qopts);
  ASSERT_TRUE(res.status.ok());
  EXPECT_EQ(res.schemas_answered, 4u);
  std::set<std::string> found;
  for (const auto& item : res.items) found.insert(item.value.value());
  EXPECT_GT(BioWorkload::Recall(gq, found), 0.9);
}

TEST(IntegrationTest, RecursiveModeMatchesIterativeResults) {
  GridVineNetwork::Options o;
  o.num_peers = 32;
  o.key_depth = 24;
  o.seed = 77;
  o.latency = GridVineNetwork::LatencyKind::kConstant;
  o.latency_param = 0.02;
  o.peer.query_timeout = 10.0;
  GridVineNetwork net(o);

  BioWorkload::Options wl;
  wl.num_schemas = 5;
  wl.num_entities = 40;
  wl.entities_per_schema = 15;
  wl.seed = 9;
  BioWorkload workload(wl);
  for (size_t s = 0; s < workload.schemas().size(); ++s) {
    ASSERT_TRUE(net.InsertSchema(s, workload.schemas()[s]).ok());
    for (const auto& t : workload.TriplesFor(s)) {
      ASSERT_TRUE(net.InsertTriple(s, t).ok());
    }
  }
  for (size_t s = 0; s + 1 < workload.schemas().size(); ++s) {
    ASSERT_TRUE(net.InsertMapping(
                       s, workload.GroundTruthMapping(
                              s, s + 1, "m" + std::to_string(s)))
                    .ok());
  }

  Rng rng(4);
  for (int i = 0; i < 5; ++i) {
    auto gq = workload.MakeQuery(size_t(i % 5), &rng, "organism");
    GridVinePeer::QueryOptions it_opts, rec_opts;
    it_opts.reformulate = rec_opts.reformulate = true;
    it_opts.mode = ReformulationMode::kIterative;
    rec_opts.mode = ReformulationMode::kRecursive;
    auto it_res = net.SearchFor(1, gq.query, it_opts);
    auto rec_res = net.SearchFor(1, gq.query, rec_opts);
    std::set<std::string> it_found, rec_found;
    for (const auto& item : it_res.items) it_found.insert(item.value.value());
    for (const auto& item : rec_res.items) {
      rec_found.insert(item.value.value());
    }
    EXPECT_EQ(it_found, rec_found) << gq.query.ToString();
  }
}

}  // namespace
}  // namespace gridvine
