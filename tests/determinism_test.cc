// Determinism regression guard for the event-engine refactor: two
// GridVineNetwork runs with the same seed must produce byte-identical
// NetworkStats (every counter, including the per-type vectors) and identical
// query results. Execution order in the simulator is fully determined by
// (time, seq), so any heap/event-queue change that perturbs ordering — even
// among same-time events — trips this test.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "gridvine/gridvine_network.h"

namespace gridvine {
namespace {

Triple T(const std::string& s, const std::string& p, const std::string& o) {
  return Triple(Term::Uri(s), Term::Uri(p), Term::Literal(o));
}

/// One full scenario: lossy WAN transport (exercises the rng on every send),
/// bulk loads, mappings, reformulated queries. Returns everything observable.
struct RunOutcome {
  NetworkStats stats;
  std::vector<std::string> query_values;
  double query_latency = 0;
  SimTime final_time = 0;
  size_t events_executed = 0;

  friend bool operator==(const RunOutcome&, const RunOutcome&) = default;
};

RunOutcome RunScenario(uint64_t seed) {
  GridVineNetwork::Options o;
  o.num_peers = 24;
  o.key_depth = 14;
  o.seed = seed;
  o.latency = GridVineNetwork::LatencyKind::kWan;
  o.latency_param = 0.01;
  o.loss_probability = 0.02;
  o.peer.query_timeout = 3.0;
  GridVineNetwork net(o);

  EXPECT_TRUE(net.InsertSchema(0, Schema("A", "d", {"organism"})).ok());
  EXPECT_TRUE(net.InsertSchema(1, Schema("B", "d", {"organism"})).ok());
  std::vector<Triple> batch;
  for (int i = 0; i < 20; ++i) {
    batch.push_back(T(std::string("a").append(std::to_string(i)), "A#organism",
                      i % 2 ? "Aspergillus niger" : "Penicillium"));
  }
  net.InsertTriples(2, batch);  // lossy: some acks may time out — still seeded
  EXPECT_TRUE(
      net.InsertTriple(1, T("b1", "B#organism", "Aspergillus flavus")).ok());
  SchemaMapping m("ab", "A", "B");
  EXPECT_TRUE(m.AddCorrespondence("A#organism", "B#organism").ok());
  net.InsertMapping(0, m);

  GridVinePeer::QueryOptions opts;
  opts.reformulate = true;
  TriplePatternQuery q(
      "x", TriplePattern(Term::Var("x"), Term::Uri("A#organism"),
                         Term::Literal("%Aspergillus%")));
  auto res = net.SearchFor(5, q, opts);
  net.Settle();

  RunOutcome out;
  out.stats = net.network()->stats();
  for (const auto& item : res.items) {
    out.query_values.push_back(item.value.value());
  }
  out.query_latency = res.latency;
  out.final_time = net.sim()->Now();
  out.events_executed = net.sim()->events_executed();
  return out;
}

TEST(DeterminismTest, SameSeedGivesByteIdenticalStatsAndResults) {
  RunOutcome a = RunScenario(1234);
  RunOutcome b = RunScenario(1234);
  // Field-by-field first, for a readable diff on failure.
  EXPECT_EQ(a.stats.messages_sent, b.stats.messages_sent);
  EXPECT_EQ(a.stats.messages_delivered, b.stats.messages_delivered);
  EXPECT_EQ(a.stats.messages_dropped, b.stats.messages_dropped);
  EXPECT_EQ(a.stats.bytes_sent, b.stats.bytes_sent);
  EXPECT_EQ(a.stats.MessagesByTypeName(), b.stats.MessagesByTypeName());
  EXPECT_EQ(a.query_values, b.query_values);
  EXPECT_EQ(a.events_executed, b.events_executed);
  // Then the whole record, defaulted equality over every field.
  EXPECT_TRUE(a == b);
}

TEST(DeterminismTest, DifferentSeedsDiverge) {
  // Sanity check that the scenario is actually seed-sensitive (a vacuously
  // deterministic scenario would make the test above meaningless).
  RunOutcome a = RunScenario(1234);
  RunOutcome c = RunScenario(4321);
  EXPECT_FALSE(a.stats == c.stats);
}

}  // namespace
}  // namespace gridvine
