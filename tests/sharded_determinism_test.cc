// The keyed engine's determinism: (time, creator, counter) event keys and
// per-node SmallRng streams fix a run's outcome by content, so the same
// seeded scenario replays byte-equal stats, per-operation results and
// clocks, different seeds diverge, and tracing observes without perturbing.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "gridvine/gridvine_network.h"
#include "pgrid/pgrid_builder.h"
#include "pgrid/pgrid_peer.h"
#include "sim/latency.h"
#include "sim/sharded.h"

namespace gridvine {
namespace {

// --- Overlay-level scenario driven directly on the keyed engine ------------

struct OverlayOutcome {
  NetworkStats stats;
  std::vector<std::string> retrieved;  // per op: joined values or error tag
  std::vector<int> update_hops;
  std::vector<uint64_t> peer_forwards;  // per peer
  SimTime final_time = 0;
  size_t events = 0;

  friend bool operator==(const OverlayOutcome&,
                         const OverlayOutcome&) = default;
};

Key BitsKey(Rng* rng, int len) {
  std::string bits;
  for (int b = 0; b < len; ++b) bits += rng->Bernoulli(0.5) ? '1' : '0';
  return Key::FromBits(bits).value();
}

/// A keyed engine with WAN latency: a log-normal tail that burns per-node
/// rng draws on every send.
ShardedNetwork::Options WanEngineOptions(uint64_t seed, double loss) {
  ShardedNetwork::Options so;
  so.seed = seed;
  so.loss_probability = loss;
  so.latency = std::make_unique<WanLatency>(0.005, -3.5, 0.8, 0.0, 0.0);
  return so;
}

/// `n` overlay peers on `engine`, seeded from `seed` and wired balanced.
std::vector<std::unique_ptr<PGridPeer>> BuildOverlay(ShardedNetwork* engine,
                                                     uint64_t seed, size_t n) {
  Rng rng(seed);
  PGridPeer::Options popts;
  popts.key_depth = 10;
  std::vector<std::unique_ptr<PGridPeer>> peers;
  for (size_t i = 0; i < n; ++i) {
    peers.push_back(std::make_unique<PGridPeer>(
        engine->sim(), engine,
        Mt64Head<1>(rng.engine()())[0], popts));
  }
  std::vector<PGridPeer*> raw;
  for (auto& p : peers) raw.push_back(p.get());
  Rng wire(seed + 99);
  PGridBuilder::BuildBalanced(raw, &wire, 2);
  return peers;
}

OverlayOutcome RunOverlay(uint64_t seed) {
  ShardedNetwork engine(WanEngineOptions(seed, /*loss=*/0.01));
  const size_t kPeers = 24;
  auto peers = BuildOverlay(&engine, seed, kPeers);

  const int kOps = 48;
  Rng key_rng(seed + 7);
  std::vector<Key> keys;
  for (int i = 0; i < kOps; ++i) keys.push_back(BitsKey(&key_rng, 7));

  // Preallocated result slots: each op's callback writes its own element.
  std::vector<int> update_hops(size_t(kOps), -1);
  for (int i = 0; i < kOps; ++i) {
    NodeId issuer = NodeId(size_t(i) % kPeers);
    engine.ScheduleForNode(issuer, 0.05 * (i + 1), [&, i, issuer] {
      peers[issuer]->Update(keys[size_t(i)],
                            std::string("v").append(std::to_string(i)),
                            [&update_hops, i](Result<PGridPeer::Reply> r) {
                              update_hops[size_t(i)] = r.ok() ? r->hops : -2;
                            });
    });
  }
  engine.RunUntilIdle();

  std::vector<std::string> retrieved{size_t(kOps), std::string()};
  for (int i = 0; i < kOps; ++i) {
    NodeId issuer = NodeId(size_t(i * 5 + 3) % kPeers);
    engine.ScheduleForNode(issuer, 0.05 * (i + 1), [&, i, issuer] {
      peers[issuer]->Retrieve(
          keys[size_t(i)], [&retrieved, i](Result<PGridPeer::Reply> r) {
            if (!r.ok()) {
              retrieved[size_t(i)] = "<err>";
              return;
            }
            std::string joined;
            for (const auto& v : r->values) joined += v + ";";
            retrieved[size_t(i)] = joined;
          });
    });
  }
  engine.RunUntilIdle();

  OverlayOutcome out;
  out.stats = engine.stats();
  out.retrieved = std::move(retrieved);
  out.update_hops = std::move(update_hops);
  for (auto& p : peers) out.peer_forwards.push_back(p->counters().forwards);
  out.final_time = engine.Now();
  out.events = engine.events_executed();
  return out;
}

TEST(ShardedDeterminismTest, OverlayRepeatable) {
  const OverlayOutcome first = RunOverlay(777);
  EXPECT_EQ(first, RunOverlay(777));
  // The scenario actually exercised the network.
  EXPECT_GT(first.stats.messages_sent, 100u);
}

TEST(ShardedDeterminismTest, DifferentSeedsDiverge) {
  EXPECT_NE(RunOverlay(1), RunOverlay(2));
}

// --- Full mediation stack through GridVineNetwork --------------------------

struct StackOutcome {
  NetworkStats stats;
  std::vector<std::string> query_values;
  SimTime final_time = 0;
  size_t events = 0;

  friend bool operator==(const StackOutcome&, const StackOutcome&) = default;
};

Triple T(const std::string& s, const std::string& p, const std::string& o) {
  return Triple(Term::Uri(s), Term::Uri(p), Term::Literal(o));
}

StackOutcome RunStack(uint64_t seed, bool keyed, bool traced = false) {
  GridVineNetwork::Options o;
  o.num_peers = 16;
  o.key_depth = 12;
  o.seed = seed;
  o.force_sharded = keyed;
  o.latency = GridVineNetwork::LatencyKind::kWan;
  o.latency_param = 0.01;
  o.loss_probability = 0.01;
  o.peer.query_timeout = 3.0;
  GridVineNetwork net(o);

  EXPECT_TRUE(net.InsertSchema(0, Schema("A", "d", {"organism"})).ok());
  EXPECT_TRUE(net.InsertSchema(1, Schema("B", "d", {"organism"})).ok());
  std::vector<Triple> batch;
  for (int i = 0; i < 12; ++i) {
    batch.push_back(T(std::string("a").append(std::to_string(i)), "A#organism",
                      i % 2 ? "Aspergillus niger" : "Penicillium"));
  }
  net.InsertTriples(2, batch);
  EXPECT_TRUE(
      net.InsertTriple(1, T("b1", "B#organism", "Aspergillus flavus")).ok());
  SchemaMapping m("ab", "A", "B");
  EXPECT_TRUE(m.AddCorrespondence("A#organism", "B#organism").ok());
  net.InsertMapping(0, m);

  if (traced) net.tracer()->Enable();
  GridVinePeer::QueryOptions qopts;
  qopts.reformulate = true;
  TriplePatternQuery q(
      "x", TriplePattern(Term::Var("x"), Term::Uri("A#organism"),
                         Term::Literal("%Aspergillus%")));
  auto res = net.SearchFor(5, q, qopts);
  net.Settle();
  if (traced) {
    EXPECT_GT(net.tracer()->size(), 0u);
  }

  StackOutcome out;
  out.stats = net.network()->stats();
  for (const auto& item : res.items) {
    out.query_values.push_back(item.value.value());
  }
  out.final_time = net.Now();
  out.events = keyed ? net.engine()->events_executed()
                     : net.sim()->events_executed();
  return out;
}

TEST(ShardedDeterminismTest, MediationStackRepeatable) {
  const StackOutcome first = RunStack(5, /*keyed=*/true);
  EXPECT_EQ(first, RunStack(5, /*keyed=*/true));
  EXPECT_FALSE(first.query_values.empty());
  EXPECT_GT(first.stats.messages_sent, 50u);
}

// Tracing must be a pure observer: span ids come from plain counters, span
// order keys from counters of their own, and no tracer call draws from an
// Rng, so a traced run is bit-identical to the untraced run on either engine.
TEST(ShardedDeterminismTest, TracedRunBitIdenticalToUntraced) {
  for (bool keyed : {false, true}) {
    StackOutcome off = RunStack(99, keyed, /*traced=*/false);
    StackOutcome on = RunStack(99, keyed, /*traced=*/true);
    EXPECT_EQ(off, on) << (keyed ? "keyed" : "classic");
    EXPECT_GT(off.stats.messages_sent, 50u);
  }
}

}  // namespace
}  // namespace gridvine
