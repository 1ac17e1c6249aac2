// The sharded engine's headline guarantee: a run's outcome is bit-identical
// for ANY shard count, including 1. The conservative-lookahead epochs, the
// (time, creator, counter) merge rule and per-node SmallRng streams must
// together make the interleaving of worker threads unobservable. These tests
// run the same seeded scenario at shards 1 / 2 / 4 and require byte-equal
// stats, per-operation results and clocks.

#include <gtest/gtest.h>

#include <algorithm>
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

// --- Overlay-level scenario driven directly on ShardedNetwork --------------

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

/// A sharded engine with WAN latency: positive MinDelay (the lookahead)
/// plus a log-normal tail that burns per-node rng draws on every send.
ShardedNetwork::Options WanEngineOptions(uint64_t seed, uint32_t shards,
                                         double loss) {
  ShardedNetwork::Options so;
  so.shards = shards;
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
        engine->SimForNext(), engine->LaneForNext(),
        Mt64Head<1>(rng.engine()())[0], popts));
  }
  std::vector<PGridPeer*> raw;
  for (auto& p : peers) raw.push_back(p.get());
  Rng wire(seed + 99);
  PGridBuilder::BuildBalanced(raw, &wire, 2);
  return peers;
}

OverlayOutcome RunOverlay(uint64_t seed, uint32_t shards) {
  ShardedNetwork engine(WanEngineOptions(seed, shards, /*loss=*/0.01));
  const size_t kPeers = 24;
  auto peers = BuildOverlay(&engine, seed, kPeers);

  const int kOps = 48;
  Rng key_rng(seed + 7);
  std::vector<Key> keys;
  for (int i = 0; i < kOps; ++i) keys.push_back(BitsKey(&key_rng, 7));

  // Preallocated result slots: each op's callback (running on its issuer's
  // shard) writes only its own element — no cross-thread contention.
  std::vector<int> update_hops(size_t(kOps), -1);
  for (int i = 0; i < kOps; ++i) {
    NodeId issuer = NodeId(size_t(i) % kPeers);
    engine.ScheduleForNode(issuer, 0.05 * (i + 1), [&, i, issuer] {
      peers[issuer]->Update(keys[size_t(i)], "v" + std::to_string(i),
                            [&update_hops, i](Result<PGridPeer::UpdateOutcome> r) {
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
          keys[size_t(i)], [&retrieved, i](Result<PGridPeer::LookupResult> r) {
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
  out.stats = engine.AggregateStats();
  out.retrieved = std::move(retrieved);
  out.update_hops = std::move(update_hops);
  for (auto& p : peers) out.peer_forwards.push_back(p->counters().forwards);
  out.final_time = engine.Now();
  out.events = engine.events_executed();
  return out;
}

TEST(ShardedDeterminismTest, OverlayBitIdenticalAcrossShardCounts) {
  OverlayOutcome one = RunOverlay(4242, 1);
  OverlayOutcome two = RunOverlay(4242, 2);
  OverlayOutcome four = RunOverlay(4242, 4);
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, four);
  // The scenario actually exercised the network.
  EXPECT_GT(one.stats.messages_sent, 100u);
}

TEST(ShardedDeterminismTest, OverlayRepeatableAtFourShards) {
  EXPECT_EQ(RunOverlay(777, 4), RunOverlay(777, 4));
}

TEST(ShardedDeterminismTest, DifferentSeedsDiverge) {
  EXPECT_NE(RunOverlay(1, 4), RunOverlay(2, 4));
}

// --- A value-prefix retrieve across shards ---------------------------------

struct PrefixOutcome {
  std::vector<std::string> values;
  NodeId issuer = kInvalidNode;
  NodeId responder = kInvalidNode;
  SimTime final_time = 0;

  friend bool operator==(const PrefixOutcome&,
                         const PrefixOutcome&) = default;
};

/// One value-prefix retrieve; `*cross_shard` receives the messages it sent
/// through the cross-shard mailboxes.
PrefixOutcome RunPrefixRetrieve(uint32_t shards, uint64_t* cross_shard) {
  ShardedNetwork engine(WanEngineOptions(4242, shards, /*loss=*/0.0));
  auto peers = BuildOverlay(&engine, 4242, 24);
  const Key key = Key::FromBits("1011001").value();
  // Every replica responsible for the key holds the same mixed values, so
  // the filtered answer does not depend on which one responds.
  PrefixOutcome out;
  for (auto& p : peers) {
    if (!p->IsResponsibleFor(key)) {
      if (out.issuer == kInvalidNode) out.issuer = p->id();
      continue;
    }
    for (const char* v : {"schema|B", "B#x triple", "schema|A", "mapping|m"}) {
      p->InsertLocal(key, v);
    }
  }
  const NodeId issuer = out.issuer;
  const uint64_t before = engine.cross_shard_messages();
  engine.ScheduleForNode(issuer, 0.01, [&] {
    peers[issuer]->Retrieve(
        key,
        [&out](Result<PGridPeer::LookupResult> r) {
          if (!r.ok()) return;
          out.values = r->values;
          out.responder = r->responder;
        },
        "schema|");
  });
  engine.RunUntilIdle();
  *cross_shard = engine.cross_shard_messages() - before;
  out.final_time = engine.Now();
  return out;
}

TEST(ShardedDeterminismTest, PrefixRetrieveCrossesShardsBitIdentical) {
  uint64_t cross1 = 0, cross2 = 0, cross4 = 0;
  PrefixOutcome one = RunPrefixRetrieve(1, &cross1);
  PrefixOutcome two = RunPrefixRetrieve(2, &cross2);
  PrefixOutcome four = RunPrefixRetrieve(4, &cross4);
  EXPECT_EQ(one.values, (std::vector<std::string>{"schema|B", "schema|A"}));
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, four);
  // Issuer and responder differ in parity, so they sit on different shards
  // at 2 and 4 shards: the request, prefix included, crossed a mailbox.
  EXPECT_NE(one.issuer % 2, one.responder % 2);
  EXPECT_EQ(cross1, 0u);
  EXPECT_GT(cross2, 0u);
  EXPECT_GT(cross4, 0u);
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

StackOutcome RunStack(uint64_t seed, uint32_t shards, bool traced = false,
                      std::vector<Tracer::Span>* spans_out = nullptr,
                      bool force_sharded = false) {
  GridVineNetwork::Options o;
  o.num_peers = 16;
  o.key_depth = 12;
  o.seed = seed;
  o.shards = shards;
  o.force_sharded = force_sharded;
  o.latency = GridVineNetwork::LatencyKind::kWan;
  o.latency_param = 0.01;
  o.loss_probability = 0.01;
  o.peer.query_timeout = 3.0;
  GridVineNetwork net(o);

  EXPECT_TRUE(net.InsertSchema(0, Schema("A", "d", {"organism"})).ok());
  EXPECT_TRUE(net.InsertSchema(1, Schema("B", "d", {"organism"})).ok());
  std::vector<Triple> batch;
  for (int i = 0; i < 12; ++i) {
    batch.push_back(T("a" + std::to_string(i), "A#organism",
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
  if (spans_out != nullptr) *spans_out = net.tracer()->Snapshot();

  StackOutcome out;
  out.stats = net.engine() != nullptr ? net.engine()->AggregateStats()
                                      : net.network()->stats();
  for (const auto& item : res.items) {
    out.query_values.push_back(item.value.value());
  }
  out.final_time = net.Now();
  // Classic and sharded engines count "events" differently; zero it for
  // cross-mode comparisons (shards=1 classic vs shards=N).
  out.events = net.engine() != nullptr ? net.engine()->events_executed() : 0;
  return out;
}

TEST(ShardedDeterminismTest, MediationStackBitIdenticalAcrossShardCounts) {
  StackOutcome two = RunStack(99, 2);
  StackOutcome four = RunStack(99, 4);
  EXPECT_EQ(two, four);
  EXPECT_FALSE(two.query_values.empty());
  EXPECT_GT(two.stats.messages_sent, 50u);
}

TEST(ShardedDeterminismTest, MediationStackRepeatable) {
  EXPECT_EQ(RunStack(5, 4), RunStack(5, 4));
}

// Tracing must be a pure observer: span ids come from plain counters and no
// tracer call draws from an Rng, so a traced run is bit-identical to the
// untraced run at every shard count.
TEST(ShardedDeterminismTest, TracedRunBitIdenticalToUntraced) {
  for (uint32_t shards : {1u, 2u, 4u}) {
    StackOutcome off = RunStack(99, shards, /*traced=*/false);
    StackOutcome on = RunStack(99, shards, /*traced=*/true);
    EXPECT_EQ(off, on) << "shards=" << shards;
    EXPECT_GT(off.stats.messages_sent, 50u);
  }
}

// The merged view of a sharded run describes the same execution as the
// classic run: same spans, same names, at the same simulated instants. (Span
// ids and order keys differ by construction — shard bases and content-derived
// counters — so the comparison is on (start, name) content.)
TEST(ShardedDeterminismTest, MergedTraceMatchesSingleShardRun) {
  std::vector<Tracer::Span> single, merged;
  StackOutcome one =
      RunStack(99, 1, /*traced=*/true, &single, /*force_sharded=*/true);
  StackOutcome two = RunStack(99, 2, /*traced=*/true, &merged);
  EXPECT_EQ(one, two);
  ASSERT_FALSE(single.empty());
  EXPECT_EQ(single.size(), merged.size());

  TraceAnalyzer ta(merged);
  EXPECT_EQ(ta.CheckConsistency(), "");
  EXPECT_EQ(ta.OpenCount(), TraceAnalyzer(single).OpenCount());

  auto content = [](const std::vector<Tracer::Span>& spans) {
    std::vector<std::pair<double, std::string>> rows;
    for (const auto& s : spans) rows.emplace_back(s.start, std::string(s.name));
    std::sort(rows.begin(), rows.end());
    return rows;
  };
  EXPECT_EQ(content(single), content(merged));

  // Sharded ids carry the shard index in the high bits, and both shards
  // actually recorded spans.
  bool saw_shard1 = false;
  for (const auto& s : merged) {
    if ((s.span_id >> Tracer::kShardIdShift) == 1u) saw_shard1 = true;
  }
  EXPECT_TRUE(saw_shard1);
}

}  // namespace
}  // namespace gridvine
