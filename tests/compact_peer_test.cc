// Per-peer footprint: a GridVine peer pays only for the state it uses.
//
//  * A bare peer builds no QueryFrontend and no DB_p; both appear on first
//    use (frontend() / first stored triple) on that peer only.
//  * A 10k-peer keyed-engine deployment stays under a pinned bytes-per-peer
//    budget, and the network footprint counts frontends and caches.
//  * Extent-cache validation still sees the first insert into a store that
//    did not exist when the (negative) entry was cached.
//  * PublishMetrics emits the same key set whether or not frontends exist.
//  * Each peer's overlay and jitter streams start where the forked-Rng
//    chain they are derived from would have started them.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "gridvine/gridvine_network.h"
#include "gridvine/query_frontend.h"

namespace gridvine {
namespace {

GridVineNetwork::Options SmallOptions(bool cache) {
  GridVineNetwork::Options o;
  o.num_peers = 16;
  o.key_depth = 12;
  o.seed = 5;
  o.latency = GridVineNetwork::LatencyKind::kConstant;
  o.latency_param = 0.01;
  o.peer.cache.enabled = cache;
  return o;
}

Triple T(const std::string& s, const std::string& p, const std::string& o) {
  return Triple(Term::Uri(s), Term::Uri(p), Term::Literal(o));
}

TriplePatternQuery ByObject(const std::string& predicate,
                            const std::string& value) {
  return TriplePatternQuery("x", TriplePattern(Term::Var("x"),
                                               Term::Uri(predicate),
                                               Term::Literal(value)));
}

std::set<std::string> MetricKeys(GridVineNetwork& net) {
  MetricsRegistry registry;
  for (size_t i = 0; i < net.size(); ++i) net.peer(i)->PublishMetrics(&registry);
  std::set<std::string> keys;
  for (const auto& [name, value] : registry.Flatten()) keys.insert(name);
  return keys;
}

TEST(CompactPeerTest, BarePeerAllocatesNoFrontendOrStore) {
  GridVineNetwork net(SmallOptions(/*cache=*/false));
  const TripleStore* shared = &std::as_const(*net.peer(0)).local_db();
  for (size_t i = 0; i < net.size(); ++i) {
    const GridVinePeer& peer = *net.peer(i);
    EXPECT_EQ(peer.frontend(), nullptr) << "peer " << i;
    EXPECT_EQ(&peer.local_db(), shared) << "peer " << i;
    EXPECT_EQ(peer.local_db().size(), 0u);
    EXPECT_EQ(peer.local_db().version(), 0u);
  }

  // First use builds the frontend on that peer only, once.
  QueryFrontend* fe = net.peer(3)->frontend();
  ASSERT_NE(fe, nullptr);
  EXPECT_EQ(net.peer(3)->frontend(), fe);
  EXPECT_EQ(std::as_const(*net.peer(3)).frontend(), fe);
  EXPECT_EQ(std::as_const(*net.peer(4)).frontend(), nullptr);

  // The first stored triple gives exactly its holders a private DB_p.
  const Triple t = T("x:s", "x:p", "v");
  ASSERT_TRUE(net.InsertTriple(0, t).ok());
  size_t holders = 0;
  for (size_t i = 0; i < net.size(); ++i) {
    const GridVinePeer& peer = *net.peer(i);
    if (peer.local_db().Contains(t)) {
      ++holders;
      EXPECT_NE(&peer.local_db(), shared) << "peer " << i;
      EXPECT_GT(peer.local_db().version(), 0u);
    } else {
      EXPECT_EQ(&peer.local_db(), shared) << "peer " << i;
    }
    // Queries through the network API go straight to SearchFor.
    EXPECT_EQ(peer.frontend() != nullptr, i == 3) << "peer " << i;
  }
  EXPECT_GT(holders, 0u);
  EXPECT_EQ(shared->size(), 0u);  // the shared store is never written

  // A remove that reaches a peer without DB_p does not allocate one.
  ASSERT_TRUE(net.RemoveTriple(0, T("x:other", "x:p", "w")).ok());
  for (size_t i = 0; i < net.size(); ++i) {
    const GridVinePeer& peer = *net.peer(i);
    if (!peer.local_db().Contains(t)) {
      EXPECT_EQ(&peer.local_db(), shared) << "peer " << i;
    }
  }
}

TEST(CompactPeerTest, PeerStreamsMatchForkedRngChain) {
  for (bool sharded : {false, true}) {
    SCOPED_TRACE(sharded ? "force_sharded" : "classic engine");
    GridVineNetwork::Options o;
    o.num_peers = 1000;
    o.key_depth = 12;
    o.seed = 42;
    o.force_sharded = sharded;
    GridVineNetwork net(o);
    // The chain the peers were once built from: each peer took a forked
    // Rng child; its overlay stream was seeded by the first draw of
    // child.Fork(), its jitter stream by the next draw of child. The
    // classic engine forks the Network's stream before any peer.
    Rng root(o.seed);
    if (!sharded) root.Fork();
    for (size_t i = 0; i < net.size(); ++i) {
      Rng child = root.Fork();
      CompactRng overlay(child.Fork().engine()());
      CompactRng jitter(child.engine()());
      CompactRng got_overlay = net.peer(i)->overlay()->rng();
      CompactRng got_jitter = net.peer(i)->jitter_rng();
      ASSERT_EQ(got_overlay.Next(), overlay.Next()) << "peer " << i;
      ASSERT_EQ(got_jitter.Next(), jitter.Next()) << "peer " << i;
    }
    // The wiring stream is the next fork, after which both chains agree.
    root.Fork();
    EXPECT_EQ(net.rng()->engine()(), root.engine()());
  }
}

TEST(CompactPeerTest, TenThousandPeerFootprintUnderBudget) {
  GridVineNetwork::Options o;
  o.num_peers = 10000;
  o.key_depth = 16;
  o.seed = 1;
  o.force_sharded = true;
  GridVineNetwork net(o);
  std::vector<Triple> corpus;
  for (int e = 0; e < 200; ++e) {
    corpus.push_back(T(std::string("x:e").append(std::to_string(e)), "x:val",
                       std::string("v").append(std::to_string(e))));
  }
  ASSERT_TRUE(net.InsertTriples(0, corpus).ok());
  for (size_t g = 0; g < 10; ++g) {
    ASSERT_TRUE(net.ServeFor(g * 997, ByObject("x:val", "v7")).status.ok());
  }

  std::vector<std::pair<std::string, size_t>> breakdown;
  const size_t total = net.MemoryFootprint(&breakdown);
  size_t peers_total = 0, frontends = 0;
  for (const auto& [part, bytes] : breakdown) {
    if (part == "peers.total") peers_total = bytes;
    if (part == "peers.frontend") frontends = bytes;
  }
  EXPECT_GT(frontends, 10 * sizeof(QueryFrontend));
  EXPECT_GE(total, peers_total);
  // Pinned budget: overlay peer (~820 B) + GridVinePeer object, with the
  // frontend, DB_p and jitter stream no longer paid by every peer.
  constexpr size_t kBytesPerPeerBudget = 2100;
  EXPECT_LT(total / o.num_peers, kBytesPerPeerBudget)
      << "total " << total << " bytes over " << o.num_peers << " peers";
}

TEST(CompactPeerTest, PeerFootprintCountsFrontendAndCache) {
  GridVineNetwork net(SmallOptions(/*cache=*/true));
  const size_t before = net.peer(2)->MemoryFootprint();
  net.peer(2)->frontend();
  EXPECT_GE(net.peer(2)->MemoryFootprint(),
            before + std::as_const(*net.peer(2)).frontend()->MemoryFootprint());

  std::vector<std::pair<std::string, size_t>> breakdown;
  const size_t total = net.MemoryFootprint(&breakdown);
  size_t peers_total = 0, caches = 0;
  for (const auto& [part, bytes] : breakdown) {
    if (part == "peers.total") peers_total = bytes;
    if (part == "peers.cache") caches = bytes;
  }
  EXPECT_GT(caches, 0u);
  EXPECT_GE(peers_total, caches);
  EXPECT_GE(total, peers_total);
}

TEST(CompactPeerTest, NegativeHitOnUnmaterializedStoreThenInsert) {
  GridVineNetwork net(SmallOptions(/*cache=*/true));
  const TriplePatternQuery q = ByObject("x:p", "ghost");

  // Twice against an empty network: the second answer is a negative cache
  // hit on a responder whose DB_p was never allocated.
  for (int i = 0; i < 2; ++i) {
    auto r = net.SearchFor(1, q, {});
    ASSERT_TRUE(r.status.ok());
    EXPECT_TRUE(r.items.empty());
  }
  uint64_t negative_hits = 0;
  for (size_t i = 0; i < net.size(); ++i) {
    const GridVinePeer& peer = *net.peer(i);
    EXPECT_EQ(peer.local_db().size(), 0u);
    if (peer.cache()) negative_hits += peer.cache()->stats().negative_hits;
  }
  ASSERT_GT(negative_hits, 0u);

  ASSERT_TRUE(net.InsertTriple(0, T("x:s", "x:p", "ghost")).ok());
  auto r = net.SearchFor(1, q, {});
  ASSERT_TRUE(r.status.ok());
  ASSERT_EQ(r.items.size(), 1u);
  EXPECT_EQ(r.items[0].value.value(), "x:s");
}

TEST(CompactPeerTest, PublishMetricsKeySetIndependentOfFrontends) {
  GridVineNetwork net(SmallOptions(/*cache=*/false));
  const std::set<std::string> bare = MetricKeys(net);
  // The key set a default-options peer has always published.
  const std::set<std::string> expected = {
      "gv.queries_issued",          "gv.queries_answered",
      "gv.reformulations_performed", "gv.bound_scans_answered",
      "gv.result_rows_sent",        "gv.local_db_triples",
      "gv.pending_queries",         "gv.active_execs",
      "gv.frontend.submitted",      "gv.frontend.completed",
      "gv.frontend.shed",           "gv.frontend.max_queue_depth",
      "gv.frontend.active",         "gv.frontend.queued",
      "gv.batch.items",             "gv.batch.flushes",
      "gv.batch.answered",          "gv.remembered_first_hops",
      "gv.remembered_misses"};
  EXPECT_EQ(bare, expected);

  ASSERT_TRUE(net.InsertTriple(0, T("x:s", "x:p", "v")).ok());
  ASSERT_TRUE(net.ServeFor(5, ByObject("x:p", "v")).status.ok());
  EXPECT_EQ(MetricKeys(net), expected);
}

}  // namespace
}  // namespace gridvine
