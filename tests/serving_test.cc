// Serving-layer end-to-end guarantees: the extent cache, the cross-query
// batcher and the responder service model must change performance only —
// never results, and never determinism.
//
//  * Same seed + full serving stack twice => byte-identical outcomes
//    (events executed, final clock, every counter).
//  * Batching on vs off => identical result rows for every query (the
//    envelope is pure transport).
//  * Classic and keyed engines with the serving stack on => identical
//    result rows (the batcher and service model run in simulated time, so
//    the keyed engine's contract extends to them).
//  * Cache staleness regression: delete a triple, re-query through the
//    cache — the row must be gone (store version bumps on Remove, not just
//    Insert).

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "gridvine/gridvine_network.h"
#include "gridvine/query_frontend.h"
#include "store/binding_codec.h"

namespace gridvine {
namespace {

TriplePattern P(Term s, Term p, Term o) {
  return TriplePattern(std::move(s), std::move(p), std::move(o));
}

std::vector<Triple> MakeCorpus(int entities) {
  std::vector<Triple> triples;
  for (int e = 0; e < entities; ++e) {
    Term subj = Term::Uri("x:e" + std::to_string(e));
    triples.emplace_back(subj, Term::Uri("x:type"),
                         Term::Literal("cat" + std::to_string(e % 4)));
    triples.emplace_back(subj, Term::Uri("x:size"),
                         Term::Literal(std::to_string(e % 3)));
  }
  return triples;
}

GridVineNetwork::Options ServingOptions(uint64_t seed, bool cache, bool batch,
                                        bool keyed = false) {
  GridVineNetwork::Options o;
  o.num_peers = 16;
  o.key_depth = 12;
  o.seed = seed;
  o.latency = GridVineNetwork::LatencyKind::kUniform;
  o.latency_param = 0.01;
  o.force_sharded = keyed;
  o.peer.cache.enabled = cache;
  o.peer.batch.enabled = batch;
  o.peer.service.enabled = true;
  o.peer.frontend.max_concurrent = 4;
  o.peer.frontend.max_queue = 64;
  return o;
}

/// A mixed burst (single-pattern + bind-join conjunctive, repeated patterns
/// so the cache and batcher both engage), submitted concurrently through the
/// frontends of several gateway peers at one instant. Returns per-query
/// sorted row serializations.
struct BurstOutcome {
  std::vector<std::vector<std::string>> rows;  // per query, sorted
  size_t events_executed = 0;
  SimTime final_time = 0;
  uint64_t cache_hits = 0;
  uint64_t batch_items = 0;
  uint64_t batch_flushes = 0;
  uint64_t shed = 0;
};

BurstOutcome RunBurst(uint64_t seed, bool cache, bool batch) {
  GridVineNetwork net(ServingOptions(seed, cache, batch));
  EXPECT_TRUE(net.InsertTriples(0, MakeCorpus(32)).ok());
  net.Settle();

  const int kQueries = 24;
  BurstOutcome out;
  out.rows.resize(kQueries);
  net.sim()->ScheduleAt(1.0, [&] {
    for (int i = 0; i < kQueries; ++i) {
      GridVinePeer* gw = net.peer(1 + size_t(i) % 4);
      std::vector<std::string>* rows = &out.rows[size_t(i)];
      if (i % 3 == 2) {
        ConjunctiveQuery cq(
            {"x", "l"},
            {P(Term::Var("x"), Term::Uri("x:type"),
               Term::Literal("cat" + std::to_string(i % 4))),
             P(Term::Var("x"), Term::Uri("x:size"), Term::Var("l"))});
        GridVinePeer::QueryOptions opts;
        opts.bind_join = true;
        gw->frontend()->SubmitConjunctive(
            cq, opts, [rows](GridVinePeer::ConjunctiveResult r) {
              EXPECT_TRUE(r.status.ok()) << r.status;
              for (const auto& row : r.rows)
                rows->push_back(SerializeBindings({row}));
              std::sort(rows->begin(), rows->end());
            });
      } else {
        TriplePatternQuery q(
            "x", P(Term::Var("x"), Term::Uri("x:type"),
                   Term::Literal("cat" + std::to_string(i % 4))));
        gw->frontend()->Submit(q, {}, [rows](GridVinePeer::QueryResult r) {
          EXPECT_TRUE(r.status.ok()) << r.status;
          for (const auto& item : r.items)
            rows->push_back(item.value.value());
          std::sort(rows->begin(), rows->end());
        });
      }
    }
  });
  net.Settle();

  out.events_executed = net.sim()->events_executed();
  out.final_time = net.sim()->Now();
  for (size_t p = 0; p < net.size(); ++p) {
    if (net.peer(p)->cache())
      out.cache_hits += net.peer(p)->cache()->stats().hits;
    out.batch_items += net.peer(p)->counters().batch_items;
    out.batch_flushes += net.peer(p)->counters().batch_flushes;
    out.shed += net.peer(p)->frontend()->stats().shed;
  }
  // The burst is sized within every frontend's queue: equal recall requires
  // that no mode sheds.
  EXPECT_EQ(out.shed, 0u);
  return out;
}

TEST(ServingDeterminismTest, SameSeedBitIdenticalWithFullStack) {
  BurstOutcome a = RunBurst(42, /*cache=*/true, /*batch=*/true);
  BurstOutcome b = RunBurst(42, /*cache=*/true, /*batch=*/true);
  EXPECT_EQ(a.rows, b.rows);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.final_time, b.final_time);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.batch_items, b.batch_items);
  EXPECT_EQ(a.batch_flushes, b.batch_flushes);
  // The stack actually engaged (otherwise this test proves nothing).
  EXPECT_GT(a.cache_hits, 0u);
  EXPECT_GT(a.batch_items, 0u);
}

TEST(ServingDeterminismTest, BatchingAndCacheDoNotChangeResults) {
  BurstOutcome off = RunBurst(42, false, false);
  BurstOutcome cache_only = RunBurst(42, true, false);
  BurstOutcome batch_only = RunBurst(42, false, true);
  BurstOutcome full = RunBurst(42, true, true);
  EXPECT_EQ(off.rows, cache_only.rows);
  EXPECT_EQ(off.rows, batch_only.rows);
  EXPECT_EQ(off.rows, full.rows);
  size_t nonempty = 0;
  for (const auto& r : off.rows) nonempty += r.empty() ? 0 : 1;
  EXPECT_GT(nonempty, 0u);
}

TEST(ServingDeterminismTest, ShardedEngineMatchesSingleQueue) {
  // Sequential queries through the frontend wrappers; the serving stack
  // runs on every hop. Rows must match across the two engines.
  std::vector<std::vector<std::string>> per_engine;
  for (bool keyed : {false, true}) {
    GridVineNetwork net(ServingOptions(9, true, true, keyed));
    EXPECT_TRUE(net.InsertTriples(0, MakeCorpus(24)).ok());
    net.Settle();
    std::vector<std::string> rows;
    for (int i = 0; i < 6; ++i) {
      TriplePatternQuery q(
          "x", P(Term::Var("x"), Term::Uri("x:type"),
                 Term::Literal("cat" + std::to_string(i % 4))));
      auto res = net.ServeFor(1 + size_t(i) % 3, q);
      EXPECT_TRUE(res.status.ok()) << res.status;
      std::vector<std::string> vals;
      for (const auto& item : res.items) vals.push_back(item.value.value());
      std::sort(vals.begin(), vals.end());
      for (auto& v : vals) rows.push_back(std::to_string(i) + ":" + v);
    }
    per_engine.push_back(std::move(rows));
  }
  EXPECT_EQ(per_engine[0], per_engine[1]);
  EXPECT_FALSE(per_engine[0].empty());
}

TEST(ServingCacheTest, RemoveInvalidatesCachedExtents) {
  GridVineNetwork net(ServingOptions(5, /*cache=*/true, /*batch=*/false));
  Triple doomed(Term::Uri("x:doomed"), Term::Uri("x:type"),
                Term::Literal("cat0"));
  ASSERT_TRUE(net.InsertTriples(0, MakeCorpus(16)).ok());
  ASSERT_TRUE(net.InsertTriple(0, doomed).ok());
  net.Settle();

  TriplePatternQuery q("x", P(Term::Var("x"), Term::Uri("x:type"),
                              Term::Literal("cat0")));
  auto has_doomed = [&](const GridVinePeer::QueryResult& r) {
    for (const auto& item : r.items)
      if (item.value.value() == "x:doomed") return true;
    return false;
  };

  // Warm the cache, then hit it.
  auto r1 = net.ServeFor(2, q);
  ASSERT_TRUE(r1.status.ok());
  EXPECT_TRUE(has_doomed(r1));
  auto r2 = net.ServeFor(2, q);
  ASSERT_TRUE(r2.status.ok());
  EXPECT_TRUE(has_doomed(r2));
  uint64_t hits = 0;
  for (size_t p = 0; p < net.size(); ++p)
    hits += net.peer(p)->cache()->stats().hits;
  EXPECT_GT(hits, 0u);

  // Delete and re-query: the cached extent was computed at an older store
  // version, so it must be dropped, not served.
  ASSERT_TRUE(net.RemoveTriple(0, doomed).ok());
  net.Settle();
  auto r3 = net.ServeFor(2, q);
  ASSERT_TRUE(r3.status.ok());
  EXPECT_FALSE(has_doomed(r3)) << "cache served rows for a deleted triple";
  uint64_t invalidations = 0;
  for (size_t p = 0; p < net.size(); ++p)
    invalidations += net.peer(p)->cache()->stats().invalidations;
  EXPECT_GT(invalidations, 0u);

  // And back again after re-insert.
  ASSERT_TRUE(net.InsertTriple(0, doomed).ok());
  net.Settle();
  auto r4 = net.ServeFor(2, q);
  ASSERT_TRUE(r4.status.ok());
  EXPECT_TRUE(has_doomed(r4));
}

TEST(ServingCacheTest, DeprecateInvalidatesReformulatedResults) {
  // Mirror of RemoveInvalidatesCachedExtents at the mediation layer: rows
  // reachable only through a mapping must disappear when the mapping is
  // deprecated (and reappear when it is reactivated), even with the serving
  // caches warm. A stale reformulation or extent entry keyed to the old
  // mapping state would keep serving the B-schema rows.
  GridVineNetwork net(ServingOptions(5, /*cache=*/true, /*batch=*/false));
  ASSERT_TRUE(net.InsertSchema(0, Schema("A", "d", {"organism"})).ok());
  ASSERT_TRUE(net.InsertSchema(1, Schema("B", "d", {"organism"})).ok());
  ASSERT_TRUE(net.InsertTriple(0, Triple(Term::Uri("x:a1"),
                                         Term::Uri("A#organism"),
                                         Term::Literal("Aspergillus niger")))
                  .ok());
  ASSERT_TRUE(net.InsertTriple(1, Triple(Term::Uri("x:b1"),
                                         Term::Uri("B#organism"),
                                         Term::Literal("Aspergillus flavus")))
                  .ok());
  SchemaMapping m("ab", "A", "B");
  ASSERT_TRUE(m.AddCorrespondence("A#organism", "B#organism").ok());
  ASSERT_TRUE(net.InsertMapping(0, m).ok());
  net.Settle();

  TriplePatternQuery q("x", P(Term::Var("x"), Term::Uri("A#organism"),
                              Term::Literal("%Aspergillus%")));
  GridVinePeer::QueryOptions opts;
  opts.reformulate = true;
  auto subjects = [&](const GridVinePeer::QueryResult& r) {
    std::set<std::string> s;
    for (const auto& item : r.items) s.insert(item.value.value());
    return s;
  };

  // Warm: both schemas answer through the mapping.
  auto r1 = net.ServeFor(2, q, opts);
  ASSERT_TRUE(r1.status.ok()) << r1.status;
  EXPECT_EQ(subjects(r1), (std::set<std::string>{"x:a1", "x:b1"}));
  auto r2 = net.ServeFor(2, q, opts);
  ASSERT_TRUE(r2.status.ok());
  EXPECT_EQ(subjects(r2), (std::set<std::string>{"x:a1", "x:b1"}));

  // Deprecate (the self-organizer's Bayesian verdict path: UpsertMapping
  // with the deprecated flag) and re-query.
  SchemaMapping dep = m;
  dep.set_deprecated(true);
  ASSERT_TRUE(net.UpsertMapping(0, dep).ok());
  net.Settle();
  auto r3 = net.ServeFor(2, q, opts);
  ASSERT_TRUE(r3.status.ok());
  EXPECT_EQ(subjects(r3), (std::set<std::string>{"x:a1"}))
      << "deprecated mapping still reformulates";

  // Reactivate and re-query: the B rows must come back.
  ASSERT_TRUE(net.UpsertMapping(0, m).ok());
  net.Settle();
  auto r4 = net.ServeFor(2, q, opts);
  ASSERT_TRUE(r4.status.ok());
  EXPECT_EQ(subjects(r4), (std::set<std::string>{"x:a1", "x:b1"}));
}

}  // namespace
}  // namespace gridvine
