// Property tests for the statistics layer: KMV distinct sketches, per-store
// sketches (build, estimate, canonical wire form) and the issuer-side
// statistics cache with its TTL and observation-override semantics.

#include <gtest/gtest.h>

#include <string>

#include "query/stats/sketch.h"
#include "query/stats/stats_cache.h"
#include "store/triple_store.h"

namespace gridvine {
namespace {

TEST(KmvSketchTest, ExactBelowKAndDuplicateInsensitive) {
  KmvSketch s(64);
  for (int pass = 0; pass < 3; ++pass) {
    for (int i = 0; i < 50; ++i) {
      s.AddString(std::string("v").append(std::to_string(i)));
    }
  }
  EXPECT_DOUBLE_EQ(s.Estimate(), 50.0);
}

TEST(KmvSketchTest, EstimateWithinTolerance) {
  // ~12% standard error at k = 64; the 40% band holds with huge margin for
  // any reasonable hash behaviour while still catching broken estimators.
  for (int n : {500, 5000, 50000}) {
    KmvSketch s;
    for (int i = 0; i < n; ++i) {
      s.AddString(std::string("value-").append(std::to_string(i)));
    }
    double est = s.Estimate();
    EXPECT_GT(est, n * 0.6) << "n=" << n;
    EXPECT_LT(est, n * 1.4) << "n=" << n;
  }
}

TEST(KmvSketchTest, InsertionOrderInvariantAndRoundTrips) {
  KmvSketch a, b;
  for (int i = 0; i < 300; ++i) {
    a.AddString(std::string("x").append(std::to_string(i)));
  }
  for (int i = 299; i >= 0; --i) {
    b.AddString(std::string("x").append(std::to_string(i)));
  }
  EXPECT_TRUE(a == b);
  EXPECT_EQ(a.Serialize(), b.Serialize());

  auto parsed = KmvSketch::Parse(a.Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(*parsed == a);
  EXPECT_DOUBLE_EQ(parsed->Estimate(), a.Estimate());
}

TEST(KmvSketchTest, MergeEqualsUnion) {
  KmvSketch a, b, u;
  for (int i = 0; i < 200; ++i) {
    a.AddString(std::string("a").append(std::to_string(i)));
    u.AddString(std::string("a").append(std::to_string(i)));
  }
  for (int i = 0; i < 200; ++i) {
    b.AddString(std::string("b").append(std::to_string(i)));
    u.AddString(std::string("b").append(std::to_string(i)));
  }
  a.Merge(b);
  EXPECT_TRUE(a == u);
}

Triple T(const std::string& s, const std::string& p, const std::string& o) {
  return Triple(Term::Uri(s), Term::Uri(p), Term::Literal(o));
}

TEST(StoreSketchTest, EstimatesPatternsAgainstStore) {
  TripleStore store;
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(store
                    .Insert(T(std::string("s").append(std::to_string(i)),
                              "p:type", i % 4 == 0 ? "gadget" : "widget"))
                    .ok());
  }
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(store
                    .Insert(T(std::string("s").append(std::to_string(i)),
                              "p:size", std::to_string(i % 3)))
                    .ok());
  }
  StoreSketch sk = StoreSketch::Build(store);
  EXPECT_EQ(sk.total_rows(), store.size());
  EXPECT_EQ(sk.built_version(), store.version());

  // Exact predicate: the slice's row count (exact — the store is small).
  PatternEstimate e = sk.EstimatePattern(
      TriplePattern(Term::Var("x"), Term::Uri("p:type"), Term::Var("o")));
  ASSERT_TRUE(e.known);
  EXPECT_DOUBLE_EQ(e.rows, 40.0);
  EXPECT_DOUBLE_EQ(e.distinct_objects, 2.0);

  // Exact predicate + exact object: rows / distinct objects.
  e = sk.EstimatePattern(TriplePattern(Term::Var("x"), Term::Uri("p:type"),
                                       Term::Literal("gadget")));
  ASSERT_TRUE(e.known);
  EXPECT_NEAR(e.rows, 20.0, 1e-9);

  // Absent predicate: known, zero rows — the planner can exploit it.
  e = sk.EstimatePattern(
      TriplePattern(Term::Var("x"), Term::Uri("p:none"), Term::Var("o")));
  ASSERT_TRUE(e.known);
  EXPECT_DOUBLE_EQ(e.rows, 0.0);

  // Range object: the sketch keeps no value order -> unknown, greedy rank.
  e = sk.EstimatePattern(TriplePattern(Term::Var("x"), Term::Uri("p:type"),
                                       Term::Literal("gad%")));
  EXPECT_FALSE(e.known);
}

TEST(StoreSketchTest, SerializeRoundTripIsCanonical) {
  TripleStore store;
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(store
                    .Insert(T(std::string("s").append(std::to_string(i % 7)),
                              std::string("p").append(std::to_string(i % 3)),
                              std::string("o").append(std::to_string(i))))
                    .ok());
  }
  StoreSketch sk = StoreSketch::Build(store);
  std::string wire = sk.Serialize();
  auto parsed = StoreSketch::Parse(wire);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Serialize(), wire);
  EXPECT_EQ(parsed->total_rows(), sk.total_rows());
  EXPECT_EQ(parsed->built_version(), sk.built_version());
  TriplePattern p(Term::Var("x"), Term::Uri("p1"), Term::Var("o"));
  EXPECT_DOUBLE_EQ(parsed->EstimatePattern(p).rows,
                   sk.EstimatePattern(p).rows);

  EXPECT_FALSE(StoreSketch::Parse("garbage").ok());
  EXPECT_FALSE(StoreSketch::Parse(wire.substr(0, wire.size() / 2)).ok());
}

TEST(StoreSketchTest, SameDataSameBytes) {
  // Determinism across builds: the sketch is pure FNV-1a over the content,
  // so two stores holding the same triples serialize identically even when
  // loaded in different orders.
  TripleStore a, b;
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(
        a.Insert(T(std::string("s").append(std::to_string(i)), "p", "o")).ok());
  }
  for (int i = 29; i >= 0; --i) {
    ASSERT_TRUE(
        b.Insert(T(std::string("s").append(std::to_string(i)), "p", "o")).ok());
  }
  StoreSketch sa = StoreSketch::Build(a);
  StoreSketch sb = StoreSketch::Build(b);
  EXPECT_EQ(sa.total_rows(), sb.total_rows());
  TriplePattern p(Term::Var("x"), Term::Uri("p"), Term::Var("o"));
  EXPECT_DOUBLE_EQ(sa.EstimatePattern(p).distinct_subjects,
                   sb.EstimatePattern(p).distinct_subjects);
}

TEST(StatsCacheTest, TtlExpiryAndObservationOverrides) {
  StatsCache::Options o;
  o.ttl = 10.0;
  StatsCache cache(o);
  TripleStore store;
  ASSERT_TRUE(store.Insert(T("s", "p", "o")).ok());
  cache.Put("region-a", StoreSketch::Build(store), /*now=*/0.0);

  EXPECT_TRUE(cache.Fresh("region-a", 5.0));
  EXPECT_NE(cache.Lookup("region-a", 5.0), nullptr);
  EXPECT_FALSE(cache.Fresh("region-a", 11.0));
  EXPECT_EQ(cache.Lookup("region-a", 11.0), nullptr);  // expired -> dropped
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);

  cache.Observe("pat", 42.0, 0.0);
  auto obs = cache.ObservedRows("pat", 5.0);
  ASSERT_TRUE(obs.has_value());
  EXPECT_DOUBLE_EQ(*obs, 42.0);
  EXPECT_FALSE(cache.ObservedRows("pat", 11.0).has_value());
  EXPECT_FALSE(cache.ObservedRows("other", 5.0).has_value());
}

}  // namespace
}  // namespace gridvine
