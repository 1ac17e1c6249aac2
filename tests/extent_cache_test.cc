// ExtentCache unit tests plus the TripleStore version-counter contract the
// cache's invalidation rule depends on. The regression of record here: a
// store version that only moved on inserts would let the cache serve rows
// for deleted triples forever — Erase, Clear and tombstone compaction must
// all bump it.

#include <gtest/gtest.h>

#include <string>

#include "query/extent_cache.h"
#include "rdf/triple.h"
#include "store/triple_store.h"

namespace gridvine {
namespace {

ExtentCache::Extent Rows(const std::string& payload, uint64_t count) {
  ExtentCache::Extent e;
  e.rows = payload;
  e.row_count = count;
  return e;
}

TEST(ExtentCacheTest, HitAfterInsert) {
  ExtentCache cache;
  cache.Insert("p1", "probes-a", 7, Rows("row-data", 3));
  const ExtentCache::Extent* hit = cache.Lookup("p1", "probes-a", 7);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->rows, "row-data");
  EXPECT_EQ(hit->row_count, 3u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 0u);
}

TEST(ExtentCacheTest, NegativeHitsCountEmptyExtents) {
  // Cached empty extents are the cheap "this peer has nothing for you"
  // answers; they get their own counter so operators can tell how much of
  // the hit rate is negative caching.
  ExtentCache cache;
  cache.Insert("empty", "", 1, Rows("", 0));
  cache.Insert("full", "", 1, Rows("row-data", 2));
  ASSERT_NE(cache.Lookup("empty", "", 1), nullptr);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().negative_hits, 1u);
  // A hit on a non-empty extent bumps hits only.
  ASSERT_NE(cache.Lookup("full", "", 1), nullptr);
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.stats().negative_hits, 1u);
  // Misses never count as negative hits.
  EXPECT_EQ(cache.Lookup("absent", "", 1), nullptr);
  EXPECT_EQ(cache.stats().negative_hits, 1u);
  // Repeated empty hits keep counting.
  ASSERT_NE(cache.Lookup("empty", "", 1), nullptr);
  EXPECT_EQ(cache.stats().negative_hits, 2u);
}

TEST(ExtentCacheTest, MissOnUnknownKeyAndDistinctProbes) {
  ExtentCache cache;
  cache.Insert("p1", "probes-a", 1, Rows("a", 1));
  EXPECT_EQ(cache.Lookup("p2", "probes-a", 1), nullptr);
  EXPECT_EQ(cache.Lookup("p1", "probes-b", 1), nullptr);
  EXPECT_EQ(cache.stats().misses, 2u);
  // Same pattern with two probe signatures: two independent entries.
  cache.Insert("p1", "probes-b", 1, Rows("b", 1));
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_EQ(cache.Lookup("p1", "probes-a", 1)->rows, "a");
  EXPECT_EQ(cache.Lookup("p1", "probes-b", 1)->rows, "b");
}

TEST(ExtentCacheTest, VersionMismatchDropsEntry) {
  ExtentCache cache;
  cache.Insert("p1", "", 5, Rows("stale", 1));
  // Store moved on (insert/erase/compaction): the entry is dropped, counted
  // as invalidation + miss, and is gone even for the original version.
  EXPECT_EQ(cache.Lookup("p1", "", 6), nullptr);
  EXPECT_EQ(cache.stats().invalidations, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.Lookup("p1", "", 5), nullptr);
}

TEST(ExtentCacheTest, LruEvictionByEntryCount) {
  ExtentCache::Options opts;
  opts.max_entries = 2;
  ExtentCache cache(opts);
  cache.Insert("a", "", 1, Rows("a", 1));
  cache.Insert("b", "", 1, Rows("b", 1));
  // Touch "a" so "b" is the LRU victim.
  EXPECT_NE(cache.Lookup("a", "", 1), nullptr);
  cache.Insert("c", "", 1, Rows("c", 1));
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_NE(cache.Lookup("a", "", 1), nullptr);
  EXPECT_EQ(cache.Lookup("b", "", 1), nullptr);
  EXPECT_NE(cache.Lookup("c", "", 1), nullptr);
}

TEST(ExtentCacheTest, ByteBoundEviction) {
  ExtentCache::Options opts;
  opts.max_bytes = 600;
  ExtentCache cache(opts);
  cache.Insert("a", "", 1, Rows(std::string(200, 'x'), 10));
  cache.Insert("b", "", 1, Rows(std::string(200, 'y'), 10));
  EXPECT_GT(cache.stats().evictions, 0u);
  EXPECT_LE(cache.bytes(), 600u);
  EXPECT_NE(cache.Lookup("b", "", 1), nullptr);  // newest survives
}

TEST(ExtentCacheTest, ReplaceUpdatesInPlace) {
  ExtentCache cache;
  cache.Insert("p", "", 1, Rows("old", 1));
  cache.Insert("p", "", 2, Rows("new", 2));
  EXPECT_EQ(cache.entries(), 1u);
  const auto* hit = cache.Lookup("p", "", 2);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->rows, "new");
}

TEST(ExtentCacheTest, MemoryFootprintTracksEntries) {
  ExtentCache cache;
  size_t empty = cache.MemoryFootprint();
  cache.Insert("p", "probes", 1, Rows(std::string(1000, 'z'), 50));
  EXPECT_GT(cache.MemoryFootprint(), empty + 1000);
}

// --- TripleStore version contract -------------------------------------------

Triple T(int i) {
  return Triple(Term::Uri(std::string("s").append(std::to_string(i))),
                Term::Uri("p"),
                Term::Literal(std::string("o").append(std::to_string(i))));
}

TEST(TripleStoreVersionTest, InsertBumpsOncePerNewTriple) {
  TripleStore db;
  uint64_t v0 = db.version();
  ASSERT_TRUE(db.Insert(T(1)).ok());
  EXPECT_EQ(db.version(), v0 + 1);
  // Duplicate insert is a no-op: a cache keyed on the version must not be
  // invalidated by it.
  ASSERT_TRUE(db.Insert(T(1)).ok());
  EXPECT_EQ(db.version(), v0 + 1);
}

TEST(TripleStoreVersionTest, EraseAndClearBump) {
  TripleStore db;
  ASSERT_TRUE(db.Insert(T(1)).ok());
  uint64_t v = db.version();
  EXPECT_TRUE(db.Erase(T(1)));
  EXPECT_GT(db.version(), v);
  // Erasing something absent leaves the version alone.
  v = db.version();
  EXPECT_FALSE(db.Erase(T(2)));
  EXPECT_EQ(db.version(), v);
  ASSERT_TRUE(db.Insert(T(3)).ok());
  v = db.version();
  db.Clear();
  EXPECT_GT(db.version(), v);
}

TEST(TripleStoreVersionTest, CompactionBumps) {
  // Drive the store across the compaction threshold (>= 64 slots, >= 50%
  // dead) and check the version moved strictly past the per-erase bumps:
  // compaction renumbers slots, so cached extents computed before it are
  // stale even though the logical contents did not change.
  TripleStore db;
  const int n = 80;
  for (int i = 0; i < n; ++i) ASSERT_TRUE(db.Insert(T(i)).ok());
  uint64_t erased = 0;
  uint64_t v_before = db.version();
  for (int i = 0; i < n / 2 + 1; ++i) {
    ASSERT_TRUE(db.Erase(T(i)));
    ++erased;
  }
  // At least one compaction ran somewhere in that erase run.
  EXPECT_GT(db.version(), v_before + erased);
  EXPECT_EQ(db.size(), size_t(n) - erased);
}

}  // namespace
}  // namespace gridvine
