#include "store/triple_store.h"

#include <gtest/gtest.h>

namespace gridvine {
namespace {

Triple T(const std::string& s, const std::string& p, const std::string& o) {
  return Triple(Term::Uri(s), Term::Uri(p), Term::Literal(o));
}

class TripleStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(store_.Insert(T("seq1", "EMBL#Organism", "Aspergillus niger")).ok());
    ASSERT_TRUE(store_.Insert(T("seq1", "EMBL#Length", "1204")).ok());
    ASSERT_TRUE(store_.Insert(T("seq2", "EMBL#Organism", "Penicillium")).ok());
    ASSERT_TRUE(store_.Insert(T("seq3", "EMBL#Organism", "Aspergillus flavus")).ok());
    ASSERT_TRUE(store_.Insert(T("seq3", "EMP#SystematicName", "NEN94295-05")).ok());
  }
  TripleStore store_;
};

TEST_F(TripleStoreTest, InsertDeduplicates) {
  EXPECT_EQ(store_.size(), 5u);
  EXPECT_TRUE(store_.Insert(T("seq1", "EMBL#Length", "1204")).ok());
  EXPECT_EQ(store_.size(), 5u);
}

TEST_F(TripleStoreTest, InsertValidates) {
  Triple bad(Term::Literal("x"), Term::Uri("p"), Term::Literal("o"));
  EXPECT_TRUE(store_.Insert(bad).IsInvalidArgument());
}

TEST_F(TripleStoreTest, ContainsAndErase) {
  Triple t = T("seq2", "EMBL#Organism", "Penicillium");
  EXPECT_TRUE(store_.Contains(t));
  EXPECT_TRUE(store_.Erase(t));
  EXPECT_FALSE(store_.Contains(t));
  EXPECT_FALSE(store_.Erase(t));
  EXPECT_EQ(store_.size(), 4u);
  // Erased triple no longer surfaces in selections.
  auto rows = store_.Select(TriplePattern(Term::Var("x"),
                                          Term::Uri("EMBL#Organism"),
                                          Term::Var("y")));
  EXPECT_EQ(rows.size(), 2u);
}

TEST_F(TripleStoreTest, ReinsertAfterErase) {
  Triple t = T("seq2", "EMBL#Organism", "Penicillium");
  store_.Erase(t);
  ASSERT_TRUE(store_.Insert(t).ok());
  EXPECT_TRUE(store_.Contains(t));
  EXPECT_EQ(store_.size(), 5u);
}

TEST_F(TripleStoreTest, SelectByPredicate) {
  auto rows = store_.Select(TriplePattern(Term::Var("x"),
                                          Term::Uri("EMBL#Organism"),
                                          Term::Var("y")));
  EXPECT_EQ(rows.size(), 3u);
}

TEST_F(TripleStoreTest, SelectBySubject) {
  auto rows = store_.Select(
      TriplePattern(Term::Uri("seq3"), Term::Var("p"), Term::Var("o")));
  EXPECT_EQ(rows.size(), 2u);
}

TEST_F(TripleStoreTest, SelectWithLikePattern) {
  auto rows = store_.Select(TriplePattern(Term::Var("x"),
                                          Term::Uri("EMBL#Organism"),
                                          Term::Literal("%Aspergillus%")));
  EXPECT_EQ(rows.size(), 2u);
}

TEST_F(TripleStoreTest, SelectFullScanWhenNoExactConstant) {
  auto rows = store_.Select(TriplePattern(Term::Var("x"), Term::Var("p"),
                                          Term::Literal("%e%")));
  // "Aspergillus niger", "Penicillium", NEN... no 'e' in "1204".
  EXPECT_EQ(rows.size(), 3u);
}

TEST_F(TripleStoreTest, MatchPatternExtractsBindings) {
  auto bindings = store_.MatchPattern(TriplePattern(
      Term::Var("x"), Term::Uri("EMBL#Organism"), Term::Literal("%Aspergillus%")));
  ASSERT_EQ(bindings.size(), 2u);
  for (const auto& b : bindings) {
    ASSERT_TRUE(b.count("x"));
    EXPECT_TRUE(b.at("x").IsUri());
  }
}

TEST_F(TripleStoreTest, ProjectDeduplicatesAndSorts) {
  auto bindings = store_.MatchPattern(
      TriplePattern(Term::Var("x"), Term::Uri("EMBL#Organism"), Term::Var("y")));
  auto xs = store_.Project(bindings, "x");
  ASSERT_EQ(xs.size(), 3u);
  EXPECT_EQ(xs[0].value(), "seq1");
  EXPECT_EQ(xs[2].value(), "seq3");
  EXPECT_TRUE(store_.Project(bindings, "unbound").empty());
}

TEST_F(TripleStoreTest, JoinOnSharedVariable) {
  // ?x organism %Aspergillus% AND ?x has a systematic name ?n
  auto left = store_.MatchPattern(TriplePattern(
      Term::Var("x"), Term::Uri("EMBL#Organism"), Term::Literal("%Aspergillus%")));
  auto right = store_.MatchPattern(TriplePattern(
      Term::Var("x"), Term::Uri("EMP#SystematicName"), Term::Var("n")));
  auto joined = TripleStore::Join(left, right);
  ASSERT_EQ(joined.size(), 1u);
  EXPECT_EQ(joined[0].at("x").value(), "seq3");
  EXPECT_EQ(joined[0].at("n").value(), "NEN94295-05");
}

TEST_F(TripleStoreTest, JoinWithNoSharedVariableIsCrossProduct) {
  auto left = store_.MatchPattern(TriplePattern(
      Term::Var("a"), Term::Uri("EMBL#Length"), Term::Var("l")));
  auto right = store_.MatchPattern(TriplePattern(
      Term::Var("b"), Term::Uri("EMP#SystematicName"), Term::Var("n")));
  auto joined = TripleStore::Join(left, right);
  EXPECT_EQ(joined.size(), left.size() * right.size());
  ASSERT_EQ(joined.size(), 1u);
  EXPECT_EQ(joined[0].size(), 4u);  // a, l, b, n
}

TEST_F(TripleStoreTest, JoinEmptySideIsEmpty) {
  auto left = store_.MatchPattern(TriplePattern(
      Term::Var("x"), Term::Uri("EMBL#Organism"), Term::Var("y")));
  EXPECT_TRUE(TripleStore::Join(left, {}).empty());
  EXPECT_TRUE(TripleStore::Join({}, left).empty());
}

TEST_F(TripleStoreTest, DistinctPredicates) {
  auto preds = store_.DistinctPredicates();
  EXPECT_EQ(preds.size(), 3u);
}

TEST_F(TripleStoreTest, ObjectValuesFor) {
  auto values = store_.ObjectValuesFor("EMBL#Organism");
  EXPECT_EQ(values.size(), 3u);
  EXPECT_TRUE(values.count("Penicillium"));
  EXPECT_TRUE(store_.ObjectValuesFor("nope#nope").empty());
}

TEST_F(TripleStoreTest, AllAndClear) {
  EXPECT_EQ(store_.All().size(), 5u);
  store_.Clear();
  EXPECT_TRUE(store_.empty());
  EXPECT_TRUE(store_.All().empty());
  EXPECT_TRUE(store_.Insert(T("s", "p", "o")).ok());
  EXPECT_EQ(store_.size(), 1u);
}

TEST_F(TripleStoreTest, InsertBatchDeduplicatesAndValidates) {
  TripleStore store;
  std::vector<Triple> batch;
  for (int i = 0; i < 10; ++i) {
    batch.push_back(T(std::string("s").append(std::to_string(i % 4)), "p",
                      std::string("o").append(std::to_string(i))));
  }
  batch.push_back(batch.front());  // duplicate inside the batch
  ASSERT_TRUE(store.InsertBatch(batch).ok());
  EXPECT_EQ(store.size(), 10u);

  // A bad triple rejects the whole batch before any mutation.
  std::vector<Triple> bad = {T("x", "p", "o"),
                             Triple(Term::Literal("no"), Term::Uri("p"),
                                    Term::Literal("o"))};
  EXPECT_TRUE(store.InsertBatch(bad).IsInvalidArgument());
  EXPECT_EQ(store.size(), 10u);
  EXPECT_FALSE(store.Contains(T("x", "p", "o")));
}

TEST_F(TripleStoreTest, DictionarySharesTermsAcrossTriples) {
  TripleStore store;
  ASSERT_TRUE(store.Insert(T("s", "p", "o1")).ok());
  size_t base = store.dictionary_size();
  EXPECT_EQ(base, 3u);
  // Same subject/predicate, new object: exactly one new term.
  ASSERT_TRUE(store.Insert(T("s", "p", "o2")).ok());
  EXPECT_EQ(store.dictionary_size(), base + 1);
  // Same string, different kind (URI vs literal) is a distinct term.
  ASSERT_TRUE(store.Insert(Triple(Term::Uri("s"), Term::Uri("p"),
                                  Term::Uri("o1"))).ok());
  EXPECT_EQ(store.dictionary_size(), base + 2);
  // Erase does not shrink the dictionary (ids stay stable for reinserts).
  store.Erase(T("s", "p", "o1"));
  EXPECT_EQ(store.dictionary_size(), base + 2);
}

TEST_F(TripleStoreTest, CompactionPreservesResultsUnderMassErase) {
  // 200 triples, erase 150 (enough to trip the dead-fraction threshold
  // several times), then verify every survivor by all three indexes.
  TripleStore store;
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(
        store.Insert(T(std::string("s").append(std::to_string(i)),
                       std::string("p").append(std::to_string(i % 3)),
                       std::string("o").append(std::to_string(i))))
            .ok());
  }
  for (int i = 0; i < 150; ++i) {
    ASSERT_TRUE(store.Erase(T(std::string("s").append(std::to_string(i)),
                              std::string("p").append(std::to_string(i % 3)),
                              std::string("o").append(std::to_string(i)))));
  }
  EXPECT_EQ(store.size(), 50u);
  for (int i = 150; i < 200; ++i) {
    Triple t = T(std::string("s").append(std::to_string(i)),
                 std::string("p").append(std::to_string(i % 3)),
                 std::string("o").append(std::to_string(i)));
    EXPECT_TRUE(store.Contains(t));
    EXPECT_EQ(store.Select(TriplePattern(t.subject(), Term::Var("p"),
                                         Term::Var("o"))).size(), 1u);
    EXPECT_EQ(store.Select(TriplePattern(Term::Var("s"), Term::Var("p"),
                                         t.object())).size(), 1u);
  }
  auto by_pred = store.Select(
      TriplePattern(Term::Var("s"), Term::Uri("p0"), Term::Var("o")));
  size_t expect_p0 = 0;
  for (int i = 150; i < 200; ++i) expect_p0 += (i % 3 == 0);
  EXPECT_EQ(by_pred.size(), expect_p0);
  // Reinsert an erased triple: comes back exactly once.
  ASSERT_TRUE(store.Insert(T("s0", "p0", "o0")).ok());
  EXPECT_EQ(store.Select(TriplePattern(Term::Uri("s0"), Term::Var("p"),
                                       Term::Var("o"))).size(), 1u);
}

// Tags: a triple stays while any of its tags is set.
constexpr TripleStore::Tags kS = 1, kP = 2, kO = 4;

TEST(TripleStoreTagTest, TripleStaysWhileAnyTagIsSet) {
  TripleStore store;
  const Triple t = T("s", "p", "o");
  ASSERT_TRUE(store.Tag(t, kS).ok());
  ASSERT_TRUE(store.Tag(t, kP | kO).ok());
  EXPECT_FALSE(store.Untag(t, kS));
  EXPECT_FALSE(store.Untag(t, kP));
  EXPECT_TRUE(store.Contains(t));
  EXPECT_TRUE(store.Untag(t, kO));
  EXPECT_FALSE(store.Contains(t));
  EXPECT_TRUE(store.empty());
}

TEST(TripleStoreTagTest, ClearingAbsentTagsChangesNothing) {
  TripleStore store;
  const Triple t = T("s", "p", "o");
  ASSERT_TRUE(store.Tag(t, kS).ok());
  const uint64_t version = store.version();
  EXPECT_FALSE(store.Untag(t, kP | kO));
  EXPECT_FALSE(store.Untag(T("s", "p", "other"), kS));
  EXPECT_TRUE(store.Contains(t));
  EXPECT_EQ(store.version(), version);
  EXPECT_TRUE(store.Untag(t, kS));  // still tagged kS alone
}

TEST(TripleStoreTagTest, EraseClearsEveryTag) {
  TripleStore store;
  const Triple t = T("s", "p", "o");
  ASSERT_TRUE(store.Tag(t, kS | kO).ok());
  EXPECT_TRUE(store.Erase(t));
  EXPECT_FALSE(store.Contains(t));
  // Re-tagged, it carries only the new tag: none of the erased ones is left.
  ASSERT_TRUE(store.Tag(t, kP).ok());
  EXPECT_TRUE(store.Untag(t, kP));
}

TEST(TripleStoreTagTest, TagChangeOnStayingTripleKeepsVersion) {
  TripleStore store;
  const Triple t = T("s", "p", "o");
  ASSERT_TRUE(store.Tag(t, kS).ok());
  const uint64_t entered = store.version();
  ASSERT_TRUE(store.Tag(t, kP).ok());
  ASSERT_TRUE(store.Tag(t, kP).ok());
  EXPECT_FALSE(store.Untag(t, kS));
  EXPECT_EQ(store.version(), entered);
  EXPECT_TRUE(store.Untag(t, kP));
  EXPECT_GT(store.version(), entered);  // leaving moves it
}

TEST(TripleStoreTagTest, TagsSurviveCompaction) {
  TripleStore store;
  auto nth = [](int i) {
    return T(std::string("s").append(std::to_string(i)), "p",
             std::string("o").append(std::to_string(i)));
  };
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(store.Tag(nth(i), i % 2 == 0 ? kS : kP | kO).ok());
  }
  // Erasing 60 crosses the dead-fraction threshold: compaction renumbers.
  const uint64_t before = store.version();
  for (int i = 0; i < 60; ++i) ASSERT_TRUE(store.Erase(nth(i)));
  EXPECT_GT(store.version(), before + 60);  // one bump was the compaction
  for (int i = 60; i < 100; ++i) {
    if (i % 2 == 0) {
      EXPECT_FALSE(store.Untag(nth(i), kP | kO));
      EXPECT_TRUE(store.Untag(nth(i), kS)) << i;
    } else {
      EXPECT_FALSE(store.Untag(nth(i), kS));
      EXPECT_FALSE(store.Untag(nth(i), kP));
      EXPECT_TRUE(store.Untag(nth(i), kO)) << i;
    }
  }
  EXPECT_TRUE(store.empty());
}

// Property sweep: store N triples, every one findable by each index.
class TripleStorePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(TripleStorePropertyTest, AllTriplesFindableByEveryIndex) {
  TripleStore store;
  int n = GetParam();
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(store
                    .Insert(T(std::string("s").append(std::to_string(i % 17)),
                              std::string("p").append(std::to_string(i % 5)),
                              std::string("o").append(std::to_string(i))))
                    .ok());
  }
  EXPECT_EQ(store.size(), size_t(n));
  for (int i = 0; i < n; ++i) {
    Triple t = T(std::string("s").append(std::to_string(i % 17)),
                 std::string("p").append(std::to_string(i % 5)),
                 std::string("o").append(std::to_string(i)));
    auto by_s = store.Select(
        TriplePattern(t.subject(), Term::Var("p"), Term::Var("o")));
    auto by_p = store.Select(
        TriplePattern(Term::Var("s"), t.predicate(), Term::Var("o")));
    auto by_o = store.Select(
        TriplePattern(Term::Var("s"), Term::Var("p"), t.object()));
    auto in = [&t](const std::vector<Triple>& v) {
      for (const auto& x : v) {
        if (x == t) return true;
      }
      return false;
    };
    EXPECT_TRUE(in(by_s));
    EXPECT_TRUE(in(by_p));
    EXPECT_TRUE(in(by_o));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, TripleStorePropertyTest,
                         ::testing::Values(1, 10, 100, 500));

}  // namespace
}  // namespace gridvine
