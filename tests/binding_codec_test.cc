#include "store/binding_codec.h"

#include <gtest/gtest.h>

namespace gridvine {
namespace {

TEST(BindingCodecTest, RoundTripSingleRow) {
  BindingSet row;
  row["x"] = Term::Uri("embl:A78712");
  row["y"] = Term::Literal("Aspergillus niger");
  auto parsed = ParseBindings(SerializeBindings({row}));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->size(), 1u);
  EXPECT_EQ((*parsed)[0].at("x"), Term::Uri("embl:A78712"));
  EXPECT_EQ((*parsed)[0].at("y"), Term::Literal("Aspergillus niger"));
}

TEST(BindingCodecTest, RoundTripMultipleRows) {
  std::vector<BindingSet> rows;
  for (int i = 0; i < 5; ++i) {
    BindingSet row;
    row["v"] = Term::Uri("id" + std::to_string(i));
    rows.push_back(row);
  }
  auto parsed = ParseBindings(SerializeBindings(rows));
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->size(), 5u);
  EXPECT_EQ((*parsed)[4].at("v").value(), "id4");
}

TEST(BindingCodecTest, EmptyListRoundTrips) {
  auto parsed = ParseBindings(SerializeBindings({}));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->empty());
}

TEST(BindingCodecTest, SeparatorCharactersEscaped) {
  BindingSet row;
  row["x"] = Term::Literal(std::string("a\x1e") + "b\x1f" + "c\\d");
  auto parsed = ParseBindings(SerializeBindings({row}));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->size(), 1u);
  EXPECT_EQ((*parsed)[0].at("x").value(),
            std::string("a\x1e") + "b\x1f" + "c\\d");
}

TEST(BindingCodecTest, VariableKindSurvives) {
  BindingSet row;
  row["x"] = Term::Var("inner");
  auto parsed = ParseBindings(SerializeBindings({row}));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE((*parsed)[0].at("x").IsVariable());
}

TEST(BindingCodecTest, ParseRejectsGarbage) {
  EXPECT_FALSE(ParseBindings("no-equals-sign").ok());
  EXPECT_FALSE(ParseBindings("x=Zvalue").ok());   // missing ':'
  EXPECT_FALSE(ParseBindings("x=Q:value").ok());  // bad kind tag
  EXPECT_FALSE(ParseBindings("x=U:v\\").ok());    // dangling escape
}

BindingSet Row(std::initializer_list<std::pair<std::string, std::string>> kv) {
  BindingSet row;
  for (const auto& [var, val] : kv) row[var] = Term::Uri(val);
  return row;
}

TEST(BindingDeduperTest, FirstSeenOrderIndexes) {
  BindingDeduper dedup;
  EXPECT_EQ(dedup.Intern(Row({{"x", "a"}})), 0u);
  EXPECT_EQ(dedup.Intern(Row({{"x", "b"}})), 1u);
  EXPECT_EQ(dedup.Intern(Row({{"x", "a"}})), 0u);  // stable on re-insert
  EXPECT_EQ(dedup.size(), 2u);
}

TEST(BindingDeduperTest, InsertReportsFirstSighting) {
  BindingDeduper dedup;
  EXPECT_TRUE(dedup.Insert(Row({{"x", "a"}, {"y", "b"}})));
  EXPECT_FALSE(dedup.Insert(Row({{"x", "a"}, {"y", "b"}})));
  // Same terms under a different variable are a different row.
  EXPECT_TRUE(dedup.Insert(Row({{"x", "b"}, {"y", "a"}})));
  EXPECT_EQ(dedup.size(), 2u);
}

TEST(BindingDeduperTest, DistinguishesTermKinds) {
  BindingDeduper dedup;
  BindingSet uri, lit;
  uri["x"] = Term::Uri("v");
  lit["x"] = Term::Literal("v");
  EXPECT_TRUE(dedup.Insert(uri));
  EXPECT_TRUE(dedup.Insert(lit));
  EXPECT_EQ(dedup.size(), 2u);
}

TEST(BindingDeduperTest, EmptyRowIsARow) {
  BindingDeduper dedup;
  EXPECT_TRUE(dedup.Insert(BindingSet{}));
  EXPECT_FALSE(dedup.Insert(BindingSet{}));
  EXPECT_EQ(dedup.size(), 1u);
}

TEST(BindingDeduperTest, WideRowsFallBackToSerializedForm) {
  // More than kMaxInlineVars variables: the packed key cannot hold the row,
  // dedup must still work through the string fallback.
  auto wide = [](const std::string& tail) {
    BindingSet row;
    for (size_t i = 0; i < BindingDeduper::kMaxInlineVars + 2; ++i) {
      row[std::string("v").append(std::to_string(i))] =
          Term::Uri(std::string("t").append(std::to_string(i)));
    }
    row["z"] = Term::Uri(tail);
    return row;
  };
  BindingDeduper dedup;
  EXPECT_EQ(dedup.Intern(wide("a")), 0u);
  EXPECT_EQ(dedup.Intern(wide("b")), 1u);
  EXPECT_EQ(dedup.Intern(wide("a")), 0u);
  EXPECT_EQ(dedup.size(), 2u);
}

TEST(BindingDeduperTest, InlineAndWideRowsShareIndexSpace) {
  BindingDeduper dedup;
  BindingSet narrow;
  narrow["x"] = Term::Uri("a");
  BindingSet wide;
  for (size_t i = 0; i < BindingDeduper::kMaxInlineVars + 1; ++i) {
    wide[std::string("v").append(std::to_string(i))] = Term::Uri("t");
  }
  EXPECT_EQ(dedup.Intern(narrow), 0u);
  EXPECT_EQ(dedup.Intern(wide), 1u);
  EXPECT_EQ(dedup.Intern(narrow), 0u);
  EXPECT_EQ(dedup.Intern(wide), 1u);
  EXPECT_EQ(dedup.size(), 2u);
}

}  // namespace
}  // namespace gridvine
