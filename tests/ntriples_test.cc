#include "rdf/ntriples.h"

#include <gtest/gtest.h>

namespace gridvine {
namespace {

TEST(NTriplesTest, LineRoundTripLiteral) {
  Triple t(Term::Uri("ebi:P100001"), Term::Uri("EMBL#Organism"),
           Term::Literal("Aspergillus niger"));
  std::string line = ToNTriplesLine(t);
  EXPECT_EQ(line,
            "<ebi:P100001> <EMBL#Organism> \"Aspergillus niger\" .");
  auto parsed = ParseNTriplesLine(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(*parsed, t);
}

TEST(NTriplesTest, LineRoundTripUriObject) {
  Triple t(Term::Uri("s"), Term::Uri("rdf:type"), Term::Uri("bio:Protein"));
  auto parsed = ParseNTriplesLine(ToNTriplesLine(t));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, t);
  EXPECT_TRUE(parsed->object().IsUri());
}

TEST(NTriplesTest, EscapesRoundTrip) {
  Triple t(Term::Uri("s"), Term::Uri("p"),
           Term::Literal("line1\nline2\ttab \"quoted\" back\\slash"));
  auto parsed = ParseNTriplesLine(ToNTriplesLine(t));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->object().value(),
            "line1\nline2\ttab \"quoted\" back\\slash");
}

TEST(NTriplesTest, DocumentRoundTrip) {
  std::vector<Triple> triples;
  for (int i = 0; i < 10; ++i) {
    triples.emplace_back(Term::Uri(std::string("s").append(std::to_string(i))),
                         Term::Uri("p"),
                         Term::Literal("value " + std::to_string(i)));
  }
  auto parsed = ParseNTriples(ToNTriples(triples));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(*parsed, triples);
}

TEST(NTriplesTest, CommentsAndBlankLinesSkipped) {
  auto parsed = ParseNTriples(
      "# header comment\n"
      "\n"
      "<s> <p> \"v\" .\n"
      "   \n"
      "<s2> <p> \"v2\" . # trailing comment\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->size(), 2u);
}

TEST(NTriplesTest, HashInsideUriIsNotAComment) {
  auto parsed = ParseNTriples("<s> <EMBL#Organism> \"v#notcomment\" .\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->size(), 1u);
  EXPECT_EQ((*parsed)[0].predicate().value(), "EMBL#Organism");
  EXPECT_EQ((*parsed)[0].object().value(), "v#notcomment");
}

TEST(NTriplesTest, MalformedLinesReportLineNumber) {
  auto parsed = ParseNTriples(
      "<s> <p> \"v\" .\n"
      "this is not a triple\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("line 2"), std::string::npos);
}

TEST(NTriplesTest, RejectsBadLines) {
  EXPECT_FALSE(ParseNTriplesLine("<s> <p> \"v\"").ok());       // no dot
  EXPECT_FALSE(ParseNTriplesLine("<s> <p> v .").ok());          // bare object
  EXPECT_FALSE(ParseNTriplesLine("<s> <p> \"v .").ok());        // unterminated
  EXPECT_FALSE(ParseNTriplesLine("<s> <p> \"v\\q\" .").ok());   // bad escape
  EXPECT_FALSE(ParseNTriplesLine("s <p> \"v\" .").ok());        // bare subject
  EXPECT_FALSE(ParseNTriplesLine("<> <p> \"v\" .").ok());       // empty URI
  EXPECT_FALSE(ParseNTriplesLine("<s> <p> \"v\" . extra").ok());
}

}  // namespace
}  // namespace gridvine
