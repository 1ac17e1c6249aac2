// QueryFrontend admission control: concurrency limiting, bounded queueing,
// and shed-with-Overload under saturation. The backpressure contract is that
// every submission resolves exactly once — admitted ones through the normal
// query path, shed ones synchronously with Status::Overload and zero network
// traffic — and that nothing leaks: once the heap drains there are no active
// executors or pending queries anywhere.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "gridvine/gridvine_network.h"
#include "gridvine/query_frontend.h"

namespace gridvine {
namespace {

Triple T(int i, const std::string& val) {
  return Triple(Term::Uri(std::string("s").append(std::to_string(i))),
                Term::Uri("x:p"), Term::Literal(val));
}

TEST(QueryFrontendTest, ShedsWithOverloadWhenQueueFull) {
  GridVineNetwork::Options o;
  o.num_peers = 8;
  o.key_depth = 10;
  o.seed = 7;
  o.peer.frontend.max_concurrent = 2;
  o.peer.frontend.max_queue = 3;
  GridVineNetwork net(o);
  std::vector<Triple> batch;
  for (int i = 0; i < 6; ++i) batch.push_back(T(i, "v"));
  ASSERT_TRUE(net.InsertTriples(0, batch).ok());
  net.Settle();

  const int kSubmissions = 10;
  struct Rec {
    int resolutions = 0;
    Status status;
  };
  std::vector<Rec> recs(kSubmissions);
  GridVinePeer* gw = net.peer(1);
  TriplePatternQuery q("x", TriplePattern(Term::Var("x"), Term::Uri("x:p"),
                                          Term::Literal("v")));
  // All submissions land in one instant: 2 start, 3 queue, 5 shed.
  net.sim()->ScheduleAt(1.0, [&] {
    for (int i = 0; i < kSubmissions; ++i) {
      Rec* r = &recs[size_t(i)];
      gw->frontend()->Submit(q, {}, [r](GridVinePeer::QueryResult res) {
        ++r->resolutions;
        r->status = res.status;
      });
    }
  });
  net.Settle();

  int ok = 0, shed = 0;
  for (const Rec& r : recs) {
    ASSERT_EQ(r.resolutions, 1);
    if (r.status.ok()) {
      ++ok;
    } else {
      EXPECT_TRUE(r.status.IsOverload()) << r.status;
      ++shed;
    }
  }
  EXPECT_EQ(ok, 5);  // max_concurrent + max_queue all complete
  EXPECT_EQ(shed, 5);

  QueryFrontend::Stats fs = gw->frontend()->stats();
  EXPECT_EQ(fs.submitted, uint64_t(kSubmissions));
  EXPECT_EQ(fs.started, 5u);
  EXPECT_EQ(fs.completed, 5u);
  EXPECT_EQ(fs.shed, 5u);
  EXPECT_EQ(fs.max_queue_depth, 3u);
  EXPECT_EQ(fs.active, 0u);
  EXPECT_EQ(fs.queued, 0u);

  // Nothing leaked anywhere: shed queries never touched the network.
  EXPECT_EQ(net.sim()->pending(), 0u);
  for (size_t p = 0; p < net.size(); ++p) {
    EXPECT_EQ(net.peer(p)->ActiveConjunctiveExecs(), 0u) << "peer " << p;
    EXPECT_EQ(net.peer(p)->PendingQueryCount(), 0u) << "peer " << p;
  }
}

TEST(QueryFrontendTest, ConjunctiveSubmissionsShareTheSameLimits) {
  GridVineNetwork::Options o;
  o.num_peers = 8;
  o.key_depth = 10;
  o.seed = 11;
  o.peer.frontend.max_concurrent = 1;
  o.peer.frontend.max_queue = 1;
  GridVineNetwork net(o);
  std::vector<Triple> batch;
  for (int i = 0; i < 4; ++i) {
    batch.push_back(T(i, "v"));
    batch.emplace_back(Term::Uri(std::string("s").append(std::to_string(i))),
                       Term::Uri("x:size"),
                       Term::Literal(std::to_string(i % 2)));
  }
  ASSERT_TRUE(net.InsertTriples(0, batch).ok());
  net.Settle();

  ConjunctiveQuery cq(
      {"x", "l"},
      {TriplePattern(Term::Var("x"), Term::Uri("x:p"), Term::Literal("v")),
       TriplePattern(Term::Var("x"), Term::Uri("x:size"), Term::Var("l"))});
  struct Rec {
    int resolutions = 0;
    Status status;
  };
  std::vector<Rec> recs(3);
  GridVinePeer* gw = net.peer(2);
  net.sim()->ScheduleAt(1.0, [&] {
    for (auto& r : recs) {
      Rec* rp = &r;
      gw->frontend()->SubmitConjunctive(
          cq, {}, [rp](GridVinePeer::ConjunctiveResult res) {
            ++rp->resolutions;
            rp->status = res.status;
          });
    }
  });
  net.Settle();

  ASSERT_EQ(recs[0].resolutions, 1);
  ASSERT_EQ(recs[1].resolutions, 1);
  ASSERT_EQ(recs[2].resolutions, 1);
  EXPECT_TRUE(recs[0].status.ok()) << recs[0].status;
  EXPECT_TRUE(recs[1].status.ok()) << recs[1].status;
  EXPECT_TRUE(recs[2].status.IsOverload()) << recs[2].status;
  EXPECT_EQ(gw->frontend()->stats().shed, 1u);
  for (size_t p = 0; p < net.size(); ++p) {
    EXPECT_EQ(net.peer(p)->ActiveConjunctiveExecs(), 0u) << "peer " << p;
    EXPECT_EQ(net.peer(p)->PendingQueryCount(), 0u) << "peer " << p;
  }
}

TEST(QueryFrontendTest, SequentialSubmissionsNeverShedBelowLimit) {
  GridVineNetwork::Options o;
  o.num_peers = 8;
  o.key_depth = 10;
  o.seed = 3;
  o.peer.frontend.max_concurrent = 4;
  o.peer.frontend.max_queue = 4;
  GridVineNetwork net(o);
  ASSERT_TRUE(net.InsertTriple(0, T(0, "v")).ok());
  net.Settle();

  TriplePatternQuery q("x", TriplePattern(Term::Var("x"), Term::Uri("x:p"),
                                          Term::Literal("v")));
  for (int i = 0; i < 6; ++i) {
    auto res = net.ServeFor(1, q);
    EXPECT_TRUE(res.status.ok()) << res.status;
    EXPECT_EQ(res.items.size(), 1u);
  }
  EXPECT_EQ(net.peer(1)->frontend()->stats().shed, 0u);
  EXPECT_EQ(net.peer(1)->frontend()->stats().completed, 6u);
}

}  // namespace
}  // namespace gridvine
