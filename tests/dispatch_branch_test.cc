// The issuer's dispatch branches: every single-pattern query branch and
// every bound-scan region a bind-join ships probes to is retried under
// Options::query_retry, closed exactly once (answered or exhausted) and
// immune to duplicate answers. Two peers separated by a timed partition
// drive each path deterministically: peer 1 issues, peer 0 holds the data.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/hash.h"
#include "common/trace.h"
#include "gridvine/gridvine_network.h"
#include "sim/fault_plan.h"

namespace gridvine {
namespace {

Triple T(const std::string& s, const std::string& p, const std::string& o) {
  return Triple(Term::Uri(s), Term::Uri(p), Term::Literal(o));
}

/// Paths "0" and "1": keys starting with 'a' live at peer 0, keys starting
/// with 'z' at peer 1 (asserted in SetUp).
class DispatchBranchTest : public ::testing::Test {
 protected:
  DispatchBranchTest() : net_(MakeOptions()) {}

  static GridVineNetwork::Options MakeOptions() {
    GridVineNetwork::Options o;
    o.num_peers = 2;
    o.key_depth = 8;
    o.seed = 3;
    o.latency = GridVineNetwork::LatencyKind::kConstant;
    o.latency_param = 0.01;
    return o;
  }

  void SetUp() override {
    OrderPreservingHash hash(8);
    for (const char* key : {"a#p", "a#q"}) {
      ASSERT_TRUE(net_.peer(0)->overlay()->IsResponsibleFor(hash(key))) << key;
    }
    for (const char* key : {"z:1", "zv"}) {
      ASSERT_TRUE(net_.peer(1)->overlay()->IsResponsibleFor(hash(key))) << key;
    }
    ASSERT_TRUE(net_.InsertTriple(0, T("a:1", "a#p", "v")).ok());
    ASSERT_TRUE(net_.InsertTriple(0, T("z:1", "z#p", "zv")).ok());
    ASSERT_TRUE(net_.InsertTriple(0, T("z:1", "a#q", "row")).ok());
  }

  /// Separates the two peers for `seconds` from now on.
  void Partition(SimTime seconds) {
    FaultPlan::Partition part;
    part.start = net_.Now();
    part.end = net_.Now() + seconds;
    part.group_a = {0};
    part.group_b = {1};
    auto plan = std::make_unique<FaultPlan>();
    plan->AddPartition(part);
    net_.network()->SetFaultPlan(std::move(plan));
  }

  /// Routed by its predicate to peer 0.
  static TriplePatternQuery DataAtPeer0() {
    return TriplePatternQuery(
        "x", TriplePattern(Term::Var("x"), Term::Uri("a#p"),
                           Term::Literal("%v%")));
  }

  /// Leads with a scan answered at the issuer (object "zv"), then bind-joins
  /// into a#q, whose static routing key lives at peer 0.
  static ConjunctiveQuery BindJoinToPeer0() {
    return ConjunctiveQuery(
        {"x", "y"},
        {TriplePattern(Term::Var("x"), Term::Uri("z#p"), Term::Literal("zv")),
         TriplePattern(Term::Var("x"), Term::Uri("a#q"), Term::Var("y"))});
  }

  /// Sum of the three attempts' jittered windows: where an exhausted branch
  /// closes.
  SimTime ExhaustedAtMost() {
    const RetryPolicy& rp = net_.peer(1)->options().query_retry;
    SimTime t = 0;
    for (int a = 1; a <= rp.max_attempts; ++a) {
      t += rp.NominalTimeoutFor(a) * (1 + rp.jitter);
    }
    return t;
  }
  SimTime ExhaustedAtLeast() {
    const RetryPolicy& rp = net_.peer(1)->options().query_retry;
    SimTime t = 0;
    for (int a = 1; a <= rp.max_attempts; ++a) {
      t += rp.NominalTimeoutFor(a) * (1 - rp.jitter);
    }
    return t;
  }

  void ExpectDrained() {
    net_.Settle();
    for (size_t i = 0; i < net_.size(); ++i) {
      EXPECT_EQ(net_.peer(i)->PendingQueryCount(), 0u) << "peer " << i;
      EXPECT_EQ(net_.peer(i)->ActiveConjunctiveExecs(), 0u) << "peer " << i;
    }
  }

  GridVineNetwork net_;
};

/// Spans named `name` in `trace` whose parent is named `parent`.
size_t CountUnder(const TraceAnalyzer& ta, uint64_t trace,
                  const std::string& name, const std::string& parent) {
  size_t n = 0;
  for (const Tracer::Span& s : ta.spans()) {
    if (s.trace_id != trace || s.name != name) continue;
    const Tracer::Span* p = ta.Find(s.parent_id);
    if (p != nullptr && p->name == parent) ++n;
  }
  return n;
}

TEST_F(DispatchBranchTest, SinglePatternRetriesOnce) {
  Partition(1.0);
  net_.tracer()->Enable();
  int batches = 0;
  GridVinePeer::QueryOptions opts;
  opts.on_answer = [&batches](const std::string&, size_t, SimTime) {
    ++batches;
  };
  auto res = net_.SearchFor(1, DataAtPeer0(), opts);
  ASSERT_TRUE(res.status.ok()) << res.status;
  ASSERT_EQ(res.items.size(), 1u);
  EXPECT_EQ(res.items[0].value.value(), "a:1");
  EXPECT_EQ(batches, 1);
  EXPECT_GT(res.latency, 2.0);

  TraceAnalyzer ta(net_.tracer()->Snapshot());
  EXPECT_EQ(ta.CheckConsistency(), "");
  EXPECT_EQ(ta.CountNamed("op.retry", res.trace_id), 1u);
  EXPECT_EQ(ta.CountNamed("op.backoff", res.trace_id), 1u);
  EXPECT_EQ(CountUnder(ta, res.trace_id, "op.backoff", "op.dispatch"), 1u);
  ExpectDrained();
}

TEST_F(DispatchBranchTest, SinglePatternExhaustsBeforeTimeout) {
  Partition(100.0);
  GridVinePeer::QueryOptions opts;
  opts.timeout = 60;
  auto res = net_.SearchFor(1, DataAtPeer0(), opts);
  // An exhausted branch closes the query early: OK with no answers, long
  // before the 60 s window.
  ASSERT_TRUE(res.status.ok()) << res.status;
  EXPECT_TRUE(res.items.empty());
  EXPECT_GE(res.latency, ExhaustedAtLeast());
  EXPECT_LE(res.latency, ExhaustedAtMost());
  EXPECT_LT(res.latency, 20.0);
  ExpectDrained();
}

TEST_F(DispatchBranchTest, DuplicateAnswersCountOnce) {
  auto plan = std::make_unique<FaultPlan>();
  plan->set_duplicate_probability(1.0);
  net_.network()->SetFaultPlan(std::move(plan));

  int batches = 0;
  GridVinePeer::QueryOptions opts;
  opts.on_answer = [&batches](const std::string&, size_t, SimTime) {
    ++batches;
  };
  auto res = net_.SearchFor(1, DataAtPeer0(), opts);
  ASSERT_TRUE(res.status.ok()) << res.status;
  EXPECT_EQ(res.items.size(), 1u);
  EXPECT_EQ(batches, 1);

  auto cres = net_.SearchForConjunctive(1, BindJoinToPeer0());
  ASSERT_TRUE(cres.status.ok()) << cres.status;
  EXPECT_EQ(cres.rows.size(), 1u);
  EXPECT_EQ(cres.metrics.bind_joins, 1u);
  EXPECT_EQ(cres.metrics.scan_rows, 1u);
  EXPECT_EQ(cres.metrics.bound_rows, 1u);
  EXPECT_GT(net_.network()->stats().messages_duplicated, 0u);
  ExpectDrained();
}

TEST_F(DispatchBranchTest, BindJoinRetriesOnce) {
  Partition(1.0);
  auto res = net_.SearchForConjunctive(1, BindJoinToPeer0());
  ASSERT_TRUE(res.status.ok()) << res.status;
  ASSERT_EQ(res.rows.size(), 1u);
  EXPECT_EQ(res.rows[0].at("x").value(), "z:1");
  EXPECT_EQ(res.rows[0].at("y").value(), "row");
  EXPECT_EQ(res.metrics.remote_scans, 1u);
  EXPECT_EQ(res.metrics.bind_joins, 1u);
  EXPECT_GT(res.latency, 2.0);
  ExpectDrained();
}

TEST_F(DispatchBranchTest, BindJoinExhaustionIsTimeout) {
  Partition(100.0);
  auto res = net_.SearchForConjunctive(1, BindJoinToPeer0());
  EXPECT_TRUE(res.status.IsTimeout()) << res.status;
  EXPECT_TRUE(res.rows.empty());
  EXPECT_GE(res.latency, ExhaustedAtLeast());
  EXPECT_LE(res.latency, ExhaustedAtMost());
  ExpectDrained();
}

TEST_F(DispatchBranchTest, TracedBoundScanRetryIsBookedAsRetry) {
  Partition(1.0);
  net_.tracer()->Enable();
  auto res = net_.SearchForConjunctive(1, BindJoinToPeer0());
  ASSERT_TRUE(res.status.ok()) << res.status;
  ASSERT_EQ(res.rows.size(), 1u);

  TraceAnalyzer ta(net_.tracer()->Snapshot());
  EXPECT_EQ(ta.CheckConsistency(), "");
  EXPECT_EQ(ta.OpenCount(), 0u);
  EXPECT_EQ(CountUnder(ta, res.trace_id, "op.retry", "op.bound_scan"), 1u);
  EXPECT_EQ(CountUnder(ta, res.trace_id, "op.backoff", "op.bound_scan"), 1u);
  // The first attempt's window is waiting for a retry, not peer work.
  TraceAnalyzer::CriticalPath cp = ta.CriticalPathFor(res.trace_id);
  EXPECT_GT(cp.retry, 2.0);
  EXPECT_LT(cp.compute, 0.05);
}

}  // namespace
}  // namespace gridvine
