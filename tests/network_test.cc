#include "sim/network.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/trace.h"
#include "sim/fault_plan.h"
#include "sim/sharded.h"

namespace gridvine {
namespace {

struct TestMsg : MessageBody {
  explicit TestMsg(int v) : value(v) {}
  int value;
  MsgType TypeTag() const override {
    static const MsgType t = MsgType::Intern("test");
    return t;
  }
  size_t SizeBytes() const override { return 10; }
};

class Recorder : public NetworkNode {
 public:
  void OnMessage(NodeId from, std::shared_ptr<const MessageBody> body) override {
    received.push_back({from, dynamic_cast<const TestMsg*>(body.get())->value});
  }
  std::vector<std::pair<NodeId, int>> received;
};

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest()
      : net_(&sim_, std::make_unique<ConstantLatency>(0.1), Rng(7)) {}

  Simulator sim_;
  Network net_;
};

TEST_F(NetworkTest, DeliversAfterLatency) {
  Recorder a, b;
  NodeId ida = net_.AddNode(&a);
  NodeId idb = net_.AddNode(&b);
  net_.Send(ida, idb, std::make_shared<TestMsg>(42));
  EXPECT_TRUE(b.received.empty());
  sim_.Run();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].first, ida);
  EXPECT_EQ(b.received[0].second, 42);
  EXPECT_DOUBLE_EQ(sim_.Now(), 0.1);
}

TEST_F(NetworkTest, SelfSendWorks) {
  Recorder a;
  NodeId ida = net_.AddNode(&a);
  net_.Send(ida, ida, std::make_shared<TestMsg>(1));
  sim_.Run();
  EXPECT_EQ(a.received.size(), 1u);
}

TEST_F(NetworkTest, DropsToDeadNode) {
  Recorder a, b;
  NodeId ida = net_.AddNode(&a);
  NodeId idb = net_.AddNode(&b);
  net_.SetAlive(idb, false);
  net_.Send(ida, idb, std::make_shared<TestMsg>(1));
  sim_.Run();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(net_.stats().messages_dropped, 1u);
}

TEST_F(NetworkTest, DeadSenderSendsNothing) {
  Recorder a, b;
  NodeId ida = net_.AddNode(&a);
  NodeId idb = net_.AddNode(&b);
  net_.SetAlive(ida, false);
  net_.Send(ida, idb, std::make_shared<TestMsg>(1));
  sim_.Run();
  EXPECT_TRUE(b.received.empty());
}

TEST_F(NetworkTest, DropsIfNodeDiesInFlight) {
  Recorder a, b;
  NodeId ida = net_.AddNode(&a);
  NodeId idb = net_.AddNode(&b);
  net_.Send(ida, idb, std::make_shared<TestMsg>(1));
  // Kill the destination before the 0.1s delivery fires.
  sim_.Schedule(0.05, [&] { net_.SetAlive(idb, false); });
  sim_.Run();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(net_.stats().messages_dropped, 1u);
}

TEST_F(NetworkTest, RevivedNodeReceivesAgain) {
  Recorder a, b;
  NodeId ida = net_.AddNode(&a);
  NodeId idb = net_.AddNode(&b);
  net_.SetAlive(idb, false);
  net_.SetAlive(idb, true);
  net_.Send(ida, idb, std::make_shared<TestMsg>(5));
  sim_.Run();
  EXPECT_EQ(b.received.size(), 1u);
}

TEST_F(NetworkTest, StatsAccounting) {
  Recorder a, b;
  NodeId ida = net_.AddNode(&a);
  NodeId idb = net_.AddNode(&b);
  net_.Send(ida, idb, std::make_shared<TestMsg>(1));
  net_.Send(ida, idb, std::make_shared<TestMsg>(2));
  sim_.Run();
  EXPECT_EQ(net_.stats().messages_sent, 2u);
  EXPECT_EQ(net_.stats().messages_delivered, 2u);
  EXPECT_EQ(net_.stats().bytes_sent, 20u);
  EXPECT_EQ(net_.stats().MessagesForType("test"), 2u);
  EXPECT_EQ(net_.stats().BytesForType("test"), 20u);
  EXPECT_EQ(net_.stats().MessagesByTypeName().at("test"), 2u);
  const_cast<Network&>(net_).ResetStats();
  EXPECT_EQ(net_.stats().messages_sent, 0u);
}

// Pins the drop-accounting contract documented on NetworkStats: the *_sent
// counters (total, bytes, per-type) are recorded at Send() time and include
// every message later dropped, while delivered + dropped partitions sent.
TEST_F(NetworkTest, SentCountersIncludeDropsOfEveryKind) {
  Recorder a, b;
  NodeId ida = net_.AddNode(&a);
  NodeId idb = net_.AddNode(&b);

  net_.Send(ida, idb, std::make_shared<TestMsg>(1));  // delivered
  sim_.Run();
  net_.SetAlive(idb, false);
  net_.Send(ida, idb, std::make_shared<TestMsg>(2));  // dropped at send
  sim_.Run();
  net_.SetAlive(idb, true);
  net_.Send(ida, idb, std::make_shared<TestMsg>(3));  // dropped in flight
  net_.SetAlive(idb, false);
  sim_.Run();

  const NetworkStats& s = net_.stats();
  EXPECT_EQ(s.messages_sent, 3u);
  EXPECT_EQ(s.messages_delivered, 1u);
  EXPECT_EQ(s.messages_dropped, 2u);
  EXPECT_EQ(s.messages_sent, s.messages_delivered + s.messages_dropped);
  // Per-type and byte counters follow messages_sent, not messages_delivered.
  EXPECT_EQ(s.MessagesForType("test"), 3u);
  EXPECT_EQ(s.BytesForType("test"), 30u);
  EXPECT_EQ(s.bytes_sent, 30u);
}

TEST_F(NetworkTest, TypeAccessorsForUnknownTypesReturnZero) {
  EXPECT_EQ(net_.stats().MessagesForType("no.such.type"), 0u);
  EXPECT_EQ(net_.stats().BytesForType("no.such.type"), 0u);
  EXPECT_TRUE(net_.stats().MessagesByTypeName().empty());
}

TEST(NetworkLossTest, LossyNetworkDropsSomeMessages) {
  Simulator sim;
  Network net(&sim, std::make_unique<ConstantLatency>(0.01), Rng(3),
              /*loss_probability=*/0.5);
  Recorder a, b;
  NodeId ida = net.AddNode(&a);
  NodeId idb = net.AddNode(&b);
  for (int i = 0; i < 200; ++i) net.Send(ida, idb, std::make_shared<TestMsg>(i));
  sim.Run();
  EXPECT_GT(b.received.size(), 50u);
  EXPECT_LT(b.received.size(), 150u);
}

TEST(LatencyModelTest, UniformWithinBounds) {
  Rng rng(11);
  UniformLatency lat(0.2, 0.4);
  for (int i = 0; i < 100; ++i) {
    double s = lat.Sample(&rng);
    EXPECT_GE(s, 0.2);
    EXPECT_LT(s, 0.4);
  }
}

TEST(LatencyModelTest, WanLatencyAboveBase) {
  Rng rng(11);
  WanLatency lat(0.015);
  double sum = 0;
  for (int i = 0; i < 1000; ++i) {
    double s = lat.Sample(&rng);
    EXPECT_GT(s, 0.015);
    sum += s;
  }
  // Mean one-way delay lands in a plausible WAN band.
  EXPECT_GT(sum / 1000, 0.03);
  EXPECT_LT(sum / 1000, 0.3);
}

// ChurnModel itself is covered in tests/churn_test.cc; the fault-plan tests
// below exercise the injection hooks Network consults on every Send().

TEST_F(NetworkTest, PartitionDropsBothWaysWithAttribution) {
  Recorder a, b, c;
  NodeId ida = net_.AddNode(&a);
  NodeId idb = net_.AddNode(&b);
  NodeId idc = net_.AddNode(&c);

  auto plan = std::make_unique<FaultPlan>();
  FaultPlan::Partition part;
  part.start = 0.0;
  part.end = 10.0;
  part.group_a = {ida};
  part.group_b = {idb};
  plan->AddPartition(part);
  net_.SetFaultPlan(std::move(plan));

  net_.Send(ida, idb, std::make_shared<TestMsg>(1));  // dropped a→b
  net_.Send(idb, ida, std::make_shared<TestMsg>(2));  // dropped b→a
  net_.Send(ida, idc, std::make_shared<TestMsg>(3));  // c unaffected
  sim_.Run();
  EXPECT_TRUE(b.received.empty());
  EXPECT_TRUE(a.received.empty());
  EXPECT_EQ(c.received.size(), 1u);
  EXPECT_EQ(net_.stats().drops_partition, 2u);
  EXPECT_EQ(net_.stats().messages_dropped, 2u);
  EXPECT_EQ(net_.stats().DropsForType("test"), 2u);

  // Outside the window the same pair communicates again.
  sim_.Schedule(11.0, [&] { net_.Send(ida, idb, std::make_shared<TestMsg>(4)); });
  sim_.Run();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].second, 4);
}

TEST_F(NetworkTest, LossBurstDropsInsideTheWindowOnly) {
  Recorder a, b;
  NodeId ida = net_.AddNode(&a);
  NodeId idb = net_.AddNode(&b);

  auto plan = std::make_unique<FaultPlan>();
  FaultPlan::LossBurst burst;
  burst.start = 0.0;
  burst.end = 5.0;
  burst.probability = 1.0;  // certain drop inside the window
  plan->AddLossBurst(burst);
  net_.SetFaultPlan(std::move(plan));

  for (int i = 0; i < 10; ++i) {
    net_.Send(ida, idb, std::make_shared<TestMsg>(i));  // all inside
  }
  sim_.Schedule(6.0, [&] { net_.Send(ida, idb, std::make_shared<TestMsg>(99)); });
  sim_.Run();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].second, 99);
  EXPECT_EQ(net_.stats().drops_burst, 10u);
  EXPECT_EQ(net_.stats().messages_dropped, 10u);
}

TEST_F(NetworkTest, DuplicationDeliversTwiceAndKeepsConservation) {
  Recorder a, b;
  NodeId ida = net_.AddNode(&a);
  NodeId idb = net_.AddNode(&b);

  auto plan = std::make_unique<FaultPlan>();
  plan->set_duplicate_probability(1.0);
  net_.SetFaultPlan(std::move(plan));

  for (int i = 0; i < 5; ++i) {
    net_.Send(ida, idb, std::make_shared<TestMsg>(i));
  }
  sim_.Run();
  const NetworkStats& s = net_.stats();
  EXPECT_EQ(b.received.size(), 10u);
  EXPECT_EQ(s.messages_sent, 5u);
  EXPECT_EQ(s.messages_duplicated, 5u);
  EXPECT_EQ(s.messages_sent + s.messages_duplicated,
            s.messages_delivered + s.messages_dropped);
}

TEST_F(NetworkTest, DuplicateCopyCanStillDieInFlight) {
  Recorder a, b;
  NodeId ida = net_.AddNode(&a);
  NodeId idb = net_.AddNode(&b);

  auto plan = std::make_unique<FaultPlan>();
  plan->set_duplicate_probability(1.0);
  net_.SetFaultPlan(std::move(plan));

  net_.Send(ida, idb, std::make_shared<TestMsg>(1));
  // Kill the destination before either copy's delivery fires: both copies
  // drop in flight, attributed to the endpoint.
  sim_.Schedule(0.01, [&] { net_.SetAlive(idb, false); });
  sim_.Run();
  const NetworkStats& s = net_.stats();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(s.messages_duplicated, 1u);
  EXPECT_EQ(s.drops_endpoint, s.messages_dropped);
  EXPECT_EQ(s.messages_sent + s.messages_duplicated,
            s.messages_delivered + s.messages_dropped);
}

TEST_F(NetworkTest, LatencySpikeDelaysDeliveriesInsideTheWindow) {
  Recorder a, b;
  NodeId ida = net_.AddNode(&a);
  NodeId idb = net_.AddNode(&b);

  auto plan = std::make_unique<FaultPlan>();
  FaultPlan::LatencySpike spike;
  spike.start = 0.0;
  spike.end = 1.0;
  spike.extra = 0.5;
  spike.extra_mean_tail = 0;  // deterministic extra
  plan->AddLatencySpike(spike);
  net_.SetFaultPlan(std::move(plan));

  net_.Send(ida, idb, std::make_shared<TestMsg>(1));
  sim_.Run();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_DOUBLE_EQ(sim_.Now(), 0.6);  // 0.1 base + 0.5 spike

  // A send after the window pays only base latency again.
  sim_.ScheduleAt(2.0, [&] { net_.Send(ida, idb, std::make_shared<TestMsg>(2)); });
  sim_.Run();
  EXPECT_DOUBLE_EQ(sim_.Now(), 2.1);
}

// The hot-path contract on FaultPlan: an installed-but-idle plan draws
// nothing from the network Rng, so a seeded lossy run is unchanged by it.
TEST(FaultPlanTest, IdlePlanDoesNotPerturbASeededRun) {
  auto run = [](bool with_plan) {
    Simulator sim;
    Network net(&sim, std::make_unique<ConstantLatency>(0.01), Rng(3),
                /*loss_probability=*/0.5);
    if (with_plan) {
      auto plan = std::make_unique<FaultPlan>();
      FaultPlan::LossBurst burst;  // window far in the future: never covers
      burst.start = 1e6;
      burst.end = 1e6 + 1;
      plan->AddLossBurst(burst);
      net.SetFaultPlan(std::move(plan));
    }
    Recorder a, b;
    NodeId ida = net.AddNode(&a);
    NodeId idb = net.AddNode(&b);
    for (int i = 0; i < 200; ++i) {
      net.Send(ida, idb, std::make_shared<TestMsg>(i));
    }
    sim.Run();
    return net.stats();
  };
  EXPECT_TRUE(run(false) == run(true));
}

// --- Transport parity: one send and delivery policy on both engines --------

/// One engine behind one test interface: the classic Network (shards == 0) or
/// a ShardedNetwork whose lanes carry the traffic. Sharded mid-run liveness
/// flips go through ScheduleGlobal, the engine's quiescent-point hook.
class Transport {
 public:
  explicit Transport(uint32_t shards, double loss = 0.0) {
    if (shards == 0) {
      net_ = std::make_unique<Network>(
          &sim_, std::make_unique<ConstantLatency>(0.1), Rng(7), loss);
      tracer_.SetClock([this] { return sim_.Now(); });
      net_->SetTracer(&tracer_);
    } else {
      ShardedNetwork::Options o;
      o.shards = shards;
      o.seed = 7;
      o.loss_probability = loss;
      o.latency = std::make_unique<ConstantLatency>(0.1);
      engine_ = std::make_unique<ShardedNetwork>(std::move(o));
    }
  }

  NodeId Add(NetworkNode* node) {
    return engine_ ? engine_->AddNode(node) : net_->AddNode(node);
  }
  void SetAlive(NodeId id, bool alive) {
    engine_ ? engine_->SetAlive(id, alive) : net_->SetAlive(id, alive);
  }
  void SetFaultPlan(std::unique_ptr<FaultPlan> plan) {
    engine_ ? engine_->SetFaultPlan(std::move(plan))
            : net_->SetFaultPlan(std::move(plan));
  }

  /// Sends now, as `from` (the sharded engine draws from its stream).
  void Send(NodeId from, NodeId to, int value, TraceCtx ctx = {}) {
    auto body = std::make_shared<TestMsg>(value);
    body->trace_ctx = ctx;
    if (engine_) {
      engine_->RunAsNode(from,
                         [&] { engine_->LaneFor(from)->Send(from, to, body); });
    } else {
      net_->Send(from, to, body);
    }
  }
  /// Sends at absolute time `t`, from one of `from`'s own events.
  void SendAt(SimTime t, NodeId from, NodeId to, int value) {
    auto send = [this, from, to, value] {
      Network* net = engine_ ? engine_->LaneFor(from) : net_.get();
      net->Send(from, to, std::make_shared<TestMsg>(value));
    };
    if (engine_) {
      engine_->ScheduleForNode(from, t - engine_->Now(), send);
    } else {
      sim_.ScheduleAt(t, send);
    }
  }
  /// Takes `id` down at absolute time `t`.
  void KillAt(SimTime t, NodeId id) {
    if (engine_) {
      engine_->ScheduleGlobal(t, [this, id] { engine_->SetAlive(id, false); });
    } else {
      sim_.ScheduleAt(t, [this, id] { net_->SetAlive(id, false); });
    }
  }

  void Run() { engine_ ? void(engine_->RunUntilIdle()) : void(sim_.Run()); }
  SimTime Now() const { return engine_ ? engine_->Now() : sim_.Now(); }
  NetworkStats stats() const {
    return engine_ ? engine_->AggregateStats() : net_->stats();
  }

  void EnableTracing() {
    engine_ ? engine_->EnableTracing() : tracer_.Enable();
  }
  /// A trace root for traced sends (on shard 0's ring when sharded).
  TraceCtx Root() {
    return engine_ ? engine_->TracerForShard(0)->StartTrace("root")
                   : tracer_.StartTrace("root");
  }
  /// The flight spans ("test" messages) recorded on every ring.
  std::vector<Tracer::Span> Flights() {
    std::vector<Tracer*> rings{&tracer_};
    if (engine_) rings = engine_->TracerParts();
    std::vector<Tracer::Span> out;
    for (Tracer* t : rings) {
      for (const Tracer::Span& s : t->Snapshot()) {
        if (s.name == "test") out.push_back(s);
      }
    }
    return out;
  }
  /// The ring that records spans opened by `id`'s sends.
  Tracer* RingOf(NodeId id) {
    return engine_ ? engine_->TracerForShard(engine_->OwnerShard(id))
                   : &tracer_;
  }

 private:
  Simulator sim_;
  Tracer tracer_;
  std::unique_ptr<Network> net_;
  std::unique_ptr<ShardedNetwork> engine_;
};

std::string Annotation(const Tracer::Span& span, std::string_view key) {
  for (const auto& a : span.annotations) {
    if (a.key == key) return a.is_number ? std::to_string(a.number) : a.text;
  }
  return "";
}

/// The NetworkTest fault cases above, on shard lanes: same expected counts
/// and times as the classic network.
class TransportParityTest : public ::testing::TestWithParam<uint32_t> {
 protected:
  TransportParityTest() : t_(GetParam()) {}
  Transport t_;
};

/// Flight-span checks, on every engine.
class FlightSpanTest : public TransportParityTest {};

TEST_P(TransportParityTest, DeadSenderSendsNothing) {
  Recorder a, b;
  NodeId ida = t_.Add(&a);
  NodeId idb = t_.Add(&b);
  t_.SetAlive(ida, false);
  t_.Send(ida, idb, 1);
  t_.Run();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(t_.stats().drops_endpoint, 1u);
  EXPECT_EQ(t_.stats().messages_dropped, 1u);
}

TEST_P(TransportParityTest, DropsToDeadNode) {
  Recorder a, b;
  NodeId ida = t_.Add(&a);
  NodeId idb = t_.Add(&b);
  t_.SetAlive(idb, false);
  t_.Send(ida, idb, 1);
  t_.Run();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(t_.stats().drops_endpoint, 1u);
  EXPECT_EQ(t_.stats().messages_dropped, 1u);
}

TEST_P(TransportParityTest, DropsIfNodeDiesInFlight) {
  Recorder a, b;
  NodeId ida = t_.Add(&a);
  NodeId idb = t_.Add(&b);
  t_.Send(ida, idb, 1);
  t_.KillAt(0.05, idb);  // before the 0.1 s delivery fires
  t_.Run();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(t_.stats().drops_endpoint, 1u);
  EXPECT_EQ(t_.stats().messages_dropped, 1u);
  EXPECT_EQ(t_.stats().messages_delivered, 0u);
}

TEST_P(TransportParityTest, PartitionDropsBothWaysWithAttribution) {
  Recorder a, b, c;
  NodeId ida = t_.Add(&a);
  NodeId idb = t_.Add(&b);
  NodeId idc = t_.Add(&c);
  auto plan = std::make_unique<FaultPlan>();
  FaultPlan::Partition part;
  part.start = 0.0;
  part.end = 10.0;
  part.group_a = {ida};
  part.group_b = {idb};
  plan->AddPartition(part);
  t_.SetFaultPlan(std::move(plan));

  t_.Send(ida, idb, 1);  // dropped a→b
  t_.Send(idb, ida, 2);  // dropped b→a
  t_.Send(ida, idc, 3);  // c unaffected
  t_.Run();
  EXPECT_TRUE(a.received.empty());
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(c.received.size(), 1u);
  EXPECT_EQ(t_.stats().drops_partition, 2u);
  EXPECT_EQ(t_.stats().messages_dropped, 2u);
  EXPECT_EQ(t_.stats().DropsForType("test"), 2u);

  // Outside the window the same pair communicates again.
  t_.SendAt(11.0, ida, idb, 4);
  t_.Run();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].second, 4);
  EXPECT_DOUBLE_EQ(t_.Now(), 11.1);
}

TEST_P(TransportParityTest, LossBurstDropsInsideTheWindowOnly) {
  Recorder a, b;
  NodeId ida = t_.Add(&a);
  NodeId idb = t_.Add(&b);
  auto plan = std::make_unique<FaultPlan>();
  plan->AddLossBurst({/*start=*/0.0, /*end=*/5.0, /*probability=*/1.0});
  t_.SetFaultPlan(std::move(plan));

  for (int i = 0; i < 10; ++i) t_.Send(ida, idb, i);  // all inside
  t_.SendAt(6.0, ida, idb, 99);
  t_.Run();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].second, 99);
  EXPECT_EQ(t_.stats().drops_burst, 10u);
  EXPECT_EQ(t_.stats().messages_dropped, 10u);
}

TEST_P(TransportParityTest, DuplicationDeliversTwiceAndKeepsConservation) {
  Recorder a, b;
  NodeId ida = t_.Add(&a);
  NodeId idb = t_.Add(&b);
  auto plan = std::make_unique<FaultPlan>();
  plan->set_duplicate_probability(1.0);
  t_.SetFaultPlan(std::move(plan));

  for (int i = 0; i < 5; ++i) t_.Send(ida, idb, i);
  t_.Run();
  const NetworkStats s = t_.stats();
  EXPECT_EQ(b.received.size(), 10u);
  EXPECT_EQ(s.messages_sent, 5u);
  EXPECT_EQ(s.messages_duplicated, 5u);
  EXPECT_EQ(s.messages_delivered, 10u);
  EXPECT_EQ(s.messages_sent + s.messages_duplicated,
            s.messages_delivered + s.messages_dropped);
}

TEST_P(TransportParityTest, DuplicateCopyCanStillDieInFlight) {
  Recorder a, b;
  NodeId ida = t_.Add(&a);
  NodeId idb = t_.Add(&b);
  auto plan = std::make_unique<FaultPlan>();
  plan->set_duplicate_probability(1.0);
  t_.SetFaultPlan(std::move(plan));

  t_.Send(ida, idb, 1);
  t_.KillAt(0.01, idb);  // both copies are still in flight
  t_.Run();
  const NetworkStats s = t_.stats();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(s.messages_duplicated, 1u);
  EXPECT_EQ(s.drops_endpoint, 2u);
  EXPECT_EQ(s.messages_dropped, 2u);
  EXPECT_EQ(s.messages_sent + s.messages_duplicated,
            s.messages_delivered + s.messages_dropped);
}

TEST_P(TransportParityTest, LatencySpikeDelaysDeliveriesInsideTheWindow) {
  Recorder a, b;
  NodeId ida = t_.Add(&a);
  NodeId idb = t_.Add(&b);
  auto plan = std::make_unique<FaultPlan>();
  plan->AddLatencySpike({/*start=*/0.0, /*end=*/1.0, /*extra=*/0.5,
                         /*extra_mean_tail=*/0.0});
  t_.SetFaultPlan(std::move(plan));

  t_.Send(ida, idb, 1);
  t_.Run();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_DOUBLE_EQ(t_.Now(), 0.6);  // 0.1 base + 0.5 spike

  // A send after the window pays only base latency again.
  t_.SendAt(2.0, ida, idb, 2);
  t_.Run();
  ASSERT_EQ(b.received.size(), 2u);
  EXPECT_DOUBLE_EQ(t_.Now(), 2.1);
}

TEST_P(FlightSpanTest, DroppedFlightSpanIsClosedWithItsCause) {
  enum Fault { kDeadDestination, kBaseLoss, kBurst, kPartition };
  const std::pair<Fault, std::string> cases[] = {{kDeadDestination, "endpoint"},
                                                 {kBaseLoss, "loss"},
                                                 {kBurst, "burst"},
                                                 {kPartition, "partition"}};
  for (const auto& [fault, cause] : cases) {
    SCOPED_TRACE(cause);
    Transport t(GetParam(), /*loss=*/fault == kBaseLoss ? 1.0 : 0.0);
    Recorder a, b;
    NodeId ida = t.Add(&a);
    NodeId idb = t.Add(&b);
    auto plan = std::make_unique<FaultPlan>();
    if (fault == kDeadDestination) t.SetAlive(idb, false);
    if (fault == kBurst) plan->AddLossBurst({0.0, 1.0, 1.0});
    if (fault == kPartition) {
      FaultPlan::Partition part;
      part.start = 0.0;
      part.end = 1.0;
      part.group_a = {ida};
      part.group_b = {idb};
      plan->AddPartition(part);
    }
    t.SetFaultPlan(std::move(plan));
    t.EnableTracing();
    t.Send(ida, idb, 1, t.Root());
    t.Run();

    EXPECT_EQ(t.stats().messages_dropped, 1u);
    std::vector<Tracer::Span> flights = t.Flights();
    ASSERT_EQ(flights.size(), 1u);
    EXPECT_EQ(Annotation(flights[0], "drop"), cause);
    EXPECT_DOUBLE_EQ(flights[0].end, 0.0);  // closed at send time
  }
}

TEST_P(FlightSpanTest, DuplicateFlightSpanIsAChildOfTheOriginal) {
  Recorder a, b;
  NodeId ida = t_.Add(&a);
  NodeId idb = t_.Add(&b);
  auto plan = std::make_unique<FaultPlan>();
  plan->set_duplicate_probability(1.0);
  t_.SetFaultPlan(std::move(plan));
  t_.EnableTracing();
  const TraceCtx root = t_.Root();
  t_.Send(ida, idb, 1, root);
  t_.Run();

  EXPECT_EQ(b.received.size(), 2u);
  std::vector<Tracer::Span> flights = t_.Flights();
  ASSERT_EQ(flights.size(), 2u);
  const bool first_is_dup = !Annotation(flights[0], "duplicate").empty();
  const Tracer::Span& original = flights[first_is_dup ? 1 : 0];
  const Tracer::Span& dup = flights[first_is_dup ? 0 : 1];
  EXPECT_EQ(original.parent_id, root.span_id);
  EXPECT_EQ(Annotation(original, "duplicate"), "");
  EXPECT_EQ(dup.parent_id, original.span_id);
  EXPECT_EQ(dup.trace_id, original.trace_id);
  EXPECT_EQ(Annotation(dup, "duplicate"), std::to_string(1.0));
  EXPECT_DOUBLE_EQ(original.end, 0.1);
  EXPECT_DOUBLE_EQ(dup.end, 0.1);
}

TEST_P(FlightSpanTest, FlightToNodeThatDiesInFlightClosesOnSendersRing) {
  // With two shards, node 0 and node 1 live on different shards: the flight
  // opens on node 0's ring, and the drop observed on node 1's shard is
  // handed back across the barrier to close it there.
  Recorder a, b;
  NodeId ida = t_.Add(&a);
  NodeId idb = t_.Add(&b);
  t_.EnableTracing();
  t_.Send(ida, idb, 1, t_.Root());
  t_.KillAt(0.05, idb);
  t_.Run();

  EXPECT_EQ(t_.stats().drops_endpoint, 1u);
  std::vector<Tracer::Span> flights = t_.Flights();
  ASSERT_EQ(flights.size(), 1u);
  EXPECT_EQ(Annotation(flights[0], "drop"), "endpoint");
  EXPECT_DOUBLE_EQ(flights[0].end, 0.1);  // the delivery time, not the barrier
  size_t on_sender_ring = 0;
  for (const Tracer::Span& s : t_.RingOf(ida)->Snapshot()) {
    if (s.span_id == flights[0].span_id) ++on_sender_ring;
  }
  EXPECT_EQ(on_sender_ring, 1u);
}

std::string EngineName(const ::testing::TestParamInfo<uint32_t>& info) {
  return info.param == 0 ? std::string("Classic")
                         : "Shards" + std::to_string(info.param);
}

INSTANTIATE_TEST_SUITE_P(Lanes, TransportParityTest, ::testing::Values(1u, 2u),
                         EngineName);
INSTANTIATE_TEST_SUITE_P(Engines, FlightSpanTest, ::testing::Values(0u, 1u, 2u),
                         EngineName);

}  // namespace
}  // namespace gridvine
