#include "sim/network.h"

#include <gtest/gtest.h>

#include <cmath>
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

/// One engine behind one test interface: the classic Network over a
/// Simulator (keyed == false) or the content-keyed ShardedNetwork. Keyed
/// mid-run liveness flips go through ScheduleGlobal.
class Transport {
 public:
  explicit Transport(bool keyed, double loss = 0.0) {
    if (keyed) {
      ShardedNetwork::Options o;
      o.seed = 7;
      o.loss_probability = loss;
      o.latency = std::make_unique<ConstantLatency>(0.1);
      auto engine = std::make_unique<ShardedNetwork>(std::move(o));
      engine_ = engine.get();
      net_ = std::move(engine);
    } else {
      net_ = std::make_unique<Network>(
          &sim_, std::make_unique<ConstantLatency>(0.1), Rng(7), loss);
      tracer_.SetClock([this] { return sim_.Now(); });
      net_->SetTracer(&tracer_);
    }
  }

  NodeId Add(NetworkNode* node) { return net_->AddNode(node); }
  void SetAlive(NodeId id, bool alive) { net_->SetAlive(id, alive); }
  void SetFaultPlan(std::unique_ptr<FaultPlan> plan) {
    net_->SetFaultPlan(std::move(plan));
  }

  /// Sends now, as `from` (the keyed engine draws from its stream).
  void Send(NodeId from, NodeId to, int value, TraceCtx ctx = {}) {
    auto body = std::make_shared<TestMsg>(value);
    body->trace_ctx = ctx;
    if (engine_) {
      engine_->RunAsNode(from, [&] { net_->Send(from, to, body); });
    } else {
      net_->Send(from, to, body);
    }
  }
  /// Sends at absolute time `t`, from one of `from`'s own events.
  void SendAt(SimTime t, NodeId from, NodeId to, int value) {
    auto send = [this, from, to, value] {
      net_->Send(from, to, std::make_shared<TestMsg>(value));
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
      engine_->ScheduleGlobal(t, [this, id] { net_->SetAlive(id, false); });
    } else {
      sim_.ScheduleAt(t, [this, id] { net_->SetAlive(id, false); });
    }
  }

  void Run() { engine_ ? void(engine_->RunUntilIdle()) : void(sim_.Run()); }
  SimTime Now() const { return engine_ ? engine_->Now() : sim_.Now(); }
  NetworkStats stats() const { return net_->stats(); }

  /// The transport's span ring: ours on the classic network, the engine's
  /// own on the keyed one.
  Tracer* ring() { return net_->tracer(); }
  /// The flight spans ("test" messages) recorded.
  std::vector<Tracer::Span> Flights() {
    std::vector<Tracer::Span> out;
    for (const Tracer::Span& s : ring()->Snapshot()) {
      if (s.name == "test") out.push_back(s);
    }
    return out;
  }

 private:
  Simulator sim_;
  Tracer tracer_;
  std::unique_ptr<Network> net_;
  ShardedNetwork* engine_ = nullptr;  // net_, when keyed
};

std::string Annotation(const Tracer::Span& span, std::string_view key) {
  for (const auto& a : span.annotations) {
    if (a.key == key) return a.is_number ? std::to_string(a.number) : a.text;
  }
  return "";
}

/// The NetworkTest fault cases above, on the keyed engine: same expected
/// counts and times as the classic network. The parameter is 0 for the
/// classic network and 1 for the keyed engine.
class TransportParityTest : public ::testing::TestWithParam<uint32_t> {
 protected:
  TransportParityTest() : t_(GetParam() != 0) {}
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
    Transport t(GetParam() != 0, /*loss=*/fault == kBaseLoss ? 1.0 : 0.0);
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
    t.ring()->Enable();
    t.Send(ida, idb, 1, t.ring()->StartTrace("root"));
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
  t_.ring()->Enable();
  const TraceCtx root = t_.ring()->StartTrace("root");
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
  // The drop is observed at delivery time, on the ring the flight opened on.
  Recorder a, b;
  NodeId ida = t_.Add(&a);
  NodeId idb = t_.Add(&b);
  t_.ring()->Enable();
  t_.Send(ida, idb, 1, t_.ring()->StartTrace("root"));
  t_.KillAt(0.05, idb);
  t_.Run();

  EXPECT_EQ(t_.stats().drops_endpoint, 1u);
  std::vector<Tracer::Span> flights = t_.Flights();
  ASSERT_EQ(flights.size(), 1u);
  EXPECT_EQ(Annotation(flights[0], "drop"), "endpoint");
  EXPECT_DOUBLE_EQ(flights[0].end, 0.1);  // the delivery time
}

// "Shards1" names the keyed engine, as it did when the engine had shards.
std::string EngineName(const ::testing::TestParamInfo<uint32_t>& info) {
  return info.param == 0 ? "Classic" : "Shards1";
}

INSTANTIATE_TEST_SUITE_P(Lanes, TransportParityTest, ::testing::Values(1u),
                         EngineName);
INSTANTIATE_TEST_SUITE_P(Engines, FlightSpanTest, ::testing::Values(0u, 1u),
                         EngineName);

// --- The keyed engine's run loop --------------------------------------------

/// A keyed engine with two recorder nodes, 0.1 s apart.
class ShardedRunLoopTest : public ::testing::Test {
 protected:
  ShardedRunLoopTest() : engine_(Options()) {
    a_ = engine_.AddNode(&ra_);
    b_ = engine_.AddNode(&rb_);
  }
  static ShardedNetwork::Options Options() {
    ShardedNetwork::Options o;
    o.seed = 3;
    o.latency = std::make_unique<ConstantLatency>(0.1);
    return o;
  }

  ShardedNetwork engine_;
  Recorder ra_, rb_;
  NodeId a_ = 0, b_ = 0;
};

TEST_F(ShardedRunLoopTest, NothingRunsAfterTheFlagFlips) {
  bool done = false;
  std::vector<std::string> ran;
  engine_.ScheduleForNode(a_, 1.0, [&] {
    ran.push_back("flip");
    done = true;
  });
  // Due at the same instant (a later key) and just after it: both within
  // any lookahead window, neither may run before the pump is resumed.
  engine_.ScheduleForNode(a_, 1.0, [&] { ran.push_back("same"); });
  engine_.ScheduleForNode(b_, 1.001, [&] { ran.push_back("after"); });
  EXPECT_EQ(engine_.RunUntilFlag(&done), 1u);
  EXPECT_EQ(ran, (std::vector<std::string>{"flip"}));
  EXPECT_DOUBLE_EQ(engine_.Now(), 1.0);
  EXPECT_EQ(engine_.pending(), 2u);
  engine_.RunUntilIdle();
  EXPECT_EQ(ran, (std::vector<std::string>{"flip", "same", "after"}));
}

TEST_F(ShardedRunLoopTest, SetAliveInsideAnEventDropsADeliveryInFlight) {
  engine_.RunAsNode(a_, [&] {
    engine_.Send(a_, b_, std::make_shared<TestMsg>(1));  // lands at 0.1
  });
  engine_.ScheduleForNode(a_, 0.05, [&] { engine_.SetAlive(b_, false); });
  engine_.RunUntilIdle();
  EXPECT_TRUE(rb_.received.empty());
  EXPECT_EQ(engine_.stats().drops_endpoint, 1u);
  EXPECT_EQ(engine_.stats().messages_delivered, 0u);
}

TEST_F(ShardedRunLoopTest, GlobalTaskRunsBeforeNodeEventsAtItsTime) {
  std::vector<std::string> ran;
  engine_.ScheduleForNode(a_, 2.0, [&] { ran.push_back("node"); });
  engine_.ScheduleGlobal(2.0, [&] {
    ran.push_back("global@" + std::to_string(engine_.Now()));
  });
  engine_.ScheduleForNode(b_, 1.5, [&] { ran.push_back("earlier"); });
  engine_.RunUntilIdle();
  EXPECT_EQ(ran, (std::vector<std::string>{"earlier", "global@2.000000",
                                           "node"}));
}

TEST_F(ShardedRunLoopTest, RunUntilRunsEventsAtExactlyTAndStopsThere) {
  std::vector<double> ran;
  engine_.ScheduleForNode(a_, 1.0, [&] { ran.push_back(engine_.Now()); });
  const double just_after = std::nextafter(1.0, 2.0);
  engine_.ScheduleForNode(b_, just_after, [&] { ran.push_back(engine_.Now()); });
  EXPECT_EQ(engine_.RunUntil(1.0), 1u);
  EXPECT_EQ(ran, (std::vector<double>{1.0}));
  EXPECT_EQ(engine_.Now(), 1.0);
  EXPECT_EQ(engine_.RunUntil(3.0), 1u);
  EXPECT_EQ(ran, (std::vector<double>{1.0, just_after}));
  EXPECT_EQ(engine_.Now(), 3.0);
}

}  // namespace
}  // namespace gridvine
