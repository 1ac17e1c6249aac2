// Event-engine & transport microbenchmark: events/sec through the scheduler,
// messages/sec through the transport on a delivery-heavy relay workload
// (plain and routed-envelope bodies), heap allocations per send+delivery,
// and the tracer's overhead on the relay hot path. The relay workloads
// forward a pre-built body so per-hop work is pure engine.
//
//   $ ./bench/bench_sim_micro
//   GV_BENCH_QUICK=1 shrinks iteration counts to a CI smoke run.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "bench_json.h"
#include "common/trace.h"
#include "pgrid/messages.h"
#include "sim/network.h"
#include "sim/sharded.h"
#include "sim/simulator.h"

using namespace gridvine;

// --- Allocation counter (this binary only) -----------------------------------

namespace {
size_t g_alloc_count = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_alloc_count;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// --- Workload messages -------------------------------------------------------

struct RelayMsg : MessageBody {
  MsgType TypeTag() const override {
    static const MsgType t = MsgType::Intern("bench.relay");
    return t;
  }
  size_t SizeBytes() const override { return 20; }
};

/// Real-engine relay node: forwards the SAME body around the ring until the
/// shared forward budget is spent. No per-hop body construction — the relay
/// workloads measure the engine (schedule, heap ops, delivery dispatch, type
/// accounting), not the application's message building.
class RelayNode : public NetworkNode {
 public:
  Network* net = nullptr;
  NodeId self = 0;
  NodeId next = 0;
  size_t* budget = nullptr;
  void OnMessage(NodeId, std::shared_ptr<const MessageBody> body) override {
    if (*budget > 0) {
      --*budget;
      net->Send(self, next, std::move(body));
    }
  }
};

// --- Workload drivers --------------------------------------------------------

/// Timer workload: `fanout` concurrent self-rescheduling timers, `total`
/// events altogether. Returns events/sec.
double TimerEventsPerSec(size_t fanout, size_t total) {
  Simulator sim;
  size_t fired = 0;
  struct Timer {
    Simulator* sim;
    size_t* fired;
    size_t total;
    void operator()() {
      if (++*fired < total) sim->Schedule(1.0, Timer{sim, fired, total});
    }
  };
  auto t0 = std::chrono::steady_clock::now();
  for (size_t i = 0; i < fanout; ++i) {
    sim.Schedule(1.0 + double(i) * 1e-6, Timer{&sim, &fired, total});
  }
  sim.Run();
  return double(fired) / SecondsSince(t0);
}

/// Tracer states for the overhead rows: the observability bar is that an
/// attached-but-disabled tracer costs nothing measurable on the hot path
/// (run_bench.sh gates the disabled overhead at 3%), and an enabled one
/// costs only its ring writes.
enum class TraceMode { kNoTracer, kDisabled, kEnabled };

/// Delivery workload on `net`: `chains` concurrent relay chains around a
/// `peers`-node ring, each `hops` messages long, each started with a
/// `make_body()` body; `run()` drains the engine. Returns messages/sec (wall
/// clock).
template <typename MakeBody, typename Run>
double RelayOn(Network* net, size_t peers, size_t chains, int hops,
               MakeBody make_body, Run run) {
  size_t budget = chains * size_t(hops - 1);
  std::vector<RelayNode> nodes(peers);
  for (size_t i = 0; i < peers; ++i) {
    nodes[i].self = net->AddNode(&nodes[i]);
    nodes[i].net = net;
    nodes[i].budget = &budget;
  }
  for (size_t i = 0; i < peers; ++i) nodes[i].next = NodeId((i + 1) % peers);
  auto t0 = std::chrono::steady_clock::now();
  for (size_t c = 0; c < chains; ++c) {
    net->Send(NodeId(c % peers), NodeId((c + 1) % peers), make_body());
  }
  run();
  return double(net->stats().messages_delivered) / SecondsSince(t0);
}

std::shared_ptr<const MessageBody> PlainBody() {
  return std::make_shared<RelayMsg>();
}

/// The relay on the classic engine, with the tracer in state `tm`.
double RelayMessagesPerSec(size_t peers, size_t chains, int hops,
                           TraceMode tm = TraceMode::kNoTracer) {
  Simulator sim;
  Network net(&sim, std::make_unique<ConstantLatency>(0.001), Rng(1));
  Tracer tracer;
  if (tm != TraceMode::kNoTracer) net.SetTracer(&tracer);
  if (tm == TraceMode::kEnabled) tracer.Enable(1 << 16);
  return RelayOn(&net, peers, chains, hops, PlainBody, [&] { sim.Run(); });
}

/// Routed-envelope relay: the experiments' real traffic shape. Every send
/// carries a RoutedEnvelope, so per-type accounting resolves the composite
/// wrapper/inner tag id on every hop.
double RoutedRelayMessagesPerSec(size_t peers, size_t chains, int hops) {
  Simulator sim;
  Network net(&sim, std::make_unique<ConstantLatency>(0.001), Rng(1));
  auto routed = []() -> std::shared_ptr<const MessageBody> {
    auto env = std::make_shared<RoutedEnvelope>();
    env->payload = std::make_shared<RelayMsg>();
    return env;
  };
  return RelayOn(&net, peers, chains, hops, routed, [&] { sim.Run(); });
}

/// The same relay on the content-keyed engine. Its span ring is always
/// attached, so the untraced baseline is the attached-but-disabled state;
/// `enabled` turns the ring on.
double KeyedRelayMessagesPerSec(size_t peers, size_t chains, int hops,
                                bool enabled) {
  ShardedNetwork::Options so;
  so.seed = 1;
  so.latency = std::make_unique<ConstantLatency>(0.001);
  ShardedNetwork engine(std::move(so));
  if (enabled) engine.tracer()->Enable(1 << 16);
  return RelayOn(&engine, peers, chains, hops, PlainBody,
                 [&] { engine.RunUntilIdle(); });
}

/// Allocations per send+delivery, message bodies pre-built outside the
/// counted window (the engine contract is zero allocations beyond the body).
double AllocsPerMessage(size_t count) {
  Simulator sim;
  Network net(&sim, std::make_unique<ConstantLatency>(0.001), Rng(1));
  struct Sink : NetworkNode {
    size_t got = 0;
    void OnMessage(NodeId, std::shared_ptr<const MessageBody>) override {
      ++got;
    }
  };
  Sink sink;
  NodeId a = net.AddNode(&sink);
  NodeId b = net.AddNode(&sink);
  for (size_t i = 0; i < count; ++i)
    net.Send(a, b, std::make_shared<RelayMsg>());  // warm-up
  sim.Run();
  std::vector<std::shared_ptr<const MessageBody>> bodies;
  for (size_t i = 0; i < count; ++i)
    bodies.push_back(std::make_shared<RelayMsg>());
  size_t before = g_alloc_count;
  for (auto& body : bodies) net.Send(a, b, std::move(body));
  sim.Run();
  return double(g_alloc_count - before) / double(count);
}

}  // namespace

int main(int argc, char** argv) {
  gridvine::bench::BenchJson json(argc, argv, "bench_sim_micro");
  const bool quick = std::getenv("GV_BENCH_QUICK") != nullptr;

  const size_t kTimerFanout = 1024;
  const size_t kTimerEvents = quick ? 100'000 : 4'000'000;
  const size_t kRelayPeers = 256;
  const size_t kRelayChains = 1024;
  const int kRelayHops = quick ? 100 : 2000;
  const size_t kAllocMsgs = quick ? 10'000 : 100'000;

  std::printf("sim-micro: event engine & transport hot path%s\n\n",
              quick ? " (quick)" : "");

  // Keep the best of 3 repetitions to damp scheduler noise.
  auto best3 = [](auto fn) {
    double best = 0;
    for (int i = 0; i < 3; ++i) best = std::max(best, fn());
    return best;
  };

  double events =
      best3([&] { return TimerEventsPerSec(kTimerFanout, kTimerEvents); });
  std::printf("  timer events/sec     %12.0f\n", events);

  double messages = best3([&] {
    return RelayMessagesPerSec(kRelayPeers, kRelayChains, kRelayHops);
  });
  std::printf("  relay messages/sec   %12.0f\n", messages);

  double routed = best3([&] {
    return RoutedRelayMessagesPerSec(kRelayPeers, kRelayChains, kRelayHops);
  });
  std::printf("  routed messages/sec  %12.0f\n", routed);

  double allocs = AllocsPerMessage(kAllocMsgs);
  std::printf("  allocs/send+deliver  %12.2f\n", allocs);

  // Tracing overhead on the relay hot path. run_bench.sh gates the disabled
  // overhead at 3% on full runs: an attached-but-disabled tracer must be one
  // dead branch per send, never a tax on untraced runs. The states get
  // their own interleaved baseline — comparing against `messages` (measured
  // much earlier, cold) would bias the ratio.
  // Paired repetitions: each rep measures every state back-to-back and
  // contributes one ratio per comparison, and the rows report the median
  // ratio — machine jitter spanning adjacent windows cancels out of a ratio,
  // and the median sheds the reps where it did not. The keyed engine runs
  // the same relay at the same hop count, so its untraced rate compares
  // directly with the classic one.
  const int kOverheadHops = quick ? 100 : 4000;
  const int kOverheadReps = 5;
  double tr_off = 0, tr_dis = 0, tr_en = 0, keyed_off = 0, keyed_en = 0;
  std::vector<double> dis_ratio, en_ratio, keyed_en_ratio, keyed_vs_classic;
  for (int i = 0; i < kOverheadReps; ++i) {
    double off = RelayMessagesPerSec(kRelayPeers, kRelayChains, kOverheadHops,
                                     TraceMode::kNoTracer);
    double dis = RelayMessagesPerSec(kRelayPeers, kRelayChains, kOverheadHops,
                                     TraceMode::kDisabled);
    double en = RelayMessagesPerSec(kRelayPeers, kRelayChains, kOverheadHops,
                                    TraceMode::kEnabled);
    double k_off = KeyedRelayMessagesPerSec(kRelayPeers, kRelayChains,
                                            kOverheadHops, false);
    double k_en = KeyedRelayMessagesPerSec(kRelayPeers, kRelayChains,
                                           kOverheadHops, true);
    tr_off = std::max(tr_off, off);
    tr_dis = std::max(tr_dis, dis);
    tr_en = std::max(tr_en, en);
    keyed_off = std::max(keyed_off, k_off);
    keyed_en = std::max(keyed_en, k_en);
    dis_ratio.push_back(off / dis);
    en_ratio.push_back(off / en);
    keyed_en_ratio.push_back(k_off / k_en);
    keyed_vs_classic.push_back(off / k_off);
  }
  auto median_pct = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return (v[v.size() / 2] - 1.0) * 100.0;
  };
  const double dis_pct = median_pct(dis_ratio);
  const double en_pct = median_pct(en_ratio);
  const double keyed_en_pct = median_pct(keyed_en_ratio);
  const double keyed_slowdown_pct = median_pct(keyed_vs_classic);
  std::printf(
      "\n  tracing overhead (relay): disabled %.1f%%  enabled %.1f%%\n",
      dis_pct, en_pct);
  std::printf("  keyed-engine relay: %.0f msg/s untraced (%+.1f%% time vs "
              "classic), tracing enabled %.1f%%\n",
              keyed_off, keyed_slowdown_pct, keyed_en_pct);

  json.Add("timer_events", {{"events_per_sec", events}});
  json.Add("relay_delivery", {{"messages_per_sec", messages}});
  json.Add("routed_relay_delivery", {{"messages_per_sec", routed}});
  json.Add("allocations", {{"allocs_per_message", allocs}});
  json.Add("tracing_overhead", {{"messages_per_sec_untraced", tr_off},
                                {"messages_per_sec_disabled", tr_dis},
                                {"messages_per_sec_enabled", tr_en},
                                {"disabled_overhead_pct", dis_pct},
                                {"enabled_overhead_pct", en_pct}});
  json.Add("tracing_overhead_sharded",
           {{"messages_per_sec_untraced", keyed_off},
            {"messages_per_sec_enabled", keyed_en},
            {"enabled_overhead_pct", keyed_en_pct},
            {"untraced_vs_classic_pct", keyed_slowdown_pct}});
  json.Finish();
  return 0;
}
