#ifndef GRIDVINE_SIM_FAULT_PLAN_H_
#define GRIDVINE_SIM_FAULT_PLAN_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "sim/simulator.h"

namespace gridvine {

using NodeId = uint32_t;  // mirrors sim/network.h (kept header-light)

/// Why a message was dropped; drives the attribution counters in
/// NetworkStats so experiments can tell "the peer was dead" apart from
/// "the wire ate it".
enum class DropCause : uint8_t {
  kEndpoint,   ///< sender/destination dead or unknown (send or delivery time)
  kLoss,       ///< the network's base independent loss probability
  kBurstLoss,  ///< a FaultPlan loss-burst window
  kPartition,  ///< a FaultPlan partition separated the endpoints
};

/// The cause as a flight span's "drop" annotation.
constexpr std::string_view DropCauseName(DropCause cause) {
  switch (cause) {
    case DropCause::kEndpoint: return "endpoint";
    case DropCause::kLoss: return "loss";
    case DropCause::kBurstLoss: return "burst";
    case DropCause::kPartition: return "partition";
  }
  return "?";
}

/// Deterministic fault injection layered on top of Network's base loss and
/// node liveness. A plan is a set of *timed windows* — loss bursts,
/// bidirectional partitions, latency spikes — plus a whole-run duplication
/// probability. All randomness is drawn from the transport's stream (the
/// Network's seeded Rng, or the acting node's SmallRng on the keyed engine)
/// in a fixed consultation order, so a faulted run replays bit-identically
/// from its seed; the windows themselves are plain data and can be generated
/// from a seed too (see tests/fault_harness.h).
///
/// Hot-path contract: consultation performs no heap allocation and, when no
/// window covers `now` and no duplication is configured, draws nothing from
/// the Rng — installing an empty plan does not perturb a seeded run.
class FaultPlan {
 public:
  /// Elevated independent loss inside [start, end): each message crossing
  /// the window is additionally dropped with `probability`.
  struct LossBurst {
    SimTime start = 0;
    SimTime end = 0;
    double probability = 1.0;
  };

  /// Bidirectional partition inside [start, end): messages with one endpoint
  /// in `group_a` and the other in `group_b` are dropped both ways. Nodes in
  /// neither group are unaffected.
  struct Partition {
    SimTime start = 0;
    SimTime end = 0;
    std::vector<NodeId> group_a;
    std::vector<NodeId> group_b;
  };

  /// Extra one-way latency inside [start, end): every delivery scheduled in
  /// the window picks up `extra` seconds plus an exponential tail of mean
  /// `extra_mean_tail` (0 disables the tail).
  struct LatencySpike {
    SimTime start = 0;
    SimTime end = 0;
    SimTime extra = 0.5;
    SimTime extra_mean_tail = 0;
  };

  void AddLossBurst(const LossBurst& burst) { bursts_.push_back(burst); }
  void AddPartition(const Partition& partition);
  void AddLatencySpike(const LatencySpike& spike) { spikes_.push_back(spike); }

  /// Each non-dropped message is delivered a second time with this
  /// probability (an independent latency sample; the copy can still die at
  /// delivery time). Models the duplicate delivery UDP permits.
  void set_duplicate_probability(double p) { duplicate_probability_ = p; }
  double duplicate_probability() const { return duplicate_probability_; }

  /// Fault verdict for one message at send time. Checks partitions first
  /// (deterministic, no Rng draw), then loss bursts (one Bernoulli draw per
  /// covering window, in insertion order). Returns true and sets `*cause`
  /// if the plan drops the message.
  ///
  /// Every consultation is generic over the stream: the classic network
  /// passes its seeded Rng, the keyed engine the acting node's SmallRng.
  template <typename AnyRng>
  bool ShouldDrop(SimTime now, NodeId from, NodeId to, AnyRng* rng,
                  DropCause* cause) const {
    if (PartitionDrop(now, from, to, cause)) return true;
    for (const LossBurst& b : bursts_) {
      if (now < b.start || now >= b.end || b.probability <= 0) continue;
      if (rng->Bernoulli(b.probability)) {
        *cause = DropCause::kBurstLoss;
        return true;
      }
    }
    return false;
  }

  /// One duplication decision (only calls the Rng when the probability is
  /// non-zero).
  template <typename AnyRng>
  bool ShouldDuplicate(AnyRng* rng) const {
    return duplicate_probability_ > 0 && rng->Bernoulli(duplicate_probability_);
  }

  /// Extra latency at `now` (0 outside every spike window). Draws from the
  /// Rng only for spikes with a configured tail.
  template <typename AnyRng>
  SimTime ExtraLatency(SimTime now, AnyRng* rng) const {
    SimTime extra = 0;
    for (const LatencySpike& s : spikes_) {
      if (now < s.start || now >= s.end) continue;
      extra += s.extra;
      if (s.extra_mean_tail > 0) {
        extra += rng->Exponential(1.0 / s.extra_mean_tail);
      }
    }
    return extra;
  }

  size_t loss_bursts() const { return bursts_.size(); }
  size_t partitions() const { return partitions_.size(); }
  size_t latency_spikes() const { return spikes_.size(); }

 private:
  bool PartitionDrop(SimTime now, NodeId from, NodeId to,
                     DropCause* cause) const;

  /// Partition with O(1) membership: side_[id] is 1 (group_a), 2 (group_b)
  /// or 0 (unaffected); ids beyond the vector are unaffected.
  struct PartitionSpec {
    SimTime start;
    SimTime end;
    std::vector<uint8_t> side;
  };

  std::vector<LossBurst> bursts_;
  std::vector<PartitionSpec> partitions_;
  std::vector<LatencySpike> spikes_;
  double duplicate_probability_ = 0.0;
};

}  // namespace gridvine

#endif  // GRIDVINE_SIM_FAULT_PLAN_H_
