#ifndef GRIDVINE_SIM_LATENCY_H_
#define GRIDVINE_SIM_LATENCY_H_

#include <memory>

#include "common/rng.h"
#include "sim/simulator.h"

namespace gridvine {

/// Samples per-message one-way delivery latency. The choice of model is what
/// turns routing hop counts into the wall-clock CDF reported in experiment E1.
class LatencyModel {
 public:
  virtual ~LatencyModel() = default;
  /// One latency sample in seconds.
  virtual SimTime Sample(Rng* rng) = 0;
  /// Sample drawing from a per-node SmallRng stream — the keyed engine's
  /// path, where draw order must not depend on global send interleaving.
  /// The two overloads need not produce the same sequences; each engine is
  /// its own determinism domain.
  virtual SimTime Sample(SmallRng* rng) = 0;
};

/// Fixed latency; used by unit tests to make timing assertions exact.
class ConstantLatency : public LatencyModel {
 public:
  explicit ConstantLatency(SimTime latency) : latency_(latency) {}
  SimTime Sample(Rng*) override { return latency_; }
  SimTime Sample(SmallRng*) override { return latency_; }

 private:
  SimTime latency_;
};

/// Uniform latency in [lo, hi).
class UniformLatency : public LatencyModel {
 public:
  UniformLatency(SimTime lo, SimTime hi) : lo_(lo), hi_(hi) {}
  SimTime Sample(Rng* rng) override { return rng->UniformDouble(lo_, hi_); }
  SimTime Sample(SmallRng* rng) override {
    return rng->UniformDouble(lo_, hi_);
  }

 private:
  SimTime lo_, hi_;
};

/// Wide-area latency: a base propagation delay plus a log-normal tail, plus
/// an optional straggler component (with probability `straggler_prob` the
/// message crosses an overloaded host and picks up an extra exponential
/// delay of mean `straggler_mean`). This mixture matches the heavy-tailed
/// behaviour of the paper's 340-machine PlanetLab-style deployment, where a
/// sizeable fraction of queries took several seconds.
class WanLatency : public LatencyModel {
 public:
  /// `base` is the deterministic floor, `mu`/`sigma` parameterize the
  /// log-normal variable part (of the underlying normal, seconds).
  explicit WanLatency(SimTime base = 0.015, double mu = -3.2,
                      double sigma = 1.1, double straggler_prob = 0.0,
                      SimTime straggler_mean = 4.0)
      : base_(base),
        mu_(mu),
        sigma_(sigma),
        straggler_prob_(straggler_prob),
        straggler_mean_(straggler_mean) {}

  SimTime Sample(Rng* rng) override {
    SimTime t = base_ + rng->LogNormal(mu_, sigma_);
    if (straggler_prob_ > 0 && rng->Bernoulli(straggler_prob_)) {
      t += rng->Exponential(1.0 / straggler_mean_);
    }
    return t;
  }
  SimTime Sample(SmallRng* rng) override {
    SimTime t = base_ + rng->LogNormal(mu_, sigma_);
    if (straggler_prob_ > 0 && rng->Bernoulli(straggler_prob_)) {
      t += rng->Exponential(1.0 / straggler_mean_);
    }
    return t;
  }

 private:
  SimTime base_;
  double mu_, sigma_;
  double straggler_prob_;
  SimTime straggler_mean_;
};

}  // namespace gridvine

#endif  // GRIDVINE_SIM_LATENCY_H_
