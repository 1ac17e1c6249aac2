// Chaos soak: randomized-but-seeded fault scenarios (loss × churn ×
// partitions × duplication) driven through the reliable request layer, with
// drain invariants checked after every run. Any violation prints the
// scenario seed; replay it exactly with
//
//   GV_SOAK_SEED=<seed> ./build/tests/fault_soak_test
//
// which runs the full chaos scenario at that seed in addition to the pinned
// grid below.

#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "fault_harness.h"
#include "selforg_soak_harness.h"

namespace gridvine {
namespace {

// The pinned seed grid CI runs. Deterministic: these exact runs replay
// bit-identically on every machine.
const uint64_t kSeeds[] = {11, 29, 83};

FaultScenario LossScenario(uint64_t seed) {
  FaultScenario s;
  s.name = "loss10";
  s.seed = seed;
  s.loss = 0.10;
  return s;
}

FaultScenario ChurnScenario(uint64_t seed) {
  FaultScenario s;
  s.name = "churn25";
  s.seed = seed;
  s.churn = true;
  s.offline_fraction = 0.25;
  s.rejoin_exchange = true;
  return s;
}

FaultScenario ChaosScenario(uint64_t seed) {
  FaultScenario s;
  s.name = "chaos";
  s.seed = seed;
  s.loss = 0.08;
  s.churn = true;
  s.offline_fraction = 0.20;
  s.rejoin_exchange = true;
  s.loss_bursts = 2;
  s.partitions = 1;
  s.latency_spikes = 1;
  s.duplicate_probability = 0.05;
  return s;
}

TEST(FaultSoakTest, LossScenarioDrainsClean) {
  for (uint64_t seed : kSeeds) {
    FaultRunResult r = RunFaultScenario(LossScenario(seed));
    EXPECT_TRUE(CheckDrainInvariants(LossScenario(seed), r));
    // Base loss must actually bite, and retries must be exercised.
    EXPECT_GT(r.stats.drops_loss, 0u) << "seed=" << seed;
    EXPECT_GT(r.retries, 0u) << "seed=" << seed;
  }
}

TEST(FaultSoakTest, ChurnScenarioDrainsClean) {
  for (uint64_t seed : kSeeds) {
    FaultRunResult r = RunFaultScenario(ChurnScenario(seed));
    EXPECT_TRUE(CheckDrainInvariants(ChurnScenario(seed), r));
    EXPECT_GT(r.churn_transitions, 0u) << "seed=" << seed;
    // Rejoin wiring fired: every down→up flip initiated one exchange.
    EXPECT_GT(r.rejoin_encounters, 0u) << "seed=" << seed;
    // Dead endpoints are the dominant drop cause under churn.
    EXPECT_GT(r.stats.drops_endpoint, 0u) << "seed=" << seed;
  }
}

TEST(FaultSoakTest, ChaosScenarioDrainsClean) {
  for (uint64_t seed : kSeeds) {
    FaultRunResult r = RunFaultScenario(ChaosScenario(seed));
    EXPECT_TRUE(CheckDrainInvariants(ChaosScenario(seed), r));
    // The injected fault windows really intersected traffic.
    EXPECT_GT(r.stats.drops_burst + r.stats.drops_partition, 0u)
        << "seed=" << seed;
    EXPECT_GT(r.stats.messages_duplicated, 0u) << "seed=" << seed;
  }
}

// Tracing under chaos: drops, duplicates, retries and failovers must still
// produce a consistent, fully closed span forest whose retry/failover
// markers reconcile exactly with the peers' counters. Also asserts tracing
// does not perturb the run: the traced run's network statistics are
// bit-identical to the untraced run at the same seed.
TEST(FaultSoakTest, TracedChaosKeepsSpanForestConsistent) {
  for (uint64_t seed : kSeeds) {
    FaultScenario s = ChaosScenario(seed);
    s.trace = true;
    FaultRunResult r = RunFaultScenario(s);
    EXPECT_TRUE(CheckDrainInvariants(s, r));
    EXPECT_TRUE(CheckTraceInvariants(s, r));
    EXPECT_FALSE(r.spans.empty()) << "seed=" << seed;

    FaultRunResult untraced = RunFaultScenario(ChaosScenario(seed));
    EXPECT_TRUE(r.stats == untraced.stats) << "seed=" << seed;
  }
}

TEST(FaultSoakTest, TracedLossRunRecordsRetryMarkers) {
  FaultScenario s = LossScenario(kSeeds[0]);
  s.trace = true;
  FaultRunResult r = RunFaultScenario(s);
  EXPECT_TRUE(CheckTraceInvariants(s, r));
  EXPECT_GT(r.retries, 0u);
  TraceAnalyzer ta(r.spans);
  EXPECT_EQ(ta.CountNamed("op.retry"), r.retries);
}

// Same seed → bit-identical network statistics (NetworkStats operator==
// covers every counter including the per-type vectors) and identical op
// outcomes. This is the replay guarantee the printed seed relies on.
TEST(FaultSoakTest, SameSeedReplaysBitIdentically) {
  for (uint64_t seed : kSeeds) {
    FaultRunResult a = RunFaultScenario(ChaosScenario(seed));
    FaultRunResult b = RunFaultScenario(ChaosScenario(seed));
    EXPECT_TRUE(a.stats == b.stats) << "seed=" << seed;
    EXPECT_EQ(a.ops_ok, b.ops_ok) << "seed=" << seed;
    EXPECT_EQ(a.ops_timeout, b.ops_timeout) << "seed=" << seed;
    EXPECT_EQ(a.churn_transitions, b.churn_transitions) << "seed=" << seed;
    EXPECT_EQ(a.retries, b.retries) << "seed=" << seed;
    EXPECT_EQ(a.failovers, b.failovers) << "seed=" << seed;
  }
}

// Different seeds must explore different trajectories — otherwise the grid
// is redundant and "seeded" is a fiction.
TEST(FaultSoakTest, DifferentSeedsDiverge) {
  FaultRunResult a = RunFaultScenario(ChaosScenario(kSeeds[0]));
  FaultRunResult b = RunFaultScenario(ChaosScenario(kSeeds[1]));
  EXPECT_FALSE(a.stats == b.stats);
}

// The reliability layer must earn its keep: under 10% loss the same seed
// with retries enabled resolves strictly more retrieves than the
// single-attempt baseline. Deterministic, so not flaky.
TEST(FaultSoakTest, RetriesImproveRecallUnderLoss) {
  for (uint64_t seed : kSeeds) {
    FaultScenario on = LossScenario(seed);
    FaultScenario off = LossScenario(seed);
    off.retries_on = false;
    FaultRunResult r_on = RunFaultScenario(on);
    FaultRunResult r_off = RunFaultScenario(off);
    EXPECT_TRUE(CheckDrainInvariants(off, r_off));
    EXPECT_GT(r_on.Recall(), r_off.Recall()) << "seed=" << seed;
  }
}

// --- Continuous self-organization soak -------------------------------------
//
// The mediation layer runs as a background activity on live peers while the
// transport loses messages and a rotating victim peer is dead each round,
// with one schema evolving mid-run. Invariants: the run organizes the
// network anyway, the incremental assessor leaks no state (its maintained
// factor graph equals a fresh rebuild, and the dirty region drains), and
// the whole trajectory is seed-replayable.

SelforgSoakScenario SelforgScenario(uint64_t seed) {
  SelforgSoakScenario sc;
  sc.seed = seed;
  return sc;
}

TEST(SelforgSoakTest, OrganizesUnderLossAndChurn) {
  for (uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    SelforgSoakOutcome out = RunSelforgSoak(SelforgScenario(seed));
    // The cycle analysis ran for real (the seeded mesh has cycles) and the
    // injected erroneous mapping was caught despite loss and churn. The
    // catch is asserted on end-state, not the per-round counter: under loss
    // a deprecation push can land while its ack times out, in which case
    // the record flips on the next sync without a counted deprecation.
    EXPECT_GT(out.bp_messages, 0u);
    EXPECT_FALSE(out.erroneous_active) << out.fingerprint;
    // The evolution (every attribute renamed) severed all of schema 2's
    // mappings: repair deprecated them and re-derivation replaced them...
    // The severing is asserted on end-state for the same reason as the
    // erroneous catch: the per-round stale counter undercounts whenever a
    // deprecation push lands while its ack times out.
    EXPECT_TRUE(out.stale_severed) << out.fingerprint;
    EXPECT_GT(out.total_created, 0u) << out.fingerprint;
    EXPECT_TRUE(out.evolved_relinked) << out.fingerprint;
    // ...interoperability recovered in the quiet tail...
    EXPECT_GE(out.final_scc, 0.8) << out.fingerprint;
    // ...and no assessment state leaked across the faulty rounds.
    EXPECT_TRUE(out.converged) << out.fingerprint;
    EXPECT_TRUE(out.matches_rebuild);
  }
}

// Same seed → bit-identical trajectory: every round report, the final factor
// graph structure and every posterior, at full precision.
TEST(SelforgSoakTest, SameSeedReplaysBitIdentically) {
  SelforgSoakOutcome a = RunSelforgSoak(SelforgScenario(kSeeds[0]));
  SelforgSoakOutcome b = RunSelforgSoak(SelforgScenario(kSeeds[0]));
  EXPECT_EQ(a.fingerprint, b.fingerprint);
}

TEST(SelforgSoakTest, DifferentSeedsDiverge) {
  SelforgSoakOutcome a = RunSelforgSoak(SelforgScenario(kSeeds[0]));
  SelforgSoakOutcome b = RunSelforgSoak(SelforgScenario(kSeeds[1]));
  EXPECT_NE(a.fingerprint, b.fingerprint);
}

// The keyed engine (per-node random streams, content-derived event keys)
// under the same fault load: it organizes the network, leaks no assessment
// state, and replays bit-identically.
TEST(SelforgSoakTest, KeyedEngineOrganizesAndReplays) {
  SelforgSoakScenario sc = SelforgScenario(kSeeds[0]);
  sc.force_sharded = true;
  SelforgSoakOutcome a = RunSelforgSoak(sc);
  SelforgSoakOutcome b = RunSelforgSoak(sc);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_TRUE(a.converged) << a.fingerprint;
  EXPECT_TRUE(a.matches_rebuild);
}

// GV_SOAK_SEED replays the chaos scenario at an arbitrary seed (the one a
// failing run printed). Skipped when unset.
TEST(FaultSoakTest, EnvSeedReplay) {
  const char* env = std::getenv("GV_SOAK_SEED");
  if (env == nullptr || *env == '\0') {
    GTEST_SKIP() << "GV_SOAK_SEED not set";
  }
  const uint64_t seed = std::strtoull(env, nullptr, 10);
  FaultScenario s = ChaosScenario(seed);
  FaultRunResult r = RunFaultScenario(s);
  EXPECT_TRUE(CheckDrainInvariants(s, r));
  FaultRunResult r2 = RunFaultScenario(s);
  EXPECT_TRUE(r.stats == r2.stats) << "seed=" << seed;
}

}  // namespace
}  // namespace gridvine
