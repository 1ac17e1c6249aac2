// Experiment E9 — continuous self-organization vs network size (paper
// Section 3 + the agreement-maintenance extension):
//
// For each network size the run starts with schemas but zero mappings,
// self-organizes to global interoperability (convergence time), evolves one
// schema mid-run (every renamable attribute moves to a different vocabulary
// variant), and keeps running rounds until the dangling mappings are
// deprecated, replacements are re-derived, and query recall recovers to at
// least 95% of its pre-change level.
//
// Convergence rounds must stay flat as the network grows — the organizer's
// work is a function of the schema population, not the peer count; only the
// per-round wall time grows with routing depth.
//
//   $ ./bench/bench_selforg
//
// Quick mode (GV_BENCH_QUICK=1) runs a single small size as a CI smoke.

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_json.h"
#include "selforg_scale.h"

using namespace gridvine;
using gridvine::bench::EvolutionScaleResult;
using gridvine::bench::RunEvolutionAtScale;

int main(int argc, char** argv) {
  gridvine::bench::BenchJson json(argc, argv, "bench_selforg");
  const bool quick = std::getenv("GV_BENCH_QUICK") != nullptr;

  std::vector<size_t> sizes;
  if (quick) {
    sizes = {256};
  } else {
    sizes = {1000, 10240};
  }

  std::printf("E9: self-organization + schema evolution vs network size\n");
  std::printf("  8 schemas, mappings from zero, evolution at convergence, "
              "recovery target 95%%\n\n");
  std::printf("  %-8s %9s %9s %8s %8s %9s %8s %9s %9s %9s %10s\n", "peers",
              "conv", "organize", "recall", "dip", "recover", "recall'",
              "stale", "created", "messages", "bytes");

  for (size_t peers : sizes) {
    EvolutionScaleResult r = RunEvolutionAtScale(peers, /*seed=*/404);
    std::printf(
        "  %-8zu %9d %8.1fs %7.0f%% %7.0f%% %9d %7.0f%% %9zu %9zu %9llu "
        "%10llu\n",
        r.peers, r.convergence_rounds, r.organize_seconds, r.recall_pre * 100,
        r.recall_post * 100, r.recovery_rounds, r.recall_final * 100,
        r.stale_deprecated, r.created_total, (unsigned long long)r.messages,
        (unsigned long long)r.bytes);
    json.Add("peers_" + std::to_string(peers),
             {{"peers", double(r.peers)},
              {"convergence_rounds", double(r.convergence_rounds)},
              {"recall_pre", r.recall_pre},
              {"recall_post_evolution", r.recall_post},
              {"recall_final", r.recall_final},
              {"recovery_rounds", double(r.recovery_rounds)},
              {"recovery_ratio",
               r.recall_pre > 0 ? r.recall_final / r.recall_pre : 0.0},
              {"stale_deprecated", double(r.stale_deprecated)},
              {"created_total", double(r.created_total)},
              {"bp_messages", double(r.bp_messages)},
              {"messages", double(r.messages)},
              {"bytes", double(r.bytes)},
              {"organize_seconds", r.organize_seconds},
              {"repair_seconds", r.repair_seconds}});
  }

  json.Finish();
  std::printf("\n  expectation: convergence rounds flat in network size; the "
              "evolution dips recall and the\n  repair rounds restore >= 95%% "
              "of the pre-change level at every size.\n");
  return 0;
}
