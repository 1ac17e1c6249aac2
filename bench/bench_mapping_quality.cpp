// Experiment E5 — Bayesian mapping assessment and deprecation (paper
// Section 3.2 / Section 4):
//
//   "Removing some of the existing mappings fosters the creation of
//    additional mappings, some of which get deprecated by the Bayesian
//    analysis and are gradually replaced by other mapping paths."
//
// Part 1 sweeps the injected-error rate: a mesh of correct automatic
// mappings over 12 schemas is polluted with a growing fraction of erroneous
// (deranged) mappings; the cycle-analysis assessor must deprecate the bad
// ones (recall) without killing good ones (precision).
//
// Part 2 is the ablation DESIGN.md calls out: the max-cycle-length cap.
// Longer cycles give more evidence at higher enumeration cost.
//
//   $ ./bench/bench_mapping_quality

#include <cstdio>
#include <cstdlib>
#include <set>
#include <vector>

#include "bench_json.h"
#include "selforg_scale.h"
#include "selforg/mapping_assessor.h"
#include "workload/bio_workload.h"

using namespace gridvine;

namespace {

struct TrialResult {
  double precision = 0;  // deprecated ∩ bad / deprecated
  double recall = 0;     // deprecated ∩ bad / bad
  size_t observations = 0;
};

TrialResult RunTrial(const BioWorkload& workload, double error_rate,
                     int max_cycle_len, uint64_t seed) {
  size_t n = workload.schemas().size();
  MappingGraph graph;
  Rng rng(seed);
  std::set<std::string> bad_ids;
  int seq = 0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      std::string id = std::string("m").append(std::to_string(seq++));
      SchemaMapping m = rng.Bernoulli(error_rate)
                            ? workload.ErroneousMapping(i, j, id, &rng)
                            : workload.GroundTruthMapping(i, j, id);
      m.set_provenance(MappingProvenance::kAutomatic);
      m.set_confidence(0.7);
      if (workload.MappingPrecision(m) < 0.5) bad_ids.insert(id);
      graph.AddMapping(m);
    }
  }

  MappingAssessor::Options opts;
  opts.max_cycle_len = max_cycle_len;
  MappingAssessor assessor(opts);
  auto assessment = assessor.Assess(graph);

  std::set<std::string> deprecated;
  for (const auto& [id, posterior] : assessment.posterior) {
    if (posterior < SelfOrganizer::kDeprecateBelow) deprecated.insert(id);
  }
  TrialResult result;
  result.observations = assessment.observations.size();
  size_t correct_deprecations = 0;
  for (const auto& id : deprecated) correct_deprecations += bad_ids.count(id);
  result.precision = deprecated.empty()
                         ? 1.0
                         : double(correct_deprecations) / double(deprecated.size());
  result.recall = bad_ids.empty()
                      ? 1.0
                      : double(correct_deprecations) / double(bad_ids.size());
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  gridvine::bench::BenchJson json(argc, argv, "bench_mapping_quality");
  BioWorkload::Options wl;
  wl.num_schemas = 12;
  wl.num_entities = 100;
  wl.entities_per_schema = 25;
  wl.min_attrs = 5;
  wl.max_attrs = 8;
  wl.seed = 3;
  BioWorkload workload(wl);

  std::printf("E5: Bayesian cycle analysis — deprecation quality\n");
  std::printf("  12 schemas, full mapping mesh (66 mappings), posterior "
              "threshold 0.45, 5 seeds/row\n\n");

  std::printf("  part 1: injected error rate sweep (cycle cap = 3)\n");
  std::printf("  %-12s %10s %10s %13s\n", "error rate", "precision",
              "recall", "observations");
  for (double rate : {0.05, 0.10, 0.20, 0.30, 0.40}) {
    double precision = 0, recall = 0, obs = 0;
    const int kSeeds = 5;
    for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
      auto r = RunTrial(workload, rate, 3, seed);
      precision += r.precision;
      recall += r.recall;
      obs += double(r.observations);
    }
    std::printf("  %-12.0f%% %9.2f %10.2f %13.0f\n", rate * 100,
                precision / kSeeds, recall / kSeeds, obs / kSeeds);
    json.Add("error_rate_" + std::to_string(int(rate * 100)),
             {{"precision", precision / kSeeds},
              {"recall", recall / kSeeds},
              {"observations", obs / kSeeds}});
  }

  std::printf("\n  part 2: cycle-length cap ablation (error rate 20%%)\n");
  std::printf("  %-12s %10s %10s %13s\n", "cycle cap", "precision", "recall",
              "observations");
  for (int cap : {2, 3, 4}) {
    double precision = 0, recall = 0, obs = 0;
    const int kSeeds = 5;
    for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
      auto r = RunTrial(workload, 0.20, cap, seed + 50);
      precision += r.precision;
      recall += r.recall;
      obs += double(r.observations);
    }
    std::printf("  %-12d %10.2f %10.2f %13.0f\n", cap, precision / kSeeds,
                recall / kSeeds, obs / kSeeds);
    json.Add("cycle_cap_" + std::to_string(cap),
             {{"precision", precision / kSeeds},
              {"recall", recall / kSeeds},
              {"observations", obs / kSeeds}});
  }
  // Part 3 — mapping quality under schema evolution at scale: on a
  // 10k-peer network one schema's attributes all move to different
  // vocabulary variants mid-run. Agreement maintenance must deprecate every
  // dangling mapping (stale_deprecated > 0) and the re-derived mapping set
  // must carry query recall back to >= 95% of the pre-change level. Quick
  // mode shrinks the network (CI smoke).
  {
    const bool quick = std::getenv("GV_BENCH_QUICK") != nullptr;
    const size_t peers = quick ? 256 : 10240;
    std::printf("\n  part 3: schema evolution at scale (%zu peers)\n", peers);
    auto r = gridvine::bench::RunEvolutionAtScale(peers, /*seed=*/404);
    std::printf("  %zu stale mappings deprecated, %zu created; recall %.0f%% "
                "-> %.0f%% -> %.0f%% (%d repair rounds)\n",
                r.stale_deprecated, r.created_total, r.recall_pre * 100,
                r.recall_post * 100, r.recall_final * 100, r.recovery_rounds);
    json.Add("evolution_at_scale",
             {{"peers", double(r.peers)},
              {"convergence_rounds", double(r.convergence_rounds)},
              {"stale_deprecated", double(r.stale_deprecated)},
              {"created_total", double(r.created_total)},
              {"recall_pre", r.recall_pre},
              {"recall_final", r.recall_final},
              {"recovery_ratio",
               r.recall_pre > 0 ? r.recall_final / r.recall_pre : 0.0},
              {"bp_messages", double(r.bp_messages)}});
  }
  json.Finish();
  std::printf("\n  expectation: high precision throughout; recall degrades "
              "gracefully as errors saturate cycles.\n  cap=2 finds no "
              "evidence (one mapping per pair => no 2-cycles); cap=3 "
              "suffices; cap=4 multiplies\n  the enumeration cost for little "
              "gain on a dense mesh.\n");
  return 0;
}
