#ifndef GRIDVINE_SELFORG_MAPPING_ASSESSOR_H_
#define GRIDVINE_SELFORG_MAPPING_ASSESSOR_H_

#include <map>
#include <string>
#include <vector>

#include "mapping/mapping_graph.h"

namespace gridvine {

// Cycle-evidence model and BP schedule, shared by MappingAssessor and
// IncrementalAssessor.

/// P(inconsistent | all correct): partial correspondences, noise.
inline constexpr double kCycleEpsilon = 0.15;
/// P(consistent | some incorrect): accidental closure.
inline constexpr double kCycleDelta = 0.10;
/// Prior correctness for automatic mappings without creator confidence.
inline constexpr double kDefaultMappingPrior = 0.7;
/// Belief-propagation sweeps of the fixed (Jacobi) schedule.
inline constexpr int kBpIterations = 12;
/// A cycle needs at least this many attributes surviving the full chain to
/// produce an observation at all.
inline constexpr int kMinChainedAttributes = 1;

/// Bayesian mapping-quality analysis via transitive closures (paper Section
/// 3.2, after the ICDE'06 "Probabilistic Message Passing in PDMS" technique):
///
/// Composing the attribute correspondences around a *cycle* of mappings
/// should return every attribute to itself. Each cycle therefore yields a
/// noisy observation about the mappings it traverses: consistent cycles are
/// evidence that all their mappings are correct; inconsistent cycles are
/// evidence that at least one is wrong.
///
/// Inference runs loopy belief propagation on the factor graph whose binary
/// variables are the automatic mappings (manual ones are clamped correct, as
/// prescribed by the paper) and whose factors are the cycle observations:
///
///   P(cycle consistent | all mappings correct)     = 1 − kCycleEpsilon
///   P(cycle consistent | any mapping incorrect)    = kCycleDelta
///
/// The posterior P(mapping correct | all cycles) is returned per mapping.
class MappingAssessor {
 public:
  struct Options {
    /// Max cycle length (edges) enumerated per mapping.
    int max_cycle_len = 4;
  };

  /// Default-configured assessor (definition below the class: a nested
  /// Options cannot appear as an in-class default argument).
  MappingAssessor();
  explicit MappingAssessor(Options options) : options_(options) {}

  /// One enumerated cycle and its consistency verdict.
  struct CycleObservation {
    std::vector<std::string> mapping_ids;
    bool consistent = false;
    int attributes_checked = 0;
  };

  struct Assessment {
    /// Posterior correctness per automatic mapping id.
    std::map<std::string, double> posterior;
    /// All cycle observations that produced evidence.
    std::vector<CycleObservation> observations;
  };

  /// Assesses every non-deprecated automatic mapping of `graph`.
  Assessment Assess(const MappingGraph& graph) const;

  /// Checks one cycle (ids must form a closed mapping chain in `graph`).
  /// Returns the observation, or attributes_checked == 0 when the chain is
  /// empty/broken (no evidence).
  CycleObservation CheckCycle(const MappingGraph& graph,
                              const std::vector<std::string>& cycle_ids) const;

  const Options& options() const { return options_; }

 private:
  Options options_;
};

inline MappingAssessor::MappingAssessor() : options_(Options()) {}

}  // namespace gridvine

#endif  // GRIDVINE_SELFORG_MAPPING_ASSESSOR_H_
