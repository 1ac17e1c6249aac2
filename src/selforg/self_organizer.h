#ifndef GRIDVINE_SELFORG_SELF_ORGANIZER_H_
#define GRIDVINE_SELFORG_SELF_ORGANIZER_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gridvine/gridvine_network.h"
#include "mapping/mapping_graph.h"
#include "selforg/attribute_matcher.h"
#include "selforg/incremental_assessor.h"
#include "selforg/mapping_assessor.h"

namespace gridvine {

/// Drives the self-organization loop of paper Section 3 over a live GridVine
/// deployment:
///
///   1. every schema owner publishes its (in, out) degrees to Hash(domain);
///   2. the connectivity indicator ci is derived from the registry;
///   3. while ci < 0 (no giant component), additional mappings are created
///      automatically: a schema pair is selected (preferring pairs sharing
///      instance references, i.e. schemas describing the same entities), the
///      attributes are aligned with lexical + value-set measures, and the
///      mapping is inserted into the network;
///   4. the Bayesian cycle analysis assesses automatic mappings and
///      deprecates those whose posterior correctness falls below threshold,
///      making room for new mapping paths.
///
/// Each RunRound() performs one such round. All state flows through the DHT
/// (schema/mapping/degree records) exactly as individual peers would do it;
/// the organizer itself holds only the owner assignment (which peer is
/// responsible for which schema).
class SelfOrganizer {
 public:
  struct Options {
    std::string domain = "bio";
    /// Matcher configuration for automatic mapping creation.
    AttributeMatcher::Options matcher;
    /// Assessor configuration for deprecation.
    MappingAssessor::Options assessor;
    /// Mappings created per round while ci < 0.
    int creations_per_round = 2;
    /// Seeds the candidate-pair tie-break shuffle.
    uint64_t seed = 42;
  };

  /// Posterior below which an automatic mapping is deprecated.
  static constexpr double kDeprecateBelow = 0.45;

  SelfOrganizer(GridVineNetwork* net, Options options);

  /// Declares that `peer_idx` owns (stores/publishes) `schema`.
  void RegisterSchemaOwner(const std::string& schema, size_t peer_idx);

  /// Publishes current degrees for every registered schema (step 1).
  Status PublishAllDegrees();

  /// Crawls the mediation layer through the DHT: domain registry ->
  /// schema list -> per-schema mapping records. Returns the graph view.
  MappingGraph BuildGraphView();

  /// The connectivity indicator from the *registry* (what peers actually
  /// see), not from an omniscient graph.
  Result<double> ComputeIndicator();

  struct RoundReport {
    double ci_before = 0;
    double ci_after = 0;
    double scc_fraction_after = 0;
    size_t mappings_created = 0;
    size_t mappings_deprecated = 0;
    /// Deprecated by agreement maintenance (dangling correspondences after
    /// schema evolution), not by the Bayesian assessment.
    size_t mappings_stale_deprecated = 0;
    size_t active_mappings = 0;
    /// Incremental-assessment effort this round.
    size_t bp_messages = 0;
    size_t bp_factors = 0;
    bool bp_converged = true;
    std::vector<std::string> created_ids;
    std::vector<std::string> deprecated_ids;
    std::vector<std::string> stale_deprecated_ids;
  };

  /// One full self-organization round (steps 1-4).
  RoundReport RunRound();

  /// Continuous background operation: advances simulated time by `interval`
  /// (churn, faults and query traffic fire inside the slice), then runs one
  /// round synchronously from outside the event loop; repeated `rounds`
  /// times. Works identically on the classic and keyed engines.
  std::vector<RoundReport> RunContinuous(int rounds, SimTime interval);

  /// Re-syncs the persistent graph view from the DHT. Unchanged records are
  /// no-ops (MappingGraph re-intern semantics); genuine changes flow as
  /// events into the incremental assessor. Fetches that fail (owner down)
  /// leave the previous view of that schema in place.
  const MappingGraph& SyncGraphView();

  /// Agreement maintenance: deprecates active mappings with correspondences
  /// referencing attributes no longer present in the (possibly evolved)
  /// schema definitions. Returns the deprecated ids.
  std::vector<std::string> RepairStaleMappings();

  /// gv.selforg.* counters into `registry` (wire into
  /// GridVineNetwork::AddMetricsSource for unified snapshots).
  void PublishMetrics(MetricsRegistry* registry) const;

  /// The persistent graph view (valid after SyncGraphView/RunRound).
  const MappingGraph& graph_view() const { return view_; }
  /// The maintained factor graph (attached to the view for its lifetime).
  const IncrementalAssessor& assessor() const { return inc_assessor_; }

  /// Automatic mapping creation between two specific schemas (step 3's
  /// inner operation; exposed for tests and ablations).
  Result<SchemaMapping> CreateMapping(const std::string& source,
                                      const std::string& target);

  /// Samples the value sets of every attribute of `schema` by querying the
  /// live network.
  AttributeMatcher::ValueSets SampleValueSets(const Schema& schema);

  /// Selects up to `count` disconnected-ish schema pairs to map, preferring
  /// pairs that share instance references (co-described subjects).
  std::vector<std::pair<std::string, std::string>> SelectCandidatePairs(
      const MappingGraph& graph, int count);

  size_t OwnerOf(const std::string& schema) const;

 private:
  /// Subjects observed under any attribute of `schema` (instance sample).
  std::set<std::string> SampleSubjects(const Schema& schema);

  /// Applies a mapping state change both to the network (UpsertMapping at
  /// the owner) and to the local view (so assessor events fire now, not at
  /// the next sync).
  bool PushMappingUpdate(const SchemaMapping& updated);

  GridVineNetwork* net_;
  Options options_;
  Rng rng_;
  std::map<std::string, size_t> owners_;
  uint64_t next_mapping_seq_ = 1;

  /// Persistent mapping-graph view + maintained factor graph.
  MappingGraph view_;
  IncrementalAssessor inc_assessor_;

  // Lifetime counters behind PublishMetrics.
  uint64_t rounds_run_ = 0;
  uint64_t total_created_ = 0;
  uint64_t total_deprecated_ = 0;
  uint64_t total_stale_deprecated_ = 0;
};

}  // namespace gridvine

#endif  // GRIDVINE_SELFORG_SELF_ORGANIZER_H_
