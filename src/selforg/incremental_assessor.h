#ifndef GRIDVINE_SELFORG_INCREMENTAL_ASSESSOR_H_
#define GRIDVINE_SELFORG_INCREMENTAL_ASSESSOR_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "mapping/mapping_graph.h"
#include "selforg/mapping_assessor.h"

namespace gridvine {

/// Incremental Bayesian mapping-quality analysis: the continuous-mode
/// counterpart of MappingAssessor::Assess.
///
/// Instead of re-enumerating every cycle and re-converging belief
/// propagation from scratch each round, the assessor subscribes to
/// MappingGraph edge events (add / deprecate / re-intern / remove) and
/// maintains the cycle factor graph across rounds:
///
///  * adding a mapping enumerates only the cycles *through the new edge*
///    (every new cycle must traverse it) and inserts their factors;
///  * deprecating or removing a mapping drops exactly the factors whose
///    cycle contains it;
///  * re-interning (same id, changed content) is remove-then-add.
///
/// Message passing is dirty-region residual propagation: only factors whose
/// inputs changed recompute their outgoing messages, a per-Update() message
/// cap bounds the work each round, and unconverged regions carry over to the
/// next round.
///
/// Equivalence invariant (the correctness story, enforced by the
/// differential tests): the maintained factor graph is *bit-identical* to
/// the one a fresh assessor builds from the same graph content, regardless
/// of the event history that produced that content. Two ingredients make
/// this hold:
///
///  1. discovery probes both orientations of an edge, so a cycle whose only
///     valid traversal crosses the newest edge backwards is still found;
///  2. each cycle's scored representation is canonical — the
///     lexicographically smallest closed walk that starts with one of its
///     mappings traversed forward — so the consistency verdict does not
///     depend on which edge's insertion discovered the cycle.
///
/// Consequently AssessWithFixedSchedule() (the deterministic cold-start
/// schedule over the maintained structure) is bit-identical to the same
/// call on a rebuilt assessor. The warm-started fixed point of Update() is
/// a fixed point of the same message operator; on graphs where loopy BP is
/// unambiguous (the realistic regime: dense consistent cycles, few bad
/// edges) it agrees with a rebuilt assessor's converged posteriors within
/// 1e-6. Heavily frustrated graphs can have multiple BP fixed points, in
/// which case only the fixed-schedule equivalence is guaranteed (see
/// incremental_assessor_test).
class IncrementalAssessor : public MappingGraph::Listener {
 public:
  struct Options {
    /// Cycle-enumeration parameters shared with the batch assessor (the
    /// BP model constants live in mapping_assessor.h).
    MappingAssessor::Options assess;
    /// Factor->variable messages recomputed per Update() call. Unconverged
    /// factors stay dirty and resume next round.
    size_t message_cap = 50000;
  };

  struct UpdateStats {
    size_t messages = 0;      // factor->variable messages recomputed
    size_t sweeps = 0;        // dirty-set passes
    size_t dirty_before = 0;  // dirty factors at entry
    size_t dirty_after = 0;   // dirty factors left (cap hit) at exit
    bool converged = false;   // dirty set drained below tolerance
  };

  IncrementalAssessor();
  explicit IncrementalAssessor(Options options);
  ~IncrementalAssessor() override;

  IncrementalAssessor(const IncrementalAssessor&) = delete;
  IncrementalAssessor& operator=(const IncrementalAssessor&) = delete;

  /// Subscribes to `graph` and (re)builds the factor graph from its current
  /// content. Any previous attachment is released. The graph must outlive
  /// the assessor or Detach() must be called first.
  void Attach(MappingGraph* graph);
  void Detach();
  bool attached() const { return graph_ != nullptr; }

  /// Runs capped residual message passing over the dirty region.
  UpdateStats Update();

  /// Warm posteriors from the current messages (call after Update()).
  /// Variables without cycle evidence sit at their prior, exactly like the
  /// batch assessor.
  std::map<std::string, double> Posteriors() const;
  double Posterior(const std::string& id) const;

  /// Cold-start sum-product with the batch assessor's fixed Jacobi schedule
  /// (kBpIterations synchronous sweeps) over the *maintained* structure, in
  /// canonical factor order. Pure: does not touch the incremental message
  /// state. Bit-identical across event histories that yield the same graph
  /// content — the object the differential test compares.
  std::map<std::string, double> AssessWithFixedSchedule() const;

  /// Deterministic fingerprint of the maintained structure: every factor's
  /// canonical cycle, verdict, scope and every variable's prior. Equal
  /// strings mean equal factor graphs.
  std::string StructureDigest() const;

  size_t factor_count() const { return factors_.size(); }
  size_t variable_count() const { return prior_.size(); }
  size_t dirty_count() const { return dirty_.size(); }
  /// Total factor->variable messages recomputed since Attach().
  uint64_t lifetime_messages() const { return lifetime_messages_; }

  const Options& options() const { return options_; }

  // MappingGraph::Listener:
  void OnMappingAdded(const MappingGraph& graph,
                      const std::string& id) override;
  void OnMappingReplaced(const MappingGraph& graph,
                         const std::string& id) override;
  void OnMappingDeprecated(const MappingGraph& graph,
                           const std::string& id) override;
  void OnMappingRemoved(const MappingGraph& graph,
                        const std::string& id) override;

 private:
  /// A factor key is the cycle's unordered edge-id set, sorted. Two
  /// traversals of the same edges are one observation.
  using FactorKey = std::vector<std::string>;

  struct Factor {
    std::vector<std::string> cycle;  // canonical scored representation
    bool consistent = false;
    int attributes_checked = 0;
    std::vector<std::string> vars;  // automatic mappings in scope, sorted
    std::vector<double> msg_fv;     // factor -> vars[i], value = P(good)
    std::vector<double> msg_vf;     // vars[i] -> factor
  };

  void HandleAdd(const MappingGraph& graph, const std::string& id);
  void HandleRemove(const std::string& id);
  void InsertFactor(const MappingGraph& graph, const FactorKey& key);
  void DropFactor(const FactorKey& key);
  void MarkNeighborsDirty(const std::string& var, const FactorKey& except);

  /// All simple-cycle edge-id sets containing `id` (either orientation),
  /// up to assess.max_cycle_len edges.
  std::set<FactorKey> CycleSetsContaining(const MappingGraph& graph,
                                          const std::string& id) const;
  /// Lexicographically smallest closed forward-start walk over `key`, or
  /// empty when no orientation closes (factor skipped).
  std::vector<std::string> CanonicalCycleOrder(const MappingGraph& graph,
                                               const FactorKey& key) const;

  size_t SlotOf(const Factor& f, const std::string& var) const;
  void RefreshVarToFactor(Factor* f);
  double FactorToVarMessage(const Factor& f, size_t slot) const;

  Options options_;
  MappingAssessor checker_;  // CheckCycle implementation + shared knobs
  MappingGraph* graph_ = nullptr;

  std::map<std::string, double> prior_;  // active automatic mappings
  std::map<FactorKey, Factor> factors_;
  /// Every member edge id -> factors whose cycle contains it (including
  /// manual mappings, which are in the cycle but not in scope).
  std::map<std::string, std::set<FactorKey>> edge_index_;
  /// Variable id -> factors where it is in scope.
  std::map<std::string, std::set<FactorKey>> incidence_;
  std::set<FactorKey> dirty_;
  uint64_t lifetime_messages_ = 0;
};

}  // namespace gridvine

#endif  // GRIDVINE_SELFORG_INCREMENTAL_ASSESSOR_H_
