#ifndef GRIDVINE_MAPPING_MAPPING_GRAPH_H_
#define GRIDVINE_MAPPING_MAPPING_GRAPH_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "mapping/schema_mapping.h"

namespace gridvine {

/// The directed graph whose nodes are schemas and whose edges are
/// (non-deprecated) schema mappings — the structure the self-organization
/// machinery of Section 3 reasons about. A bidirectional mapping contributes
/// an edge in each direction.
///
/// The graph is a *view* a peer assembles (e.g. the connectivity-monitoring
/// peer, or an experiment harness); it stores refcounted interned mappings
/// (MappingPool()), so a thousand peers assembling the same graph share one
/// object per mapping. Deprecation swaps in a re-interned variant rather
/// than mutating the shared object.
class MappingGraph {
 public:
  /// Observer for edge-set changes, fired synchronously *after* the change
  /// is applied (the graph already reflects it when the callback runs). The
  /// incremental mapping assessor subscribes here to maintain its cycle
  /// factor graph without re-enumerating from scratch every round.
  class Listener {
   public:
    virtual ~Listener() = default;
    /// A mapping id not previously present was added.
    virtual void OnMappingAdded(const MappingGraph& graph,
                                const std::string& id) = 0;
    /// AddMapping replaced an existing id with *different* content
    /// (re-intern): correspondences, confidence, deprecation flag or
    /// endpoints changed under the same id.
    virtual void OnMappingReplaced(const MappingGraph& graph,
                                   const std::string& id) = 0;
    /// A previously-active mapping was marked deprecated via Deprecate().
    virtual void OnMappingDeprecated(const MappingGraph& graph,
                                     const std::string& id) = 0;
    /// A mapping was removed entirely.
    virtual void OnMappingRemoved(const MappingGraph& graph,
                                  const std::string& id) = 0;
  };

  MappingGraph() = default;

  void AddSchema(const std::string& name);
  /// Adds or replaces a mapping (keyed by id). Schemas are added implicitly.
  /// Re-adding a mapping whose serialized content is unchanged is a no-op:
  /// no listener event — so periodically re-syncing a view from fetched
  /// records does not disturb a listener's incremental state.
  void AddMapping(const SchemaMapping& mapping);
  /// Removes a mapping entirely; true if present.
  bool RemoveMapping(const std::string& id);
  /// Marks a mapping deprecated (kept, but excluded from edges/paths).
  bool Deprecate(const std::string& id);

  /// At most one listener; pass nullptr to detach. The listener must outlive
  /// the graph or be detached first.
  void SetListener(Listener* listener) { listener_ = listener; }

  Result<SchemaMapping> Get(const std::string& id) const;
  /// The shared immutable object for `id`, or null. No copy.
  std::shared_ptr<const SchemaMapping> GetShared(const std::string& id) const;
  bool Contains(const std::string& id) const;

  std::vector<std::string> Schemas() const;
  size_t schema_count() const { return schemas_.size(); }
  /// Number of non-deprecated mappings.
  size_t active_mapping_count() const;
  size_t mapping_count() const { return mappings_.size(); }

  /// Non-deprecated mappings usable to reformulate *from* `schema`
  /// (including reversed bidirectional ones; those have id "<id>~rev").
  std::vector<SchemaMapping> MappingsFrom(const std::string& schema) const;

  /// In/out degree of a schema counting non-deprecated directed edges.
  int InDegree(const std::string& schema) const;
  int OutDegree(const std::string& schema) const;

  /// Shortest directed path of mappings from `src` to `dst` (BFS), at most
  /// `max_hops` edges. Returns the mappings along the path, empty when
  /// src == dst. NotFound when unreachable.
  Result<std::vector<SchemaMapping>> FindPath(const std::string& src,
                                              const std::string& dst,
                                              int max_hops) const;

  /// All simple directed cycles that start by traversing mapping `id` and
  /// return to its source schema, up to `max_len` edges total. Each cycle is
  /// the edge id sequence. Used by the Bayesian cycle analysis.
  std::vector<std::vector<std::string>> CyclesThrough(const std::string& id,
                                                      int max_len) const;

  /// Fraction of schemas inside the largest strongly connected component
  /// (Tarjan). 1.0 means any schema can reach any other — the paper's
  /// "global interoperability" target.
  double LargestSccFraction() const;

  /// True if every schema can reach every other (LargestSccFraction == 1).
  bool IsStronglyConnected() const;

  /// Degree pairs (in, out) per schema — input to the connectivity
  /// indicator of Section 3.1.
  std::vector<std::pair<int, int>> DegreeSequence() const;

  /// Bytes owned by this view (node names, ref map); shared mapping objects
  /// are accounted in MappingPool().
  size_t MemoryFootprint() const;

 private:
  struct Edge {
    std::string mapping_id;
    std::string from;
    std::string to;
    bool reversed;  // traversal of a bidirectional mapping backwards
  };

  /// Non-deprecated directed edges.
  std::vector<Edge> ActiveEdges() const;

  std::set<std::string> schemas_;
  std::map<std::string, std::shared_ptr<const SchemaMapping>> mappings_;
  Listener* listener_ = nullptr;
};

}  // namespace gridvine

#endif  // GRIDVINE_MAPPING_MAPPING_GRAPH_H_
