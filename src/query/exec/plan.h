#ifndef GRIDVINE_QUERY_EXEC_PLAN_H_
#define GRIDVINE_QUERY_EXEC_PLAN_H_

#include <cstddef>
#include <string>
#include <vector>

namespace gridvine {

/// Physical operators of the distributed conjunctive executor. A plan is a
/// shallow DAG: one operator chain per join-connected pattern group (the
/// groups execute concurrently), then a tail that merges the group outputs
/// (cross-group LocalJoin), restricts to the distinguished variables
/// (Project) and drops duplicates (Dedup).
enum class OpKind {
  /// Fetch one pattern's full extent from the peer(s) owning its routing
  /// key (or key range).
  kRemoteScan,
  /// Substitute the running bindings into the pattern and dispatch the
  /// resulting constant-bound probes toward the data, batched per
  /// destination key region (bind-join pushdown): bytes shipped scale with
  /// the running join's selectivity, not the pattern's extent.
  kBindJoin,
  /// Hash-join the preceding scan's rows into the running binding set at
  /// the issuer (collect-then-join; also the cross-group merge).
  kLocalJoin,
  /// A fully-constant pattern: existence lookup at its subject key,
  /// yielding an empty-or-singleton row.
  kExistenceCheck,
  /// Restrict rows to the distinguished variables.
  kProject,
  /// Drop duplicate rows (compact interned keys, no per-row strings).
  kDedup,
};

const char* OpKindName(OpKind kind);

/// One operator application. `pattern` indexes ConjunctiveQuery::patterns()
/// for the pattern-driven operators and is kNoPattern for structural ones
/// (LocalJoin, Project, Dedup).
struct PlanStep {
  static constexpr size_t kNoPattern = static_cast<size_t>(-1);

  OpKind kind;
  size_t pattern = kNoPattern;
};

/// One join-connected component of the query's patterns, executed as a
/// sequential operator chain — concurrently with the other groups.
struct PlanGroup {
  /// Member patterns in execution order (cheapest first, then join-connected
  /// cheapest; ties broken by original pattern index, so plans are identical
  /// across runs and platforms).
  std::vector<size_t> patterns;
  /// The operator chain resolving this group to a binding set.
  std::vector<PlanStep> steps;
  /// Plans built with estimates only (empty otherwise, and on existence
  /// checks): the estimated running join cardinality after each pattern in
  /// `patterns`, parallel to it. 0 marks a position the model could not
  /// estimate — the adaptive executor skips its divergence check there.
  std::vector<double> est_cards;
};

/// The physical plan for one conjunctive query.
struct PhysicalPlan {
  std::vector<PlanGroup> groups;
  /// Merge tail: one LocalJoin per extra group (cross product when the
  /// groups share no variables — they never do, by construction), then
  /// Project, then Dedup.
  std::vector<PlanStep> tail;

  /// The flattened pattern order, group-major — the legacy PlanConjunctive
  /// contract (and the order the serial engine used to execute).
  std::vector<size_t> Order() const;

  std::string ToString() const;
};

}  // namespace gridvine

#endif  // GRIDVINE_QUERY_EXEC_PLAN_H_
