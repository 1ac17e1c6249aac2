#ifndef GRIDVINE_QUERY_PLANNER_H_
#define GRIDVINE_QUERY_PLANNER_H_

#include <vector>

#include "query/exec/plan.h"
#include "query/query.h"
#include "query/stats/sketch.h"

namespace gridvine {

/// How cheaply (and how selectively) one triple pattern can be resolved in
/// the distributed engine, best first. The ordering doubles as a selectivity
/// estimate: an exact subject names one resource; an exact object value is
/// rarer than a predicate shared by a whole relation; a range ("abc%")
/// multicast costs more than any single lookup; a pattern with no routable
/// constant cannot start a conjunction at all.
enum class PatternCost {
  kExactSubject = 0,
  kExactObject = 1,
  kExactPredicate = 2,
  kRange = 3,
  kUnroutable = 4,
};

/// Classifies one pattern.
PatternCost ClassifyPattern(const TriplePattern& pattern);

struct PlanOptions {
  /// When true (default), each pattern after a group's first is resolved by
  /// pushing the running bindings toward the data (kBindJoin); when false,
  /// every pattern is fetched in full and joined at the issuer
  /// (kRemoteScan + kLocalJoin — the collect-then-join baseline), except an
  /// unroutable pattern, which a full fetch cannot resolve: it always binds.
  bool bind_join = true;
  /// Per-pattern cardinality estimates, parallel to query.patterns().
  /// Patterns are chained by estimated running join cardinality and each
  /// post-lead edge picks bind-join vs collect from estimated probe/extent
  /// row counts. Patterns whose estimate is absent or !known rank by the
  /// greedy (PatternCost, index) key, so empty (the default) gives the
  /// greedy order with `bind_join` deciding the edges, and leaves every
  /// group's est_cards empty.
  std::vector<PatternEstimate> estimates;
};

/// Builds the physical plan for a conjunctive query: patterns are split into
/// join-connected groups (union-find over shared variables; a fully-constant
/// pattern is its own group, planned as an existence check), each group's
/// chain orders its patterns cheapest-first with the join-connected
/// constraint, and the tail merges the groups. Ties are broken by original
/// pattern index everywhere, so the plan is identical across runs and
/// platforms. Groups are ordered by their cheapest (cost, index) pattern;
/// the flattened PhysicalPlan::Order() reproduces the serial planner's
/// order exactly.
PhysicalPlan PlanPhysical(const ConjunctiveQuery& query,
                          const PlanOptions& options = {});

/// Execution order for a conjunctive query's patterns: cheapest/most
/// selective first, with the constraint that every pattern after the first
/// shares a variable with some earlier pattern where possible (keeps the
/// running join bounded instead of building cross products). Returns indexes
/// into `query.patterns()`. Equivalent to PlanPhysical(query).Order().
std::vector<size_t> PlanConjunctive(const ConjunctiveQuery& query);

/// A re-planned continuation of one group's operator chain, produced when
/// the adaptive executor observes a cardinality far from the estimate: the
/// remaining patterns re-ordered by the cost model against the *observed*
/// prefix cardinality, with fresh per-edge bind/collect choices.
struct GroupSuffix {
  std::vector<size_t> patterns;
  std::vector<PlanStep> steps;
  std::vector<double> est_cards;
};

/// Re-plans the unexecuted tail of a group. `consumed` are the group's
/// already-executed pattern indexes (their variables are bound),
/// `remaining` the unexecuted ones, `prefix_card` the observed cardinality
/// of the running binding set. Deterministic: equal inputs give equal
/// suffixes.
GroupSuffix PlanGroupSuffix(const ConjunctiveQuery& query,
                            const std::vector<size_t>& consumed,
                            const std::vector<size_t>& remaining,
                            double prefix_card, const PlanOptions& options);

}  // namespace gridvine

#endif  // GRIDVINE_QUERY_PLANNER_H_
