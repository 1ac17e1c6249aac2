#include "query/planner.h"

#include <algorithm>
#include <climits>
#include <cstdint>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <utility>

namespace gridvine {

PatternCost ClassifyPattern(const TriplePattern& pattern) {
  if (pattern.IsExactConstant(TriplePos::kSubject)) {
    return PatternCost::kExactSubject;
  }
  if (pattern.IsExactConstant(TriplePos::kObject)) {
    return PatternCost::kExactObject;
  }
  if (pattern.IsExactConstant(TriplePos::kPredicate)) {
    return PatternCost::kExactPredicate;
  }
  if (pattern.ObjectRangePrefix().has_value()) return PatternCost::kRange;
  return PatternCost::kUnroutable;
}

namespace {

/// The estimate for pattern `i`, or nullptr when absent/unknown.
const PatternEstimate* EstOf(const PlanOptions& options, size_t i) {
  if (i < options.estimates.size() && options.estimates[i].known) {
    return &options.estimates[i];
  }
  return nullptr;
}

/// Distinct values the running join can present as probe keys into `p`:
/// the largest distinct-count sketch among the pattern's already-bound
/// variable positions. 1 when the pattern shares no bound variable (cross
/// product — no key reduction).
double JoinKeyDistinct(const TriplePattern& p, const PatternEstimate& e,
                       const std::set<std::string>& bound_vars) {
  double d = 1.0;
  if (p.subject().IsVariable() && bound_vars.count(p.subject().value())) {
    d = std::max(d, e.distinct_subjects);
  }
  if (p.object().IsVariable() && bound_vars.count(p.object().value())) {
    d = std::max(d, e.distinct_objects);
  }
  return std::max(1.0, d);
}

struct CostChain {
  std::vector<size_t> order;
  std::vector<PlanStep> steps;
  std::vector<double> est_cards;
};

/// The planner's one chain ordering, shared by PlanPhysical (have_prefix =
/// false: the chain starts with a RemoteScan lead) and PlanGroupSuffix
/// (have_prefix = true: every appended pattern extends an existing binding
/// set). At each step the connected candidate with the smallest estimated
/// resulting cardinality wins; candidates without an estimate rank after
/// estimated ones by the greedy (PatternCost, index) key, so without
/// estimates the chain is the greedy order: cheapest first, then the
/// cheapest pattern sharing a variable with the prefix, ties to the lowest
/// index.
CostChain OrderComponentCost(const std::vector<TriplePattern>& patterns,
                             std::vector<size_t> remaining,
                             std::set<std::string> bound_vars,
                             double prefix_card, bool have_prefix,
                             const PlanOptions& options) {
  CostChain out;
  // Running cardinality estimate; < 0 while unknown (no estimated pattern
  // consumed yet, or an unestimated pattern broke the chain).
  double cur = have_prefix ? prefix_card : -1.0;
  bool first = !have_prefix;
  while (!remaining.empty()) {
    // The chain's first pattern resolves as a full RemoteScan, which an
    // unroutable pattern cannot serve — so the lead pick prefers routable
    // candidates outright, whatever their estimates say.
    const bool lead_pick = first && out.order.empty();
    size_t best_slot = 0;
    bool best_connected = false;
    bool best_routable = false;
    bool best_known = false;
    double best_joined = 0;
    int best_cls = INT_MAX;
    size_t best_idx = SIZE_MAX;
    bool have_best = false;
    for (size_t slot = 0; slot < remaining.size(); ++slot) {
      const size_t idx = remaining[slot];
      const TriplePattern& p = patterns[idx];
      bool connected = lead_pick;
      for (const auto& var : p.Variables()) {
        if (bound_vars.count(var)) connected = true;
      }
      const PatternEstimate* e = EstOf(options, idx);
      bool known = e != nullptr;
      double joined = 0;
      if (known) {
        joined = e->rows;
        if (!lead_pick && cur >= 0) {
          joined = cur * e->rows / JoinKeyDistinct(p, *e, bound_vars);
        }
      }
      int cls = int(ClassifyPattern(p));
      bool routable = cls != int(PatternCost::kUnroutable);
      auto better = [&] {
        if (connected != best_connected) return connected;
        if (lead_pick && routable != best_routable) return routable;
        if (known != best_known) return known;
        if (known && best_known && joined != best_joined) {
          return joined < best_joined;
        }
        if (cls != best_cls) return cls < best_cls;
        return idx < best_idx;
      };
      if (!have_best || better()) {
        have_best = true;
        best_slot = slot;
        best_connected = connected;
        best_routable = routable;
        best_known = known;
        best_joined = joined;
        best_cls = cls;
        best_idx = idx;
      }
    }
    const size_t chosen = remaining[best_slot];
    remaining.erase(remaining.begin() + ptrdiff_t(best_slot));
    const TriplePattern& p = patterns[chosen];
    const PatternEstimate* e = EstOf(options, chosen);

    const bool lead = first && out.order.empty();
    if (lead) {
      out.steps.push_back({OpKind::kRemoteScan, chosen});
      out.steps.push_back({OpKind::kLocalJoin});
    } else {
      // Per-edge strategy: ship the running join's keys out and matches
      // back (bind) vs ship the full extent (collect). An unroutable
      // pattern can only be resolved with bound constants, so it always
      // binds; without estimates the configured default applies.
      bool can_collect = ClassifyPattern(p) != PatternCost::kUnroutable;
      bool bind = options.bind_join;
      if (bind && can_collect && e != nullptr && cur >= 0) {
        double probes = std::min(cur, JoinKeyDistinct(p, *e, bound_vars));
        double joined = cur * e->rows / JoinKeyDistinct(p, *e, bound_vars);
        bind = probes + joined <= e->rows;
      }
      if (!can_collect) bind = true;
      if (bind) {
        out.steps.push_back({OpKind::kBindJoin, chosen});
      } else {
        out.steps.push_back({OpKind::kRemoteScan, chosen});
        out.steps.push_back({OpKind::kLocalJoin});
      }
    }

    if (e != nullptr) {
      if (lead || cur < 0) {
        cur = e->rows;
      } else {
        cur = cur * e->rows / JoinKeyDistinct(p, *e, bound_vars);
      }
    } else {
      cur = -1.0;  // estimate chain broken
    }
    out.order.push_back(chosen);
    out.est_cards.push_back(cur >= 0 ? cur : 0.0);
    for (const auto& var : p.Variables()) bound_vars.insert(var);
  }
  return out;
}

}  // namespace

PhysicalPlan PlanPhysical(const ConjunctiveQuery& query,
                          const PlanOptions& options) {
  const auto& patterns = query.patterns();
  const size_t n = patterns.size();

  // Union-find over shared variables: patterns sharing a variable join into
  // one component; a fully-constant pattern stays alone.
  std::vector<size_t> parent(n);
  std::iota(parent.begin(), parent.end(), size_t{0});
  auto find = [&parent](size_t i) {
    while (parent[i] != i) {
      parent[i] = parent[parent[i]];
      i = parent[i];
    }
    return i;
  };
  std::map<std::string, size_t> var_owner;
  for (size_t i = 0; i < n; ++i) {
    for (const auto& var : patterns[i].Variables()) {
      auto [it, fresh] = var_owner.emplace(var, i);
      if (!fresh) parent[find(i)] = find(it->second);
    }
  }

  std::map<size_t, std::vector<size_t>> components;  // root -> members
  for (size_t i = 0; i < n; ++i) components[find(i)].push_back(i);

  PhysicalPlan plan;
  for (auto& [root, members] : components) {
    PlanGroup g;
    if (members.size() == 1 && patterns[members[0]].Variables().empty()) {
      g.patterns = std::move(members);
      g.steps.push_back({OpKind::kExistenceCheck, g.patterns[0]});
    } else {
      CostChain chain = OrderComponentCost(patterns, std::move(members), {},
                                           0, /*have_prefix=*/false, options);
      g.patterns = std::move(chain.order);
      g.steps = std::move(chain.steps);
      // Without estimates there is nothing for the adaptive executor to
      // compare observations against.
      if (!options.estimates.empty()) g.est_cards = std::move(chain.est_cards);
    }
    plan.groups.push_back(std::move(g));
  }
  // Groups run cheapest-lead first — the order the serial planner would
  // reach them in, so Order() matches the legacy contract.
  auto lead_key = [&patterns](const PlanGroup& g) {
    return std::pair(int(ClassifyPattern(patterns[g.patterns[0]])),
                     g.patterns[0]);
  };
  std::sort(plan.groups.begin(), plan.groups.end(),
            [&](const PlanGroup& a, const PlanGroup& b) {
              return lead_key(a) < lead_key(b);
            });
  for (size_t gi = 1; gi < plan.groups.size(); ++gi) {
    plan.tail.push_back({OpKind::kLocalJoin});
  }
  plan.tail.push_back({OpKind::kProject});
  plan.tail.push_back({OpKind::kDedup});
  return plan;
}

std::vector<size_t> PlanConjunctive(const ConjunctiveQuery& query) {
  return PlanPhysical(query).Order();
}

GroupSuffix PlanGroupSuffix(const ConjunctiveQuery& query,
                            const std::vector<size_t>& consumed,
                            const std::vector<size_t>& remaining,
                            double prefix_card, const PlanOptions& options) {
  std::set<std::string> bound_vars;
  for (size_t idx : consumed) {
    for (const auto& var : query.patterns()[idx].Variables()) {
      bound_vars.insert(var);
    }
  }
  CostChain chain =
      OrderComponentCost(query.patterns(), remaining, std::move(bound_vars),
                         prefix_card, /*have_prefix=*/true, options);
  GroupSuffix suffix;
  suffix.patterns = std::move(chain.order);
  suffix.steps = std::move(chain.steps);
  suffix.est_cards = std::move(chain.est_cards);
  return suffix;
}

}  // namespace gridvine
