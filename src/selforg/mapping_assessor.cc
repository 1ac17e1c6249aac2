#include "selforg/mapping_assessor.h"

#include <algorithm>
#include <set>

namespace gridvine {

MappingAssessor::CycleObservation MappingAssessor::CheckCycle(
    const MappingGraph& graph, const std::vector<std::string>& cycle_ids) const {
  CycleObservation obs;
  obs.mapping_ids = cycle_ids;
  if (cycle_ids.empty()) return obs;

  // Orient each mapping along the traversal (bidirectional edges may be
  // walked backwards).
  auto first = graph.Get(cycle_ids[0]);
  if (!first.ok()) return obs;
  std::string home = first->source_schema();
  std::string cur = home;
  std::vector<SchemaMapping> oriented;
  for (const auto& id : cycle_ids) {
    auto m = graph.Get(id);
    if (!m.ok()) return obs;
    if (m->source_schema() == cur) {
      oriented.push_back(*m);
    } else if (m->bidirectional() && m->target_schema() == cur) {
      oriented.push_back(m->Reversed());
    } else {
      return obs;  // broken chain: no evidence
    }
    cur = oriented.back().target_schema();
  }
  if (cur != home) return obs;  // not a closed cycle

  // Chain every attribute of the home schema that the first mapping covers.
  int consistent = 0;
  int completed = 0;
  for (const auto& [attr, _] : oriented[0].correspondences()) {
    std::string walked = attr;
    bool complete = true;
    for (const auto& m : oriented) {
      auto next = m.MapAttribute(walked);
      if (!next.has_value()) {
        complete = false;
        break;
      }
      walked = *next;
    }
    if (!complete) continue;
    ++completed;
    if (walked == attr) ++consistent;
  }
  obs.attributes_checked = completed;
  if (completed < kMinChainedAttributes) {
    obs.attributes_checked = 0;  // insufficient evidence
    return obs;
  }
  // Majority vote across the chained attributes.
  obs.consistent = 2 * consistent > completed;
  return obs;
}

MappingAssessor::Assessment MappingAssessor::Assess(
    const MappingGraph& graph) const {
  Assessment result;

  // Collect the automatic (assessable) mappings and their priors.
  std::map<std::string, double> prior;
  std::vector<std::string> auto_ids;
  for (const auto& schema : graph.Schemas()) {
    for (const auto& m : graph.MappingsFrom(schema)) {
      // MappingsFrom may return reversed views ("id~rev"); normalize.
      std::string id = m.id();
      if (id.size() > 4 && id.substr(id.size() - 4) == "~rev") {
        id = id.substr(0, id.size() - 4);
      }
      if (prior.count(id)) continue;
      auto orig = graph.Get(id);
      if (!orig.ok() || orig->deprecated()) continue;
      if (orig->provenance() == MappingProvenance::kManual) continue;
      double p = orig->confidence();
      prior[id] = (p > 0 && p < 1) ? p : kDefaultMappingPrior;
      auto_ids.push_back(id);
    }
  }

  // Enumerate cycles through every automatic mapping; deduplicate by the
  // (unordered) set of edges so each cycle is one factor.
  std::set<std::set<std::string>> seen_cycles;
  for (const auto& id : auto_ids) {
    for (const auto& cycle : graph.CyclesThrough(id, options_.max_cycle_len)) {
      std::set<std::string> key(cycle.begin(), cycle.end());
      if (!seen_cycles.insert(key).second) continue;
      CycleObservation obs = CheckCycle(graph, cycle);
      if (obs.attributes_checked > 0) {
        result.observations.push_back(std::move(obs));
      }
    }
  }

  // Factor scopes: only automatic mappings are variables; manual mappings in
  // a cycle are clamped correct and drop out of the factor.
  struct Factor {
    std::vector<std::string> vars;
    bool consistent;
  };
  std::vector<Factor> factors;
  for (const auto& obs : result.observations) {
    Factor f;
    f.consistent = obs.consistent;
    for (const auto& id : obs.mapping_ids) {
      if (prior.count(id)) f.vars.push_back(id);
    }
    if (!f.vars.empty()) factors.push_back(std::move(f));
  }

  // Loopy belief propagation (sum-product) on the bipartite factor graph.
  // msg_fv[f][i]: factor f -> variable f.vars[i], value = P(good).
  // msg_vf mirrors it in the other direction.
  std::vector<std::vector<double>> msg_fv(factors.size());
  std::vector<std::vector<double>> msg_vf(factors.size());
  for (size_t f = 0; f < factors.size(); ++f) {
    msg_fv[f].assign(factors[f].vars.size(), 0.5);
    msg_vf[f].resize(factors[f].vars.size());
    for (size_t i = 0; i < factors[f].vars.size(); ++i) {
      msg_vf[f][i] = prior.at(factors[f].vars[i]);
    }
  }
  // Index: variable -> (factor, slot) incidences.
  std::map<std::string, std::vector<std::pair<size_t, size_t>>> incidence;
  for (size_t f = 0; f < factors.size(); ++f) {
    for (size_t i = 0; i < factors[f].vars.size(); ++i) {
      incidence[factors[f].vars[i]].push_back({f, i});
    }
  }

  const double eps = kCycleEpsilon;
  const double del = kCycleDelta;
  for (int iter = 0; iter < kBpIterations; ++iter) {
    // Factor -> variable.
    for (size_t f = 0; f < factors.size(); ++f) {
      for (size_t i = 0; i < factors[f].vars.size(); ++i) {
        double q = 1.0;  // P(all *other* variables good)
        for (size_t j = 0; j < factors[f].vars.size(); ++j) {
          if (j != i) q *= msg_vf[f][j];
        }
        double mu_good, mu_bad;
        if (factors[f].consistent) {
          mu_good = (1 - eps) * q + del * (1 - q);
          mu_bad = del;
        } else {
          mu_good = eps * q + (1 - del) * (1 - q);
          mu_bad = 1 - del;
        }
        double z = mu_good + mu_bad;
        msg_fv[f][i] = z > 0 ? mu_good / z : 0.5;
      }
    }
    // Variable -> factor.
    for (const auto& [var, slots] : incidence) {
      for (const auto& [f, i] : slots) {
        double good = prior.at(var);
        double bad = 1 - prior.at(var);
        for (const auto& [f2, i2] : slots) {
          if (f2 == f && i2 == i) continue;
          good *= msg_fv[f2][i2];
          bad *= (1 - msg_fv[f2][i2]);
        }
        double z = good + bad;
        msg_vf[f][i] = z > 0 ? good / z : 0.5;
      }
    }
  }

  // Posteriors.
  for (const auto& id : auto_ids) {
    double good = prior.at(id);
    double bad = 1 - good;
    auto it = incidence.find(id);
    if (it != incidence.end()) {
      for (const auto& [f, i] : it->second) {
        good *= msg_fv[f][i];
        bad *= (1 - msg_fv[f][i]);
      }
    }
    double z = good + bad;
    result.posterior[id] = z > 0 ? good / z : prior.at(id);
  }
  return result;
}

}  // namespace gridvine
