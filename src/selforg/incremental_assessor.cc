#include "selforg/incremental_assessor.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <iomanip>
#include <sstream>

namespace gridvine {

namespace {

/// Residual threshold: a message change below this does not re-dirty its
/// neighborhood.
constexpr double kResidualTolerance = 1e-10;

/// MappingsFrom returns reversed views of bidirectional mappings with a
/// "~rev" id suffix; the factor graph works in normalized ids.
std::string NormalizeId(const std::string& id) {
  if (id.size() > 4 && id.compare(id.size() - 4, 4, "~rev") == 0) {
    return id.substr(0, id.size() - 4);
  }
  return id;
}

}  // namespace

IncrementalAssessor::IncrementalAssessor() : IncrementalAssessor(Options()) {}

IncrementalAssessor::IncrementalAssessor(Options options)
    : options_(options), checker_(options.assess) {}

IncrementalAssessor::~IncrementalAssessor() { Detach(); }

void IncrementalAssessor::Attach(MappingGraph* graph) {
  Detach();
  graph_ = graph;
  if (!graph_) return;
  graph_->SetListener(this);
  // Cold rebuild, two passes: every variable's prior first, then factor
  // discovery. A factor found while probing its first member must already
  // see the priors of members probed later, or its scope comes out short.
  std::set<std::string> ids;
  for (const auto& schema : graph_->Schemas()) {
    for (const auto& m : graph_->MappingsFrom(schema)) {
      ids.insert(NormalizeId(m.id()));
    }
  }
  for (const std::string& id : ids) {
    auto m = graph_->GetShared(id);
    if (!m || m->deprecated()) continue;
    if (m->provenance() == MappingProvenance::kAutomatic) {
      double p = m->confidence();
      prior_[id] = (p > 0 && p < 1) ? p : kDefaultMappingPrior;
    }
  }
  for (const std::string& id : ids) {
    for (const FactorKey& key : CycleSetsContaining(*graph_, id)) {
      if (!factors_.count(key)) InsertFactor(*graph_, key);
    }
  }
}

void IncrementalAssessor::Detach() {
  if (graph_) {
    graph_->SetListener(nullptr);
    graph_ = nullptr;
  }
  prior_.clear();
  factors_.clear();
  edge_index_.clear();
  incidence_.clear();
  dirty_.clear();
}

void IncrementalAssessor::OnMappingAdded(const MappingGraph& graph,
                                         const std::string& id) {
  HandleAdd(graph, id);
}

void IncrementalAssessor::OnMappingReplaced(const MappingGraph& graph,
                                            const std::string& id) {
  // Re-intern: correspondences, confidence, endpoints or the deprecation
  // flag changed under the same id. Retire the old evidence, re-derive.
  HandleRemove(id);
  HandleAdd(graph, id);
}

void IncrementalAssessor::OnMappingDeprecated(const MappingGraph& graph,
                                              const std::string& id) {
  (void)graph;
  HandleRemove(id);
}

void IncrementalAssessor::OnMappingRemoved(const MappingGraph& graph,
                                           const std::string& id) {
  (void)graph;
  HandleRemove(id);
}

void IncrementalAssessor::HandleAdd(const MappingGraph& graph,
                                    const std::string& id) {
  auto m = graph.GetShared(id);
  if (!m || m->deprecated()) return;
  if (m->provenance() == MappingProvenance::kAutomatic) {
    double p = m->confidence();
    prior_[id] = (p > 0 && p < 1) ? p : kDefaultMappingPrior;
  }
  for (const FactorKey& key : CycleSetsContaining(graph, id)) {
    if (!factors_.count(key)) InsertFactor(graph, key);
  }
}

void IncrementalAssessor::HandleRemove(const std::string& id) {
  auto eit = edge_index_.find(id);
  if (eit != edge_index_.end()) {
    // DropFactor mutates edge_index_; detach the key list first.
    std::vector<FactorKey> keys(eit->second.begin(), eit->second.end());
    for (const FactorKey& key : keys) DropFactor(key);
  }
  // Every factor scoping the variable contained it as an edge, so the drops
  // above already cleared its incidences.
  prior_.erase(id);
}

void IncrementalAssessor::InsertFactor(const MappingGraph& graph,
                                       const FactorKey& key) {
  std::vector<std::string> cycle = CanonicalCycleOrder(graph, key);
  if (cycle.empty()) return;
  MappingAssessor::CycleObservation obs = checker_.CheckCycle(graph, cycle);
  if (obs.attributes_checked <= 0) return;
  Factor f;
  f.cycle = std::move(obs.mapping_ids);
  f.consistent = obs.consistent;
  f.attributes_checked = obs.attributes_checked;
  for (const std::string& cid : key) {
    if (prior_.count(cid)) f.vars.push_back(cid);  // key sorted -> vars sorted
  }
  // Manual-only cycles carry no assessable variable.
  if (f.vars.empty()) return;
  f.msg_fv.assign(f.vars.size(), 0.5);
  f.msg_vf.resize(f.vars.size());
  for (size_t i = 0; i < f.vars.size(); ++i) {
    f.msg_vf[i] = prior_.at(f.vars[i]);
  }
  for (const std::string& cid : key) edge_index_[cid].insert(key);
  for (const std::string& var : f.vars) {
    incidence_[var].insert(key);
    MarkNeighborsDirty(var, key);
  }
  dirty_.insert(key);
  factors_.emplace(key, std::move(f));
}

void IncrementalAssessor::DropFactor(const FactorKey& key) {
  auto fit = factors_.find(key);
  if (fit == factors_.end()) return;
  const Factor& f = fit->second;
  for (const std::string& cid : key) {
    auto eit = edge_index_.find(cid);
    if (eit != edge_index_.end()) {
      eit->second.erase(key);
      if (eit->second.empty()) edge_index_.erase(eit);
    }
  }
  for (const std::string& var : f.vars) {
    auto iit = incidence_.find(var);
    if (iit != incidence_.end()) {
      iit->second.erase(key);
      if (iit->second.empty()) incidence_.erase(iit);
    }
    // Survivors lose an input message; their outputs must recompute.
    MarkNeighborsDirty(var, key);
  }
  dirty_.erase(key);
  factors_.erase(fit);
}

void IncrementalAssessor::MarkNeighborsDirty(const std::string& var,
                                             const FactorKey& except) {
  auto iit = incidence_.find(var);
  if (iit == incidence_.end()) return;
  for (const FactorKey& key : iit->second) {
    if (key != except) dirty_.insert(key);
  }
}

std::set<IncrementalAssessor::FactorKey> IncrementalAssessor::CycleSetsContaining(
    const MappingGraph& graph, const std::string& id) const {
  std::set<FactorKey> out;
  auto m = graph.GetShared(id);
  if (!m || m->deprecated()) return out;
  const int max_len = options_.assess.max_cycle_len;

  // Probe both orientations: a cycle whose only valid traversal crosses
  // this edge backwards (bidirectional) would be invisible to a
  // forward-only probe.
  std::vector<std::pair<std::string, std::string>> probes = {
      {m->source_schema(), m->target_schema()}};
  if (m->bidirectional()) {
    probes.push_back({m->target_schema(), m->source_schema()});
  }
  for (const auto& [home, start] : probes) {
    if (home == start) continue;
    std::vector<std::string> path = {id};
    std::set<std::string> visited = {home, start};
    std::function<void(const std::string&)> dfs = [&](const std::string& cur) {
      if (int(path.size()) >= max_len) return;
      for (const auto& edge : graph.MappingsFrom(cur)) {
        std::string eid = NormalizeId(edge.id());
        if (eid == id) continue;
        if (std::find(path.begin(), path.end(), eid) != path.end()) continue;
        const std::string& to = edge.target_schema();
        if (to == home) {
          FactorKey key(path.begin(), path.end());
          key.push_back(eid);
          std::sort(key.begin(), key.end());
          out.insert(std::move(key));
          continue;
        }
        if (visited.count(to)) continue;
        visited.insert(to);
        path.push_back(eid);
        dfs(to);
        path.pop_back();
        visited.erase(to);
      }
    };
    dfs(start);
  }
  return out;
}

std::vector<std::string> IncrementalAssessor::CanonicalCycleOrder(
    const MappingGraph& graph, const FactorKey& key) const {
  // A simple cycle gives every schema exactly two incident edges, so a walk
  // that fixes the start edge (traversed forward, as CheckCycle demands of
  // the first mapping) is forced. Try every start edge; keep the
  // lexicographically smallest closed walk.
  std::vector<std::string> best;
  for (const std::string& start_id : key) {
    auto s = graph.GetShared(start_id);
    if (!s) continue;
    const std::string& home = s->source_schema();
    std::string cur = s->target_schema();
    std::vector<std::string> seq = {start_id};
    std::set<std::string> used = {start_id};
    bool ok = true;
    while (ok && used.size() < key.size()) {
      std::string chosen;
      std::string next_schema;
      for (const std::string& cid : key) {
        if (used.count(cid)) continue;
        auto c = graph.GetShared(cid);
        if (!c) {
          ok = false;
          break;
        }
        // Same orientation precedence as CheckCycle: forward first.
        if (c->source_schema() == cur) {
          chosen = cid;
          next_schema = c->target_schema();
          break;
        }
        if (c->bidirectional() && c->target_schema() == cur) {
          chosen = cid;
          next_schema = c->source_schema();
          break;
        }
      }
      if (chosen.empty()) {
        ok = false;
        break;
      }
      seq.push_back(chosen);
      used.insert(chosen);
      cur = next_schema;
    }
    if (ok && cur == home) {
      if (best.empty() || seq < best) best = seq;
    }
  }
  return best;
}

size_t IncrementalAssessor::SlotOf(const Factor& f,
                                   const std::string& var) const {
  auto it = std::lower_bound(f.vars.begin(), f.vars.end(), var);
  return size_t(it - f.vars.begin());
}

void IncrementalAssessor::RefreshVarToFactor(Factor* f) {
  for (size_t i = 0; i < f->vars.size(); ++i) {
    const std::string& var = f->vars[i];
    double good = prior_.at(var);
    double bad = 1 - good;
    auto iit = incidence_.find(var);
    if (iit != incidence_.end()) {
      for (const FactorKey& other : iit->second) {
        const Factor& g = factors_.at(other);
        if (&g == f) continue;
        size_t slot = SlotOf(g, var);
        good *= g.msg_fv[slot];
        bad *= (1 - g.msg_fv[slot]);
      }
    }
    double z = good + bad;
    f->msg_vf[i] = z > 0 ? good / z : 0.5;
  }
}

double IncrementalAssessor::FactorToVarMessage(const Factor& f,
                                               size_t slot) const {
  double q = 1.0;  // P(all *other* variables good)
  for (size_t j = 0; j < f.vars.size(); ++j) {
    if (j != slot) q *= f.msg_vf[j];
  }
  const double eps = kCycleEpsilon;
  const double del = kCycleDelta;
  double mu_good, mu_bad;
  if (f.consistent) {
    mu_good = (1 - eps) * q + del * (1 - q);
    mu_bad = del;
  } else {
    mu_good = eps * q + (1 - del) * (1 - q);
    mu_bad = 1 - del;
  }
  double z = mu_good + mu_bad;
  return z > 0 ? mu_good / z : 0.5;
}

IncrementalAssessor::UpdateStats IncrementalAssessor::Update() {
  UpdateStats stats;
  stats.dirty_before = dirty_.size();
  while (!dirty_.empty()) {
    std::set<FactorKey> snapshot;
    snapshot.swap(dirty_);
    ++stats.sweeps;
    for (auto it = snapshot.begin(); it != snapshot.end(); ++it) {
      auto fit = factors_.find(*it);
      if (fit == factors_.end()) continue;
      Factor& f = fit->second;
      if (stats.messages + f.vars.size() > options_.message_cap) {
        // Budget exhausted: the unprocessed remainder stays dirty and
        // resumes on the next Update() call.
        for (; it != snapshot.end(); ++it) dirty_.insert(*it);
        stats.dirty_after = dirty_.size();
        lifetime_messages_ += stats.messages;
        return stats;
      }
      RefreshVarToFactor(&f);
      for (size_t i = 0; i < f.vars.size(); ++i) {
        double next = FactorToVarMessage(f, i);
        ++stats.messages;
        if (std::fabs(next - f.msg_fv[i]) > kResidualTolerance) {
          MarkNeighborsDirty(f.vars[i], fit->first);
        }
        f.msg_fv[i] = next;
      }
    }
  }
  stats.converged = true;
  stats.dirty_after = dirty_.size();
  lifetime_messages_ += stats.messages;
  return stats;
}

std::map<std::string, double> IncrementalAssessor::Posteriors() const {
  std::map<std::string, double> post;
  for (const auto& [id, p] : prior_) {
    post[id] = Posterior(id);
    (void)p;
  }
  return post;
}

double IncrementalAssessor::Posterior(const std::string& id) const {
  auto pit = prior_.find(id);
  if (pit == prior_.end()) return 0.0;
  double good = pit->second;
  double bad = 1 - good;
  auto iit = incidence_.find(id);
  if (iit != incidence_.end()) {
    for (const FactorKey& key : iit->second) {
      const Factor& f = factors_.at(key);
      size_t slot = SlotOf(f, id);
      good *= f.msg_fv[slot];
      bad *= (1 - f.msg_fv[slot]);
    }
  }
  double z = good + bad;
  return z > 0 ? good / z : pit->second;
}

std::map<std::string, double> IncrementalAssessor::AssessWithFixedSchedule()
    const {
  // The batch assessor's synchronous (Jacobi) schedule — all factor->var
  // messages from the previous iteration's var->factor messages, then all
  // var->factor — over the maintained factors in canonical key order,
  // cold-started. Within a phase the result depends only on the factor
  // multiset, and the multiply order is the canonical order, so identical
  // structures give bit-identical posteriors.
  struct LocalFactor {
    const Factor* f;
    std::vector<double> fv, vf;
  };
  std::vector<LocalFactor> lf;
  lf.reserve(factors_.size());
  for (const auto& [key, f] : factors_) {
    (void)key;
    LocalFactor l;
    l.f = &f;
    l.fv.assign(f.vars.size(), 0.5);
    l.vf.resize(f.vars.size());
    for (size_t i = 0; i < f.vars.size(); ++i) l.vf[i] = prior_.at(f.vars[i]);
    lf.push_back(std::move(l));
  }
  std::map<std::string, std::vector<std::pair<size_t, size_t>>> inc;
  for (size_t fi = 0; fi < lf.size(); ++fi) {
    for (size_t i = 0; i < lf[fi].f->vars.size(); ++i) {
      inc[lf[fi].f->vars[i]].push_back({fi, i});
    }
  }
  const double eps = kCycleEpsilon;
  const double del = kCycleDelta;
  for (int iter = 0; iter < kBpIterations; ++iter) {
    for (auto& l : lf) {
      for (size_t i = 0; i < l.vf.size(); ++i) {
        double q = 1.0;
        for (size_t j = 0; j < l.vf.size(); ++j) {
          if (j != i) q *= l.vf[j];
        }
        double mu_good, mu_bad;
        if (l.f->consistent) {
          mu_good = (1 - eps) * q + del * (1 - q);
          mu_bad = del;
        } else {
          mu_good = eps * q + (1 - del) * (1 - q);
          mu_bad = 1 - del;
        }
        double z = mu_good + mu_bad;
        l.fv[i] = z > 0 ? mu_good / z : 0.5;
      }
    }
    for (const auto& [var, slots] : inc) {
      for (const auto& [fi, i] : slots) {
        double good = prior_.at(var);
        double bad = 1 - good;
        for (const auto& [f2, i2] : slots) {
          if (f2 == fi && i2 == i) continue;
          good *= lf[f2].fv[i2];
          bad *= (1 - lf[f2].fv[i2]);
        }
        double z = good + bad;
        lf[fi].vf[i] = z > 0 ? good / z : 0.5;
      }
    }
  }
  std::map<std::string, double> post;
  for (const auto& [id, p] : prior_) {
    double good = p;
    double bad = 1 - p;
    auto it = inc.find(id);
    if (it != inc.end()) {
      for (const auto& [fi, i] : it->second) {
        good *= lf[fi].fv[i];
        bad *= (1 - lf[fi].fv[i]);
      }
    }
    double z = good + bad;
    post[id] = z > 0 ? good / z : p;
  }
  return post;
}

std::string IncrementalAssessor::StructureDigest() const {
  std::ostringstream os;
  os << std::setprecision(17);
  for (const auto& [id, p] : prior_) {
    os << "var " << id << " prior=" << p << "\n";
  }
  for (const auto& [key, f] : factors_) {
    os << "factor";
    for (const auto& id : key) os << " " << id;
    os << " cycle=";
    for (size_t i = 0; i < f.cycle.size(); ++i) {
      if (i) os << ">";
      os << f.cycle[i];
    }
    os << " consistent=" << (f.consistent ? 1 : 0)
       << " attrs=" << f.attributes_checked << " vars=";
    for (size_t i = 0; i < f.vars.size(); ++i) {
      if (i) os << ",";
      os << f.vars[i];
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace gridvine
