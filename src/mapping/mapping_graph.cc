#include "mapping/mapping_graph.h"

#include <algorithm>
#include <functional>
#include <queue>

#include "common/mem_estimate.h"

namespace gridvine {

void MappingGraph::AddSchema(const std::string& name) { schemas_.insert(name); }

void MappingGraph::AddMapping(const SchemaMapping& mapping) {
  schemas_.insert(mapping.source_schema());
  schemas_.insert(mapping.target_schema());
  std::string serialized = mapping.Serialize();
  auto it = mappings_.find(mapping.id());
  if (it != mappings_.end()) {
    // Re-intern path: only a genuine content change notifies; re-syncing an
    // unchanged record is free.
    if (it->second->Serialize() == serialized) return;
    it->second = MappingPool().Intern(serialized, mapping);
    if (listener_) listener_->OnMappingReplaced(*this, mapping.id());
    return;
  }
  mappings_[mapping.id()] = MappingPool().Intern(serialized, mapping);
  if (listener_) listener_->OnMappingAdded(*this, mapping.id());
}

bool MappingGraph::RemoveMapping(const std::string& id) {
  if (mappings_.erase(id) == 0) return false;
  if (listener_) listener_->OnMappingRemoved(*this, id);
  return true;
}

bool MappingGraph::Deprecate(const std::string& id) {
  auto it = mappings_.find(id);
  if (it == mappings_.end()) return false;
  if (!it->second->deprecated()) {
    // The stored object is shared; swap in an interned deprecated variant
    // instead of writing through it.
    SchemaMapping updated = *it->second;
    updated.set_deprecated(true);
    it->second = MappingPool().Intern(updated.Serialize(), updated);
    if (listener_) listener_->OnMappingDeprecated(*this, id);
  }
  return true;
}

Result<SchemaMapping> MappingGraph::Get(const std::string& id) const {
  auto it = mappings_.find(id);
  if (it == mappings_.end()) return Status::NotFound("no mapping " + id);
  return *it->second;
}

std::shared_ptr<const SchemaMapping> MappingGraph::GetShared(
    const std::string& id) const {
  auto it = mappings_.find(id);
  return it == mappings_.end() ? nullptr : it->second;
}

bool MappingGraph::Contains(const std::string& id) const {
  return mappings_.count(id) > 0;
}

std::vector<std::string> MappingGraph::Schemas() const {
  return std::vector<std::string>(schemas_.begin(), schemas_.end());
}

size_t MappingGraph::active_mapping_count() const {
  size_t n = 0;
  for (const auto& [_, m] : mappings_) {
    if (!m->deprecated()) ++n;
  }
  return n;
}

std::vector<MappingGraph::Edge> MappingGraph::ActiveEdges() const {
  std::vector<Edge> edges;
  for (const auto& [id, m] : mappings_) {
    if (m->deprecated()) continue;
    edges.push_back(Edge{id, m->source_schema(), m->target_schema(), false});
    if (m->bidirectional()) {
      edges.push_back(Edge{id, m->target_schema(), m->source_schema(), true});
    }
  }
  return edges;
}

std::vector<SchemaMapping> MappingGraph::MappingsFrom(
    const std::string& schema) const {
  std::vector<SchemaMapping> out;
  for (const auto& [_, m] : mappings_) {
    if (m->deprecated()) continue;
    if (m->source_schema() == schema) out.push_back(*m);
    if (m->bidirectional() && m->target_schema() == schema) {
      out.push_back(m->Reversed());
    }
  }
  return out;
}

int MappingGraph::InDegree(const std::string& schema) const {
  int n = 0;
  for (const Edge& e : ActiveEdges()) {
    if (e.to == schema) ++n;
  }
  return n;
}

int MappingGraph::OutDegree(const std::string& schema) const {
  int n = 0;
  for (const Edge& e : ActiveEdges()) {
    if (e.from == schema) ++n;
  }
  return n;
}

Result<std::vector<SchemaMapping>> MappingGraph::FindPath(
    const std::string& src, const std::string& dst, int max_hops) const {
  if (src == dst) return std::vector<SchemaMapping>{};
  std::vector<Edge> edges = ActiveEdges();
  // BFS over schemas; parent edge index remembered for reconstruction.
  std::map<std::string, int> parent_edge;
  std::map<std::string, int> depth;
  std::queue<std::string> frontier;
  frontier.push(src);
  depth[src] = 0;
  while (!frontier.empty()) {
    std::string cur = frontier.front();
    frontier.pop();
    if (depth[cur] >= max_hops) continue;
    for (size_t i = 0; i < edges.size(); ++i) {
      const Edge& e = edges[i];
      if (e.from != cur || depth.count(e.to)) continue;
      depth[e.to] = depth[cur] + 1;
      parent_edge[e.to] = int(i);
      if (e.to == dst) {
        // Reconstruct the path backwards.
        std::vector<SchemaMapping> path;
        std::string node = dst;
        while (node != src) {
          const Edge& pe = edges[size_t(parent_edge[node])];
          const SchemaMapping& m = *mappings_.at(pe.mapping_id);
          path.push_back(pe.reversed ? m.Reversed() : m);
          node = pe.from;
        }
        std::reverse(path.begin(), path.end());
        return path;
      }
      frontier.push(e.to);
    }
  }
  return Status::NotFound("no mapping path " + src + " -> " + dst);
}

std::vector<std::vector<std::string>> MappingGraph::CyclesThrough(
    const std::string& id, int max_len) const {
  std::vector<std::vector<std::string>> cycles;
  auto it = mappings_.find(id);
  if (it == mappings_.end() || it->second->deprecated()) return cycles;
  const std::string& home = it->second->source_schema();
  const std::string& start = it->second->target_schema();
  std::vector<Edge> edges = ActiveEdges();

  // DFS over simple paths start -> home (edge `id` traversed first and
  // never reused; schemas not revisited).
  std::vector<std::string> path_ids = {id};
  std::set<std::string> visited = {home, start};
  std::function<void(const std::string&)> dfs = [&](const std::string& cur) {
    if (int(path_ids.size()) >= max_len) return;
    for (const Edge& e : edges) {
      if (e.from != cur) continue;
      if (e.mapping_id == id) continue;  // never reuse the probed mapping
      if (e.to == home) {
        auto cycle = path_ids;
        cycle.push_back(e.mapping_id);
        cycles.push_back(std::move(cycle));
        continue;
      }
      if (visited.count(e.to)) continue;
      visited.insert(e.to);
      path_ids.push_back(e.mapping_id);
      dfs(e.to);
      path_ids.pop_back();
      visited.erase(e.to);
    }
  };
  if (home != start) {
    dfs(start);
  }
  return cycles;
}

double MappingGraph::LargestSccFraction() const {
  if (schemas_.empty()) return 1.0;
  // Tarjan's strongly-connected-components algorithm, iterative to keep
  // stack depth bounded for large schema graphs.
  std::vector<std::string> nodes(schemas_.begin(), schemas_.end());
  std::map<std::string, int> node_index;
  for (size_t i = 0; i < nodes.size(); ++i) node_index[nodes[i]] = int(i);
  std::vector<std::vector<int>> adj(nodes.size());
  for (const Edge& e : ActiveEdges()) {
    adj[size_t(node_index[e.from])].push_back(node_index[e.to]);
  }

  int n = int(nodes.size());
  std::vector<int> index(size_t(n), -1), low(size_t(n), 0);
  std::vector<bool> on_stack(size_t(n), false);
  std::vector<int> stack;
  int next_index = 0;
  size_t largest = 0;

  struct Frame {
    int v;
    size_t child;
  };
  for (int root = 0; root < n; ++root) {
    if (index[size_t(root)] != -1) continue;
    std::vector<Frame> call_stack = {{root, 0}};
    index[size_t(root)] = low[size_t(root)] = next_index++;
    stack.push_back(root);
    on_stack[size_t(root)] = true;
    while (!call_stack.empty()) {
      Frame& f = call_stack.back();
      if (f.child < adj[size_t(f.v)].size()) {
        int w = adj[size_t(f.v)][f.child++];
        if (index[size_t(w)] == -1) {
          index[size_t(w)] = low[size_t(w)] = next_index++;
          stack.push_back(w);
          on_stack[size_t(w)] = true;
          call_stack.push_back({w, 0});
        } else if (on_stack[size_t(w)]) {
          low[size_t(f.v)] = std::min(low[size_t(f.v)], index[size_t(w)]);
        }
      } else {
        if (low[size_t(f.v)] == index[size_t(f.v)]) {
          size_t comp_size = 0;
          while (true) {
            int w = stack.back();
            stack.pop_back();
            on_stack[size_t(w)] = false;
            ++comp_size;
            if (w == f.v) break;
          }
          largest = std::max(largest, comp_size);
        }
        int v = f.v;
        call_stack.pop_back();
        if (!call_stack.empty()) {
          int parent = call_stack.back().v;
          low[size_t(parent)] = std::min(low[size_t(parent)], low[size_t(v)]);
        }
      }
    }
  }
  return double(largest) / double(n);
}

bool MappingGraph::IsStronglyConnected() const {
  return LargestSccFraction() >= 1.0;
}

std::vector<std::pair<int, int>> MappingGraph::DegreeSequence() const {
  std::map<std::string, std::pair<int, int>> degrees;
  for (const auto& s : schemas_) degrees[s] = {0, 0};
  for (const Edge& e : ActiveEdges()) {
    ++degrees[e.to].first;    // in-degree
    ++degrees[e.from].second; // out-degree
  }
  std::vector<std::pair<int, int>> out;
  out.reserve(degrees.size());
  for (const auto& [_, d] : degrees) out.push_back(d);
  return out;
}

size_t MappingGraph::MemoryFootprint() const {
  size_t bytes = RbTreeBytes(schemas_.size(), sizeof(*schemas_.begin())) +
                 RbTreeBytes(mappings_.size(), sizeof(*mappings_.begin()));
  for (const auto& s : schemas_) bytes += StringHeapBytes(s);
  for (const auto& [id, m] : mappings_) {
    (void)m;
    bytes += StringHeapBytes(id);
  }
  return bytes;
}

}  // namespace gridvine
