#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <unordered_map>

#include "common/rng.h"

namespace gvbench {

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  return Mix64(Mix64(seed) ^ (stream * 0x9e3779b97f4a7c15ULL));
}

std::string Numbered(std::string prefix, size_t n) {
  // Appending avoids GCC 12's false -Wrestrict on "literal" + std::string.
  prefix += std::to_string(n);
  return prefix;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0 : sum / double(v.size());
}

Tail TailOf(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const double n = double(v.size());
  for (double pct : {99.9, 99.0, 90.0}) {
    // Nearest rank; the samples strictly above it are "beyond".
    const size_t rank = size_t(std::ceil(pct / 100.0 * n - 1e-9));
    if (rank >= 1 && v.size() - rank >= 10) {
      t.value = v[rank - 1];
      t.pct = pct;
      return t;
    }
  }
  t.value = Median(v);
  return t;
}

void HostSpans::Begin(const char* name) {
  const double now =
      std::chrono::duration<double, std::micro>(Clock::now() - origin_)
          .count();
  spans_.push_back({name, now, -1, open_.empty() ? -1 : open_.back()});
  open_.push_back(int(spans_.size()) - 1);
}

void HostSpans::End() {
  if (open_.empty()) return;
  spans_[open_.back()].end_us =
      std::chrono::duration<double, std::micro>(Clock::now() - origin_)
          .count();
  open_.pop_back();
}

bool HostSpans::WriteChromeJson(const std::string& path) const {
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0 && s.end_us >= 0) {
      child_us[size_t(s.parent)] += s.end_us - s.start_us;
    }
  }
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double dur = s.end_us >= 0 ? s.end_us - s.start_us : 0;
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"self_us\":%.3f}}",
                 i == 0 ? "" : ",", s.name, s.start_us, dur, i, s.parent,
                 dur - child_us[i]);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

void Digest::Mix(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xff;
    h_ *= 1099511628211ULL;
  }
}

void Digest::Mix(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  Mix(bits);
}

void Digest::Mix(std::string_view s) {
  for (unsigned char c : s) {
    h_ ^= c;
    h_ *= 1099511628211ULL;
  }
  Mix(uint64_t(s.size()));
}

namespace {

bool IsOperationSpan(std::string_view name) {
  return name.rfind("op.", 0) == 0 || name.rfind("exec.", 0) == 0;
}

bool IsQueryRoot(const Tracer::Span& s) {
  return s.parent_id == 0 && s.end >= 0 &&
         (s.name == "op.search" || s.name == "op.serve" ||
          s.name == "op.cquery");
}

}  // namespace

void TraceStats::Discard(TraceView& view) {
  evicted += view.evicted();
  view.Clear();
}

void TraceStats::Drain(TraceView& view,
                       const std::vector<uint64_t>& trace_ids) {
  TraceAnalyzer an(view.Snapshot());
  Discard(view);
  struct Counts {
    size_t hops = 0;
    size_t retries = 0;
  };
  std::unordered_map<uint64_t, Counts> per_trace;
  std::vector<uint64_t> roots;
  for (const Tracer::Span& s : an.spans()) {
    if (s.name == "op.retry") {
      const Tracer::Span* parent = an.Find(s.parent_id);
      if (parent != nullptr &&
          (parent->name == "op.dispatch" || parent->name == "op.bound_scan")) {
        ++per_trace[s.trace_id].retries;
      }
    } else if (!IsOperationSpan(s.name)) {
      ++per_trace[s.trace_id].hops;
    }
    if (trace_ids.empty() && IsQueryRoot(s)) roots.push_back(s.trace_id);
  }
  for (uint64_t id : trace_ids.empty() ? roots : trace_ids) {
    const TraceAnalyzer::CriticalPath path = an.CriticalPathFor(id);
    if (path.total <= 0) continue;  // root not in this snapshot, or open
    const Counts c = per_trace[id];
    hops.push_back(double(c.hops));
    dispatch_retries.push_back(double(c.retries));
    cp.total += path.total;
    cp.queue += path.queue;
    cp.service += path.service;
    cp.network += path.network;
    cp.retry += path.retry;
    cp.compute += path.compute;
  }
}

void Pass::Error(std::string what) {
  // The first few violations are enough to diagnose a failed gate.
  if (errors.size() < 8) errors.push_back(std::move(what));
  if (errors.size() == 8) errors.push_back("...");
}

double Pass::Check(const std::vector<std::string>& returned,
                   const std::vector<std::string>& reference,
                   const std::string& what) {
  std::vector<std::string> matched;
  std::set_intersection(returned.begin(), returned.end(), reference.begin(),
                        reference.end(), std::back_inserter(matched));
  if (matched.size() != returned.size()) {
    Error(what + ": " + std::to_string(returned.size() - matched.size()) +
          " returned rows outside the reference answer");
  }
  return reference.empty()
             ? 1.0
             : double(matched.size()) / double(reference.size());
}

void Pass::Score(const std::vector<std::string>& returned,
                 const std::vector<std::string>& reference,
                 const std::string& what) {
  recall_sum += Check(returned, reference, what);
  ++recall_n;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t rank = size_t(std::ceil(q * double(v.size()) - 1e-9));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

std::vector<std::string> ReferenceAnswer(const TripleStore& reference,
                                         const TriplePattern& pattern,
                                         const std::string& var) {
  std::vector<std::string> out;
  for (const BindingSet& row : reference.MatchPattern(pattern)) {
    auto it = row.find(var);
    if (it != row.end()) out.push_back(it->second.value());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<std::string> ReturnedValues(const GridVinePeer::QueryResult& r) {
  std::vector<std::string> out;
  out.reserve(r.items.size());
  for (const auto& item : r.items) out.push_back(item.value.value());
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

namespace {

// Counters this benchmark reads; everything else in the snapshot is ignored.
const char* const kCounters[] = {
    "events",
    "net.messages_sent",
    "net.bytes_sent",
    "net.messages_dropped",
    "sim.shard.epochs",
    "sim.shard.events",
    "pgrid.forwards",
    "pgrid.retries",
    "pgrid.failovers",
    "pgrid.timeouts",
    "pgrid.routing_dead_ends",
    "gv.frontend.shed",
    "gv.frontend.max_queue_depth",
    "gv.batch.items",
    "gv.batch.flushes",
    "gv.result_rows_sent",
    "gv.cache.hits",
    "gv.cache.misses",
    "gv.cache.invalidations",
    "gv.cache.negative_hits",
};

double Get(const MetricMap& m, const std::string& key) {
  auto it = m.find(key);
  return it == m.end() ? 0.0 : it->second;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

MetricMap ReadCounters(GridVineNetwork& net) {
  MetricMap all;
  for (const auto& [name, value] : net.CollectMetrics().Flatten()) {
    all[name] = value;
  }
  all["events"] = double(net.engine() != nullptr
                             ? net.engine()->events_executed()
                             : net.sim()->events_executed());
  MetricMap out;
  for (const char* key : kCounters) out[key] = Get(all, key);
  return out;
}

void AccumulateCounters(const MetricMap& before, const MetricMap& after,
                        MetricMap* acc) {
  for (const char* key : kCounters) {
    double& slot = (*acc)[key];
    if (std::strcmp(key, "gv.frontend.max_queue_depth") == 0) {
      slot = std::max(slot, Get(after, key));
    } else {
      slot += Get(after, key) - Get(before, key);
    }
  }
}

void Pass::CountSchemas(const GridVinePeer::QueryResult& r) {
  ++single_queries;
  reformulations += r.reformulations;
  schemas_answered += r.schemas_answered;
}

void Pass::FinishLayers(const MetricMap& acc) {
  auto c = [&acc](const char* key) { return Get(acc, key); };
  messages = uint64_t(c("net.messages_sent"));
  bytes = uint64_t(c("net.bytes_sent"));
  const double n = double(ops);
  MetricMap& l = layer;
  l["query.reformulation.per_query"] =
      Ratio(double(reformulations), double(single_queries));
  l["query.reformulation.answered_ratio"] =
      Ratio(double(schemas_answered), double(reformulations + single_queries));
  l["sim.events_per_op"] = Ratio(c("events"), n);
  l["sim.host_ns_per_event"] = Ratio(run_s * 1e9, c("events"));
  l["sim.messages_dropped"] = c("net.messages_dropped");
  l["sim.shard.epochs"] = c("sim.shard.epochs");
  l["sim.shard.events_per_epoch"] =
      Ratio(c("sim.shard.events"), c("sim.shard.epochs"));
  l["pgrid.forwards_per_op"] = Ratio(c("pgrid.forwards"), n);
  l["pgrid.retries_per_op"] = Ratio(c("pgrid.retries"), n);
  l["pgrid.failovers"] = c("pgrid.failovers");
  l["pgrid.timeouts"] = c("pgrid.timeouts");
  l["pgrid.routing_dead_ends"] = c("pgrid.routing_dead_ends");
  l["gridvine.frontend.shed"] = c("gv.frontend.shed");
  l["gridvine.frontend.max_queue_depth"] = c("gv.frontend.max_queue_depth");
  l["gridvine.batch.items_per_flush"] =
      Ratio(c("gv.batch.items"), c("gv.batch.flushes"));
  l["query.rows_shipped_per_op"] = Ratio(c("gv.result_rows_sent"), n);
  l["query.cache.hit_rate"] =
      Ratio(c("gv.cache.hits"), c("gv.cache.hits") + c("gv.cache.misses"));
  l["query.cache.invalidations"] = c("gv.cache.invalidations");
  l["query.cache.negative_hits"] = c("gv.cache.negative_hits");
}

double StoreBytesPerTriple(GridVineNetwork& net) {
  size_t bytes = 0;
  size_t triples = 0;
  for (size_t i = 0; i < net.size(); ++i) {
    bytes += net.peer(i)->local_db().MemoryFootprint();
    triples += net.peer(i)->local_db().size();
  }
  return Ratio(double(bytes), double(triples));
}

void DriveOpenLoop(GridVineNetwork& net, const std::vector<double>& due,
                   double window, Pass* pass, HostSpans* spans,
                   const std::function<void()>& between) {
  if (due.empty()) return;
  size_t next = 0;
  double t = net.Now();
  while (next < due.size()) {
    const double until = t + window;
    size_t arrivals = 0;
    while (next < due.size() && due[next] <= until) {
      ++next;
      ++arrivals;
    }
    const auto t0 = Clock::now();
    {
      HostSpan span(spans, "RunUntil");
      net.RunUntil(until);
    }
    const double slice_s = SecondsSince(t0);
    pass->run_s += slice_s;
    if (arrivals > 0) {
      pass->host_op_us.push_back(slice_s * 1e6 / double(arrivals));
    }
    t = until;
    if (between) between();
  }
  const auto t0 = Clock::now();
  {
    HostSpan span(spans, "Settle");
    net.Settle();
  }
  pass->run_s += SecondsSince(t0);
}

}  // namespace gvbench
