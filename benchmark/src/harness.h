#ifndef GRIDVINE_BENCHMARK_HARNESS_H_
#define GRIDVINE_BENCHMARK_HARNESS_H_

// Shared pieces of the GridVine benchmark: host clocks, percentile rules,
// bench-side host spans, the per-pass result record, counter deltas read
// from the public metrics snapshot, the open-loop pacing loop and the trace
// digest used by traced passes.
//
// The harness only calls the library's public API. Inputs and reference
// answers are generated before any timer starts; each workload's RunPass()
// builds a fresh deployment (timed as set-up), runs the fixed work of one
// pass (timed as the run), and checks every answer against the reference.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/trace.h"
#include "gridvine/gridvine_network.h"
#include "mapping/mapping_graph.h"
#include "query/query.h"
#include "schema/schema.h"
#include "store/triple_store.h"

namespace gvbench {

using namespace gridvine;

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Derives an independent 64-bit seed for one input stream of a workload.
uint64_t SubSeed(uint64_t seed, uint64_t stream);

/// `prefix` followed by the decimal digits of `n`, as in "x:e42".
std::string Numbered(std::string prefix, size_t n);

double Median(std::vector<double> v);
double Mean(const std::vector<double>& v);
/// Nearest-rank quantile, q in (0, 1].
double Quantile(std::vector<double> v, double q);

/// A tail percentile: the highest of p90, p99 and p99.9 that still has at
/// least ten samples beyond it (p50 when there are too few samples for p90).
struct Tail {
  double value = 0;
  double pct = 50;
  size_t samples = 0;
};
Tail TailOf(std::vector<double> v);

/// Bench-side host-time spans around the public calls the benchmark makes,
/// written as Chrome trace JSON with each span's self time (its duration
/// minus the time covered by its children). Recorded in traced passes only.
class HostSpans {
 public:
  void Begin(const char* name);
  void End();
  void Clear() { spans_.clear(); }
  bool WriteChromeJson(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    double start_us;
    double end_us;
    int parent;  // index into spans_, -1 for a root
  };
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a no-op when `spans` is null (untraced passes).
class HostSpan {
 public:
  HostSpan(HostSpans* spans, const char* name) : spans_(spans) {
    if (spans_ != nullptr) spans_->Begin(name);
  }
  ~HostSpan() {
    if (spans_ != nullptr) spans_->End();
  }
  HostSpan(const HostSpan&) = delete;
  HostSpan& operator=(const HostSpan&) = delete;

 private:
  HostSpans* spans_;
};

/// Order-sensitive 64-bit fingerprint of a pass's simulated outputs. Two
/// passes over the same inputs must produce equal digests: the engine is
/// deterministic and tracing is a pure observer.
class Digest {
 public:
  void Mix(uint64_t v);
  void Mix(double v);
  void Mix(std::string_view s);
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ULL;
};

/// Per-query statistics recovered from span snapshots of a traced pass.
struct TraceStats {
  std::vector<double> hops;              ///< message flights per query
  std::vector<double> dispatch_retries;  ///< GridVine dispatch retries/query
  TraceAnalyzer::CriticalPath cp;        ///< summed over queries
  uint64_t evicted = 0;

  /// Folds every closed query trace in `view`'s ring — the traces in
  /// `trace_ids` when given, else every root named op.search, op.serve or
  /// op.cquery — then clears the ring. Runs outside every timer, with the
  /// engine quiescent.
  void Drain(TraceView& view, const std::vector<uint64_t>& trace_ids);
  /// Clears the ring without analysing it (spans of non-query work).
  void Discard(TraceView& view);
};

using MetricMap = std::map<std::string, double>;

/// Everything one pass reports. Host-time fields vary run to run; all the
/// other fields are a deterministic function of the inputs.
struct Pass {
  std::vector<double> setup_s;  ///< one sample per deployment built
  double run_s = 0;             ///< wall time of the pass's timed region
  /// One sample per operation (closed loop) or per slice (open loop); sample
  /// i times the same work in every pass over the same inputs.
  std::vector<double> host_op_us;
  std::vector<double> round_s;  ///< host time of each self-organization round

  std::vector<double> sim_latency_s;
  double recall_sum = 0;
  size_t recall_n = 0;
  size_t attempted = 0;
  size_t failed = 0;
  size_t ops = 0;  ///< the per-op denominator (completed operations)
  uint64_t messages = 0;
  uint64_t bytes = 0;
  /// Single-pattern results: reformulations dispatched besides the original
  /// query, and schemas that answered.
  uint64_t single_queries = 0;
  uint64_t reformulations = 0;
  uint64_t schemas_answered = 0;
  Digest digest;
  std::vector<std::string> errors;  ///< correctness violations

  /// Per-layer values derived from public counters, and workload storyline
  /// values; names must be declared per-layer metrics.
  MetricMap layer;
  TraceStats trace;  ///< filled by traced passes only

  void Error(std::string what);
  /// Checks one answer set against its reference (both sorted, distinct):
  /// any returned value outside the reference is a correctness error.
  /// Returns the share of the reference that was returned.
  double Check(const std::vector<std::string>& returned,
               const std::vector<std::string>& reference,
               const std::string& what);
  /// Check(), counting the answer's recall toward the pass's recall.
  void Score(const std::vector<std::string>& returned,
             const std::vector<std::string>& reference,
             const std::string& what);
  void CountSchemas(const GridVinePeer::QueryResult& r);
  /// Sets messages, bytes and the counter-derived per-layer metrics from
  /// `acc`, the counter deltas summed over the pass's timed regions.
  void FinishLayers(const MetricMap& acc);
};

/// Distinct values bound to `var` by `pattern` in the reference store,
/// sorted.
std::vector<std::string> ReferenceAnswer(const TripleStore& reference,
                                         const TriplePattern& pattern,
                                         const std::string& var);

/// Sorted distinct values of a single-pattern result.
std::vector<std::string> ReturnedValues(const GridVinePeer::QueryResult& r);

/// Snapshot of the public counters this benchmark reads, from
/// GridVineNetwork::CollectMetrics() plus the engine's event count.
MetricMap ReadCounters(GridVineNetwork& net);

/// Adds the counter deltas of one timed region (`before`/`after` are
/// ReadCounters() snapshots) into `acc`, which sums the regions of a pass.
void AccumulateCounters(const MetricMap& before, const MetricMap& after,
                        MetricMap* acc);

/// Bytes of local triple storage per stored triple across every peer.
double StoreBytesPerTriple(GridVineNetwork& net);

/// Open-loop pacing: advances the deployment in `window`-second simulated
/// slices until the last time in `due` has passed, then drains it. Each slice's host time divided by
/// the arrivals due in it is one host_op_us sample. `between` (optional)
/// runs between slices, untimed, with the engine quiescent.
void DriveOpenLoop(GridVineNetwork& net, const std::vector<double>& due,
                   double window, Pass* pass, HostSpans* spans,
                   const std::function<void()>& between);

class Workload {
 public:
  virtual ~Workload() = default;
  /// Input parameters, recorded in every result's provenance.
  virtual std::vector<std::pair<std::string, double>> Params() const = 0;
  /// One pass: fresh deployment(s), the fixed work, every answer checked.
  /// `spans` non-null marks a traced pass (the library tracer is on and
  /// bench-side host spans are recorded).
  virtual Pass RunPass(HostSpans* spans) = 0;
  /// Layer probes over the last pass's deployment; trace mode only.
  virtual void Probe(MetricMap* layer) = 0;
};

std::unique_ptr<Workload> MakeLookupPlanetlab(uint64_t seed, bool smoke);
std::unique_ptr<Workload> MakeSelforgMediation(uint64_t seed, bool smoke);
std::unique_ptr<Workload> MakeServingFlashCrowd(uint64_t seed, bool smoke);
std::unique_ptr<Workload> MakeScaleSharded(uint64_t seed, bool smoke);

/// Inputs of the post-run layer probes (probes.cc).
struct ProbeInputs {
  GridVineNetwork* net = nullptr;
  /// Single patterns replayed against the local store of the peer that
  /// holds each pattern's routing key.
  std::vector<TriplePattern> patterns;
  /// Conjunctive queries for the planner and the store join probe.
  std::vector<ConjunctiveQuery> conjunctive;
  /// Queries expanded over the mapping graph.
  std::vector<TriplePatternQuery> reformulate;
  int max_hops = 6;
  /// Schema owners for the self-organization probe round; the round runs
  /// only when the workload did not run rounds itself (`graph` is null).
  std::vector<std::pair<std::string, size_t>> schema_owners;
  std::string domain = "bio";
  const MappingGraph* graph = nullptr;
};

/// The join a conjunctive query over schema data has: `pattern`'s matches
/// bound to another attribute of the same schema, (?x, other, ?v).
ConjunctiveQuery SiblingJoin(const TriplePattern& pattern,
                             const std::vector<Schema>& schemas);

/// Runs the store, planner, reformulation, statistics and (when `graph` is
/// null) self-organization probes; writes their per-layer metrics.
void RunProbes(const ProbeInputs& in, MetricMap* layer);

}  // namespace gvbench

#endif  // GRIDVINE_BENCHMARK_HARNESS_H_
