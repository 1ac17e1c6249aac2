#ifndef GRIDVINE_COMMON_TIMESERIES_H_
#define GRIDVINE_COMMON_TIMESERIES_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace gridvine {

class MetricsRegistry;
class Tracer;

/// Windowed history of MetricsRegistry snapshots in *simulated* time: each
/// Record() call flattens the registry into (window_end, name, value) rows
/// appended to a bounded ring (oldest samples evicted first). This is the
/// storage behind the shell's `top` view and the timeseries.json artifact —
/// cheap enough to sample every few hundred simulated milliseconds, queried
/// rarely.
class MetricsTimeSeries {
 public:
  struct Sample {
    double t = 0;  ///< window end, simulated seconds
    std::string name;
    double value = 0;  ///< cumulative value at t (deltas are derived)
  };

  explicit MetricsTimeSeries(size_t capacity = 1 << 16)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  /// Appends one row per Flatten() metric, stamped `window_end`.
  void Record(double window_end, const MetricsRegistry& m);

  size_t size() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  uint64_t evicted() const { return evicted_; }
  /// Number of distinct window timestamps recorded (and still buffered).
  size_t windows() const;
  double last_window_end() const {
    return samples_.empty() ? 0.0 : samples_.back().t;
  }

  const std::deque<Sample>& samples() const { return samples_; }

  /// The latest window's rows with per-window deltas (value - previous
  /// window's value for the same name; the value itself when the name is
  /// new). Sorted by descending |delta| then name — the `top` view.
  struct WindowRow {
    std::string name;
    double value = 0;
    double delta = 0;
  };
  std::vector<WindowRow> LatestWindow() const;

  /// The buffered values of one metric: (t, value) pairs, oldest first.
  std::vector<std::pair<double, double>> Series(std::string_view name) const;

  /// {"window_s": w, "samples": [{"t": .., "name": "..", "value": ..}, ..]}
  /// — the timeseries.json artifact schema scripts/validate_trace.py checks.
  std::string ToJson(double window_s) const;

 private:
  size_t capacity_;
  uint64_t evicted_ = 0;
  std::deque<Sample> samples_;
};

/// Evaluates invariant rules over consecutive metric windows and records
/// violations: counters under "health.*", an entry in violations(), and —
/// when a tracer is attached — a zero-duration "health.violation" trace
/// marker. Rules see the *delta* between the current cumulative snapshot
/// and the previous window's (except conservation, which is cumulative: a
/// message must be sent before it is delivered or dropped, at any horizon).
class HealthWatchdog {
 public:
  struct Options {
    /// Window retries / window sends above this fires "retry_spike"
    /// (needs at least retry_min_sends sends in the window).
    double retry_rate_threshold = 0.30;
    uint64_t retry_min_sends = 50;
    /// Window cache hit rate below this fires "cache_collapse" (needs at
    /// least cache_min_lookups lookups in the window, and only after some
    /// window has seen a hit — a cold cache is not a collapse).
    double cache_collapse_threshold = 0.05;
    uint64_t cache_min_lookups = 20;
    /// Window shed / window submitted above this fires "shed_rate".
    double shed_rate_threshold = 0.10;
    uint64_t shed_min_submitted = 10;
  };

  struct Violation {
    double window_end = 0;
    std::string rule;    ///< "conservation", "retry_spike", ...
    std::string detail;  ///< human-readable numbers
  };

  HealthWatchdog() = default;
  explicit HealthWatchdog(Options opts) : opts_(opts) {}

  /// Attaches the tracer that receives "health.violation" markers (may be
  /// null; only used while tracing is enabled).
  void SetTracer(Tracer* tracer) { tracer_ = tracer; }

  /// Evaluates every rule against `m` (a fresh cumulative snapshot) for the
  /// window ending at `window_end`, updates the "health.*" counters inside
  /// `m`, and returns how many violations this window produced.
  size_t Evaluate(double window_end, MetricsRegistry* m);

  const std::vector<Violation>& violations() const { return violations_; }
  /// Violations of one rule so far.
  uint64_t fired(std::string_view rule) const;
  size_t windows_evaluated() const { return windows_evaluated_; }

  /// Writes cumulative "health.violations" / "health.<rule>" counters.
  void PublishMetrics(MetricsRegistry* m) const;

 private:
  double Value(const std::map<std::string, double, std::less<>>& row,
               std::string_view name) const;
  void Fire(double window_end, std::string rule, std::string detail);

  Options opts_;
  Tracer* tracer_ = nullptr;
  std::vector<Violation> violations_;
  std::map<std::string, uint64_t, std::less<>> fired_;
  std::map<std::string, double, std::less<>> prev_;  ///< last window's values
  bool have_prev_ = false;
  bool cache_seen_hot_ = false;
  size_t windows_evaluated_ = 0;
};

}  // namespace gridvine

#endif  // GRIDVINE_COMMON_TIMESERIES_H_
