#ifndef GRIDVINE_COMMON_TRACE_H_
#define GRIDVINE_COMMON_TRACE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace gridvine {

/// Causal trace context carried on every simulated message and delivery: the
/// trace (one user-visible operation) and the span that caused the carrier.
/// 16 bytes, trivially copyable — riding it on a message body or a Delivery
/// record costs two register copies and no allocation. A zero span_id means
/// "not traced" (the disabled-mode default).
struct TraceCtx {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  bool valid() const { return span_id != 0; }
};

/// Records spans — named intervals of *simulated* time with a parent link
/// and key/value annotations — into a bounded ring buffer, and exports them
/// as Chrome trace_event JSON (loadable in chrome://tracing or Perfetto).
///
/// Contracts:
///   - Disabled (the default), every call is a cheap early-out and performs
///     no allocation; the send+delivery hot path stays zero-alloc.
///   - Span ids come from a plain counter, and no call draws from any Rng —
///     enabling tracing never perturbs a seeded run.
///   - The ring overwrites the oldest span once `capacity` is exceeded
///     (`evicted()` counts casualties); consistency checks require a
///     capacity that held the whole run.
///
/// Every span carries an `order` key. By default it is the span id
/// (creation order); the content-keyed engine installs a content-derived
/// source — (creator actor, per-actor counter), the shape of its event keys
/// but from separate counters. Sorting on (start, order) lists parents
/// before children; TraceView::Snapshot does.
///
/// Timestamps come from the clock callback (normally Simulator::Now via
/// SetClock); without one, spans sit at t = 0.
class Tracer {
 public:
  struct Annotation {
    std::string key;
    bool is_number = true;
    double number = 0;
    std::string text;
  };

  struct Span {
    uint64_t trace_id = 0;
    uint64_t span_id = 0;
    uint64_t parent_id = 0;  ///< 0 for a trace root
    /// Causal key: strictly increases from parent to child within (start,
    /// order) lexicographic order. Defaults to span_id; the keyed engine
    /// installs a content-derived source (SetOrderSource).
    uint64_t order = 0;
    std::string_view name;   ///< literal or interned — storage outlives us
    double start = 0;
    double end = -1;  ///< simulated seconds; -1 while open
    std::vector<Annotation> annotations;
  };

  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The simulated-time source for span timestamps.
  void SetClock(std::function<double()> clock) { clock_ = std::move(clock); }

  /// Installs the content-derived span-order source. Without one, order =
  /// span_id (creation order is causal order).
  void SetOrderSource(std::function<uint64_t()> source) {
    order_source_ = std::move(source);
  }

  bool enabled() const { return enabled_; }
  void Enable(size_t capacity = kDefaultCapacity);
  void Disable() { enabled_ = false; }
  /// Drops every recorded span (enabled state and capacity kept).
  void Clear();

  /// Opens a root span: a new trace. Returns the invalid ctx when disabled.
  TraceCtx StartTrace(std::string_view name);
  /// Opens a child of `parent`; an invalid parent starts a new trace.
  TraceCtx StartSpan(std::string_view name, TraceCtx parent);
  void EndSpan(TraceCtx ctx);
  /// Ends the span at an explicit simulated time (flight spans end at the
  /// transport's clock, whatever clock this ring was given).
  void EndSpanAt(TraceCtx ctx, double end);
  /// Zero-duration marker span (retries, drops observed elsewhere).
  TraceCtx Instant(std::string_view name, TraceCtx parent);
  /// Records a completed span over [start, end] — for intervals only known
  /// in retrospect (retry backoff when the timer fires, service time when
  /// the response is committed). The order key is drawn at the call, so
  /// (start, order) parent-before-child holds as long as `start` is not
  /// before the parent's start.
  TraceCtx Interval(std::string_view name, TraceCtx parent, double start,
                    double end);

  void Annotate(TraceCtx ctx, std::string_view key, double value);
  void Annotate(TraceCtx ctx, std::string_view key, std::string_view value);

  size_t size() const { return ring_.size(); }
  uint64_t evicted() const { return evicted_; }

  /// The recorded spans, oldest first.
  std::vector<Span> Snapshot() const;

  /// Chrome trace_event JSON: one "X" (complete) event per span, ts/dur in
  /// microseconds of simulated time, tid = trace id, span/parent ids, order
  /// and annotations in args.
  std::string ToChromeJson() const;

 private:
  static constexpr size_t kDefaultCapacity = 1 << 20;

  double Now() const { return clock_ ? clock_() : 0.0; }
  uint64_t NextOrder(uint64_t span_id) const {
    return order_source_ ? order_source_() : span_id;
  }
  /// Slot for a live ctx, or nullptr (ended span evicted, or stale ctx).
  Span* Find(TraceCtx ctx);
  TraceCtx Open(std::string_view name, uint64_t trace_id, uint64_t parent_id);

  bool enabled_ = false;
  size_t capacity_ = kDefaultCapacity;
  uint64_t next_id_ = 1;
  uint64_t evicted_ = 0;
  std::vector<Span> ring_;
  size_t head_ = 0;  ///< next slot to overwrite once the ring is full
  /// span_id -> ring slot, for EndSpan/Annotate on spans still buffered.
  std::unordered_map<uint64_t, size_t> index_;
  std::function<double()> clock_;
  std::function<uint64_t()> order_source_;
};

/// The read and control surface over one span ring that
/// GridVineNetwork::tracer() hands out, whichever engine runs. Snapshot()
/// lists the spans in causal order — sorted by (start, order), so a parent
/// always precedes its children, retroactive Interval spans included.
class TraceView {
 public:
  explicit TraceView(Tracer* ring = nullptr) : ring_(ring) {}

  bool enabled() const { return ring_->enabled(); }
  void Enable(size_t capacity = 1 << 20) { ring_->Enable(capacity); }
  void Disable() { ring_->Disable(); }
  void Clear() { ring_->Clear(); }
  size_t size() const { return ring_->size(); }
  uint64_t evicted() const { return ring_->evicted(); }

  std::vector<Tracer::Span> Snapshot() const;
  std::string ToChromeJson() const;

 private:
  Tracer* ring_;
};

/// Read-side helper over a span snapshot: per-trace counts, the structural
/// consistency invariant the chaos harness asserts, and the critical-path
/// latency attribution the benches report.
class TraceAnalyzer {
 public:
  explicit TraceAnalyzer(std::vector<Tracer::Span> spans);

  const std::vector<Tracer::Span>& spans() const { return spans_; }
  const Tracer::Span* Find(uint64_t span_id) const;

  /// Spans with this exact name (across all traces / within one trace).
  size_t CountNamed(std::string_view name) const;
  size_t CountNamed(std::string_view name, uint64_t trace_id) const;
  /// Spans still open (end < 0).
  size_t OpenCount() const;

  /// Structural invariants: unique span ids, every parent present with a
  /// strictly smaller (start, order) key — parents are opened causally
  /// before their children, so any parent chain strictly decreases and
  /// cannot cycle — and the same trace id. Returns the empty string when
  /// consistent, else a description of the first violation.
  ///
  /// `evicted` is the tracer's eviction count: when the ring dropped spans,
  /// a missing parent is the expected signature of eviction, not corruption —
  /// such orphans are tallied in orphan_warnings() instead of failing.
  std::string CheckConsistency(uint64_t evicted = 0) const;
  /// Orphans excused by eviction during the last CheckConsistency call.
  size_t orphan_warnings() const { return orphan_warnings_; }

  /// Where a trace's end-to-end time went. Shares sum to 1 (of `total`)
  /// when total > 0.
  struct CriticalPath {
    double total = 0;    ///< root span duration, simulated seconds
    double queue = 0;    ///< frontend admission queue wait (op.queue)
    double service = 0;  ///< responder service-model time (op.service)
    double network = 0;  ///< message flights (spans named by message type)
    double retry = 0;    ///< retry backoff waits (op.backoff)
    double compute = 0;  ///< executor/peer work (all other op.*/exec.*)
  };

  /// Attribution category for a span name (the CriticalPath buckets).
  enum class Category { kQueue, kService, kNetwork, kRetry, kCompute };
  static Category CategoryOf(std::string_view name);

  /// Walks the trace rooted at `trace_id` and attributes every instant of
  /// [root.start, root.end] to the innermost span active then (latest
  /// start; (start, order) breaks ties), bucketed by CategoryOf. Gaps where
  /// only the root is active land in the root's own category. Zero result
  /// when the root is missing or never closed.
  CriticalPath CriticalPathFor(uint64_t trace_id) const;

 private:
  std::vector<Tracer::Span> spans_;
  std::unordered_map<uint64_t, size_t> by_id_;
  mutable size_t orphan_warnings_ = 0;
};

}  // namespace gridvine

#endif  // GRIDVINE_COMMON_TRACE_H_
