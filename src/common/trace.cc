#include "common/trace.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace gridvine {

void Tracer::Enable(size_t capacity) {
  enabled_ = true;
  capacity_ = capacity == 0 ? 1 : capacity;
}

void Tracer::Clear() {
  ring_.clear();
  index_.clear();
  head_ = 0;
  evicted_ = 0;
}

Tracer::Span* Tracer::Find(TraceCtx ctx) {
  if (!enabled_ || !ctx.valid()) return nullptr;
  auto it = index_.find(ctx.span_id);
  if (it == index_.end()) return nullptr;
  return &ring_[it->second];
}

TraceCtx Tracer::Open(std::string_view name, uint64_t trace_id,
                      uint64_t parent_id) {
  Span span;
  span.span_id = next_id_++;
  span.order = NextOrder(span.span_id);
  span.trace_id = trace_id == 0 ? span.span_id : trace_id;
  span.parent_id = parent_id;
  span.name = name;
  span.start = Now();
  size_t slot;
  if (ring_.size() < capacity_) {
    slot = ring_.size();
    ring_.push_back(std::move(span));
  } else {
    // Ring full: overwrite the oldest slot. Its span is gone for good —
    // unhook it from the open-span index too.
    slot = head_;
    head_ = (head_ + 1) % capacity_;
    index_.erase(ring_[slot].span_id);
    ring_[slot] = std::move(span);
    ++evicted_;
  }
  index_.emplace(ring_[slot].span_id, slot);
  return TraceCtx{ring_[slot].trace_id, ring_[slot].span_id};
}

TraceCtx Tracer::StartTrace(std::string_view name) {
  if (!enabled_) return TraceCtx{};
  return Open(name, 0, 0);
}

TraceCtx Tracer::StartSpan(std::string_view name, TraceCtx parent) {
  if (!enabled_) return TraceCtx{};
  if (!parent.valid()) return Open(name, 0, 0);
  return Open(name, parent.trace_id, parent.span_id);
}

void Tracer::EndSpan(TraceCtx ctx) {
  Span* span = Find(ctx);
  if (span != nullptr && span->end < 0) span->end = Now();
}

void Tracer::EndSpanAt(TraceCtx ctx, double end) {
  Span* span = Find(ctx);
  if (span != nullptr && span->end < 0) span->end = end;
}

TraceCtx Tracer::Instant(std::string_view name, TraceCtx parent) {
  TraceCtx ctx = StartSpan(name, parent);
  EndSpan(ctx);
  return ctx;
}

TraceCtx Tracer::Interval(std::string_view name, TraceCtx parent, double start,
                          double end) {
  TraceCtx ctx = StartSpan(name, parent);
  Span* span = Find(ctx);
  if (span != nullptr) {
    span->start = start;
    span->end = end < start ? start : end;
  }
  return ctx;
}

void Tracer::Annotate(TraceCtx ctx, std::string_view key, double value) {
  Span* span = Find(ctx);
  if (span == nullptr) return;
  Annotation a;
  a.key.assign(key);
  a.is_number = true;
  a.number = value;
  span->annotations.push_back(std::move(a));
}

void Tracer::Annotate(TraceCtx ctx, std::string_view key,
                      std::string_view value) {
  Span* span = Find(ctx);
  if (span == nullptr) return;
  Annotation a;
  a.key.assign(key);
  a.is_number = false;
  a.text.assign(value);
  span->annotations.push_back(std::move(a));
}

std::vector<Tracer::Span> Tracer::Snapshot() const {
  std::vector<Span> out;
  out.reserve(ring_.size());
  // Oldest first: once wrapped, the oldest live span sits at head_.
  const size_t n = ring_.size();
  const size_t start = n < capacity_ ? 0 : head_;
  for (size_t i = 0; i < n; ++i) out.push_back(ring_[(start + i) % n]);
  return out;
}

namespace {

void AppendJsonEscaped(std::ostringstream& os, std::string_view s) {
  for (char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      os << ' ';
      continue;
    }
    os << c;
  }
}

void AppendJsonNumber(std::ostringstream& os, double v) {
  if (std::isfinite(v)) {
    os << v;
  } else {
    os << "null";
  }
}

/// Lexicographic causal merge key: simulated start time, then the
/// content-derived order, then the id as a total-order backstop.
bool CausallyBefore(const Tracer::Span& a, const Tracer::Span& b) {
  if (a.start != b.start) return a.start < b.start;
  if (a.order != b.order) return a.order < b.order;
  return a.span_id < b.span_id;
}

/// Chrome trace_event JSON over an explicit span list.
std::string SpansToChromeJson(const std::vector<Tracer::Span>& spans) {
  std::ostringstream os;
  os.precision(15);
  os << "{\"displayTimeUnit\": \"ms\",\n";
  os << "\"traceEvents\": [\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Tracer::Span& s = spans[i];
    const double end = s.end < 0 ? s.start : s.end;
    os << "  {\"name\": \"";
    AppendJsonEscaped(os, s.name);
    os << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.trace_id
       << ", \"ts\": ";
    AppendJsonNumber(os, s.start * 1e6);
    os << ", \"dur\": ";
    AppendJsonNumber(os, (end - s.start) * 1e6);
    os << ", \"args\": {\"span_id\": " << s.span_id
       << ", \"parent_id\": " << s.parent_id << ", \"order\": " << s.order;
    if (s.end < 0) os << ", \"open\": 1";
    for (const Tracer::Annotation& a : s.annotations) {
      os << ", \"";
      AppendJsonEscaped(os, a.key);
      os << "\": ";
      if (a.is_number) {
        AppendJsonNumber(os, a.number);
      } else {
        os << "\"";
        AppendJsonEscaped(os, a.text);
        os << "\"";
      }
    }
    os << "}}" << (i + 1 < spans.size() ? "," : "") << "\n";
  }
  os << "]}\n";
  return os.str();
}

}  // namespace

std::string Tracer::ToChromeJson() const {
  return SpansToChromeJson(Snapshot());
}

std::vector<Tracer::Span> TraceView::Snapshot() const {
  std::vector<Tracer::Span> out = ring_->Snapshot();
  // Ring order is creation order, but retroactive Interval spans start
  // before spans created ahead of them.
  std::sort(out.begin(), out.end(), CausallyBefore);
  return out;
}

std::string TraceView::ToChromeJson() const {
  return SpansToChromeJson(Snapshot());
}

TraceAnalyzer::TraceAnalyzer(std::vector<Tracer::Span> spans)
    : spans_(std::move(spans)) {
  for (size_t i = 0; i < spans_.size(); ++i) {
    by_id_.emplace(spans_[i].span_id, i);
  }
}

const Tracer::Span* TraceAnalyzer::Find(uint64_t span_id) const {
  auto it = by_id_.find(span_id);
  return it == by_id_.end() ? nullptr : &spans_[it->second];
}

size_t TraceAnalyzer::CountNamed(std::string_view name) const {
  size_t n = 0;
  for (const auto& s : spans_) {
    if (s.name == name) ++n;
  }
  return n;
}

size_t TraceAnalyzer::CountNamed(std::string_view name,
                                 uint64_t trace_id) const {
  size_t n = 0;
  for (const auto& s : spans_) {
    if (s.trace_id == trace_id && s.name == name) ++n;
  }
  return n;
}

size_t TraceAnalyzer::OpenCount() const {
  size_t n = 0;
  for (const auto& s : spans_) {
    if (s.end < 0) ++n;
  }
  return n;
}

std::string TraceAnalyzer::CheckConsistency(uint64_t evicted) const {
  orphan_warnings_ = 0;
  if (by_id_.size() != spans_.size()) {
    return "duplicate span ids in snapshot";
  }
  for (const auto& s : spans_) {
    std::string where =
        "span " + std::to_string(s.span_id) + " (" + std::string(s.name) + ")";
    if (s.span_id == 0) return where + ": zero span id";
    if (s.parent_id == 0) {
      if (s.trace_id != s.span_id) {
        return where + ": root span with trace_id != span_id";
      }
      continue;
    }
    const Tracer::Span* parent = Find(s.parent_id);
    if (parent == nullptr) {
      // A ring that evicted spans is expected to have dropped some parents;
      // that is lossy, not corrupt. With no evictions it is a real orphan.
      if (evicted > 0) {
        ++orphan_warnings_;
        continue;
      }
      return where + ": orphan (parent " + std::to_string(s.parent_id) +
             " missing)";
    }
    // Parents are opened causally before their children, so the (start,
    // order) key strictly increases parent -> child; any parent chain
    // therefore strictly decreases and cannot cycle.
    if (parent->start > s.start ||
        (parent->start == s.start && parent->order >= s.order)) {
      return where + ": parent " + std::to_string(s.parent_id) +
             " not causally before the span (cycle?)";
    }
    if (parent->trace_id != s.trace_id) {
      return where + ": trace id differs from parent's";
    }
  }
  return "";
}

TraceAnalyzer::Category TraceAnalyzer::CategoryOf(std::string_view name) {
  if (name == "op.queue") return Category::kQueue;
  if (name == "op.service") return Category::kService;
  if (name == "op.backoff") return Category::kRetry;
  // Operation/executor spans are peer compute; everything else is a message
  // flight, named after its interned message type ("gv.query", ...).
  if (name.substr(0, 3) == "op." || name.substr(0, 5) == "exec.") {
    return Category::kCompute;
  }
  return Category::kNetwork;
}

TraceAnalyzer::CriticalPath TraceAnalyzer::CriticalPathFor(
    uint64_t trace_id) const {
  CriticalPath out;
  const Tracer::Span* root = Find(trace_id);
  if (root == nullptr || root->end < root->start) return out;
  out.total = root->end - root->start;
  if (out.total <= 0) return out;

  // Clip every closed span of the trace to the root window; open spans are
  // treated as running to the root's end (they were still active when the
  // operation finished).
  struct Active {
    double lo, hi;
    double start;  ///< unclipped, for the innermost comparison
    uint64_t order;
    Category cat;
  };
  std::vector<Active> acts;
  std::vector<double> bounds;
  for (const auto& s : spans_) {
    if (s.trace_id != trace_id) continue;
    double lo = std::max(s.start, root->start);
    double hi = std::min(s.end < 0 ? root->end : s.end, root->end);
    if (hi <= lo && s.span_id != root->span_id) continue;  // instants etc.
    acts.push_back(Active{lo, hi, s.start, s.order, CategoryOf(s.name)});
    bounds.push_back(lo);
    bounds.push_back(hi);
  }
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());

  // Every elementary interval goes to the innermost span active across it:
  // latest start, content order breaking ties — deterministic and, because
  // the root is always active, exhaustive over [root.start, root.end].
  for (size_t i = 0; i + 1 < bounds.size(); ++i) {
    const double mid = 0.5 * (bounds[i] + bounds[i + 1]);
    const Active* innermost = nullptr;
    for (const Active& a : acts) {
      if (a.lo > mid || a.hi <= mid) continue;
      if (innermost == nullptr || a.start > innermost->start ||
          (a.start == innermost->start && a.order > innermost->order)) {
        innermost = &a;
      }
    }
    if (innermost == nullptr) continue;
    const double len = bounds[i + 1] - bounds[i];
    switch (innermost->cat) {
      case Category::kQueue: out.queue += len; break;
      case Category::kService: out.service += len; break;
      case Category::kNetwork: out.network += len; break;
      case Category::kRetry: out.retry += len; break;
      case Category::kCompute: out.compute += len; break;
    }
  }
  return out;
}

}  // namespace gridvine
