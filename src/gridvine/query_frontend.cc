#include "gridvine/query_frontend.h"

#include <algorithm>
#include <utility>

#include "common/mem_estimate.h"

namespace gridvine {

void QueryFrontend::Submit(const TriplePatternQuery& query,
                           const GridVinePeer::QueryOptions& options,
                           GridVinePeer::QueryCallback cb) {
  ++stats_.submitted;
  Task t;
  t.query = query;
  t.options = options;
  t.cb = std::move(cb);
  OpenServeSpan(&t);
  Admit(std::move(t));
}

void QueryFrontend::SubmitConjunctive(
    const ConjunctiveQuery& query, const GridVinePeer::QueryOptions& options,
    std::function<void(GridVinePeer::ConjunctiveResult)> cb) {
  ++stats_.submitted;
  Task t;
  t.conjunctive = true;
  t.cquery = query;
  t.options = options;
  t.ccb = std::move(cb);
  OpenServeSpan(&t);
  Admit(std::move(t));
}

void QueryFrontend::OpenServeSpan(Task* t) {
  Tracer* tr = peer_->LiveTracer();
  if (tr == nullptr) return;
  t->serve_ctx = t->options.trace_parent.valid()
                     ? tr->StartSpan("op.serve", t->options.trace_parent)
                     : tr->StartTrace("op.serve");
  tr->Annotate(t->serve_ctx, "kind",
               t->conjunctive ? "conjunctive" : "pattern");
  // The query tree (op.search / op.conjunctive and everything below) nests
  // under the serve span, so one trace covers admission wait + execution.
  t->options.trace_parent = t->serve_ctx;
}

void QueryFrontend::EndServeSpan(const TraceCtx& serve, const Status& status) {
  if (!serve.valid()) return;
  Tracer* tr = peer_->LiveTracer();
  if (tr == nullptr) return;
  if (!status.ok()) tr->Annotate(serve, "error", status.ToString());
  tr->EndSpan(serve);
}

void QueryFrontend::Admit(Task t) {
  const auto& fo = peer_->options().frontend;
  if (active_ < fo.max_concurrent) {
    StartTask(std::move(t));
    return;
  }
  if (queue_.size() >= fo.max_queue) {
    Shed(std::move(t));
    return;
  }
  t.enqueued_at = sim_->Now();
  queue_.push_back(std::move(t));
  stats_.max_queue_depth =
      std::max<uint64_t>(stats_.max_queue_depth, queue_.size());
}

void QueryFrontend::Shed(Task t) {
  ++stats_.shed;
  if (t.serve_ctx.valid()) {
    if (Tracer* tr = peer_->LiveTracer()) {
      tr->Annotate(t.serve_ctx, "shed", 1.0);
      tr->EndSpan(t.serve_ctx);
    }
  }
  if (t.conjunctive) {
    GridVinePeer::ConjunctiveResult r;
    r.status = Status::Overload("admission queue full");
    t.ccb(std::move(r));
  } else {
    GridVinePeer::QueryResult r;
    r.status = Status::Overload("admission queue full");
    t.cb(std::move(r));
  }
}

void QueryFrontend::StartTask(Task t) {
  ++active_;
  ++stats_.started;
  if (t.serve_ctx.valid() && t.enqueued_at >= 0) {
    // Retroactive: the admission wait is known only now that a slot freed.
    if (Tracer* tr = peer_->LiveTracer()) {
      tr->Interval("op.queue", t.serve_ctx, t.enqueued_at, sim_->Now());
    }
  }
  // The user callback runs before the slot is freed, so queries it submits
  // synchronously queue behind the zero-delay refill event below — strict
  // FIFO either way.
  if (t.conjunctive) {
    auto cb = std::move(t.ccb);
    TraceCtx serve = t.serve_ctx;
    peer_->SearchForConjunctive(
        t.cquery, t.options,
        [this, cb, serve](GridVinePeer::ConjunctiveResult r) {
          EndServeSpan(serve, r.status);
          cb(std::move(r));
          OnTaskDone();
        });
  } else {
    auto cb = std::move(t.cb);
    TraceCtx serve = t.serve_ctx;
    peer_->SearchFor(t.query, t.options,
                     [this, cb, serve](GridVinePeer::QueryResult r) {
                       EndServeSpan(serve, r.status);
                       cb(std::move(r));
                       OnTaskDone();
                     });
  }
}

void QueryFrontend::OnTaskDone() {
  ++stats_.completed;
  --active_;
  if (queue_.empty()) return;
  // Zero-delay event: long completion chains refill iteratively, not by
  // recursing completion -> start -> completion on one stack.
  sim_->Schedule(0, [this] {
    if (queue_.empty() ||
        active_ >= peer_->options().frontend.max_concurrent) {
      return;
    }
    Task t = std::move(queue_.front());
    queue_.pop_front();
    StartTask(std::move(t));
  });
}

QueryFrontend::Stats QueryFrontend::stats() const {
  Stats s = stats_;
  s.active = active_;
  s.queued = queue_.size();
  return s;
}

size_t QueryFrontend::MemoryFootprint() const {
  return sizeof(*this) + DequeBytes<Task>(queue_.size());
}

}  // namespace gridvine
