#include "sim/simulator.h"

#include <algorithm>
#include <utility>

namespace gridvine {

void Simulator::ScheduleAt(SimTime t, EventFn fn) {
  ScheduleKeyedAt(t, next_seq_++, std::move(fn));
}

void Simulator::ScheduleKeyedAt(SimTime t, uint64_t subkey, EventFn fn) {
  if (t < now_) t = now_;
  t += 0.0;  // normalize -0.0 to +0.0 so the bit-pattern key orders correctly
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(fn);
  } else {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.push_back(std::move(fn));
  }
  Push(MakeEntry(t, subkey, slot));
}

bool Simulator::PopBefore(SimTime horizon, uint64_t* subkey, EventFn* fn) {
  if (heap_.empty() || heap_.front().time() >= horizon) return false;
  *subkey = static_cast<uint64_t>(heap_.front().key);
  *fn = PopMin();
  ++executed_;
  return true;
}

void Simulator::Push(HeapEntry ev) {
  size_t i = heap_.size();
  heap_.emplace_back();  // hole; filled below after parents shift down
  while (i > 0) {
    size_t parent = (i - 1) >> 2;
    if (ev.key >= heap_[parent].key) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = ev;
}

EventFn Simulator::PopMin() {
  const HeapEntry min = heap_.front();
  now_ = min.time();
  // Release the slot before the sift: fn may re-schedule from inside its
  // call, and the freshly freed slot is the warmest one to hand back.
  EventFn fn = std::move(slots_[min.slot]);
  free_slots_.push_back(min.slot);

  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    // Sift `last` down from the root, moving the smallest child up into the
    // hole at each level; `last` itself is written exactly once. The
    // min-of-four scan is a cmov-friendly tournament (no data-dependent
    // branches) in the common interior-node case.
    size_t i = 0;
    const size_t n = heap_.size();
    for (;;) {
      size_t child = 4 * i + 1;
      if (child >= n) break;
      size_t best;
      if (child + 4 <= n) {
        size_t b01 = heap_[child + 1].key < heap_[child].key ? child + 1
                                                             : child;
        size_t b23 = heap_[child + 3].key < heap_[child + 2].key ? child + 3
                                                                 : child + 2;
        best = heap_[b23].key < heap_[b01].key ? b23 : b01;
      } else {
        best = child;
        for (size_t c = child + 1; c < n; ++c) {
          best = heap_[c].key < heap_[best].key ? c : best;
        }
      }
      if (heap_[best].key >= last.key) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = last;
  }
  return fn;
}

size_t Simulator::Run(size_t max_events) {
  size_t ran = 0;
  while (!heap_.empty() && ran < max_events) {
    // The callable is moved out before it fires: fn may schedule new events,
    // which reshapes (and can reallocate) the heap and slot pool.
    EventFn fn = PopMin();
    fn();
    ++ran;
    ++executed_;
  }
  return ran;
}

size_t Simulator::RunUntil(SimTime t) {
  size_t ran = 0;
  while (!heap_.empty() && heap_.front().time() <= t) {
    EventFn fn = PopMin();
    fn();
    ++ran;
    ++executed_;
  }
  if (now_ < t) now_ = t;
  return ran;
}

size_t Simulator::RunUntilFlag(const bool* done) {
  size_t ran = 0;
  while (!*done && !heap_.empty()) {
    EventFn fn = PopMin();
    fn();
    ++ran;
    ++executed_;
  }
  return ran;
}

}  // namespace gridvine
