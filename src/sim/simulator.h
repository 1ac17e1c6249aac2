#ifndef GRIDVINE_SIM_SIMULATOR_H_
#define GRIDVINE_SIM_SIMULATOR_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "sim/event_fn.h"

namespace gridvine {

/// Simulated wall-clock time in seconds.
using SimTime = double;

/// Single-threaded discrete-event scheduler. All network traffic, timers and
/// periodic maintenance in GridVine run as events on one Simulator, which
/// makes experiments deterministic and lets us measure latencies in simulated
/// seconds regardless of host speed.
///
/// The queue is a hand-rolled 4-ary min-heap over (time, seq), split into two
/// arrays: the heap itself holds 32-byte trivially-copyable keys
/// (time, seq, slot), while the EventFn callables sit still in a slot pool
/// recycled through a free list. Sifting therefore compares and copies only
/// small keys — a pop at 10k pending events touches a handful of cache lines
/// instead of relocating 70-byte records down five levels. The seed's
/// std::priority_queue<Event> additionally forced a copy of every
/// std::function on pop (top() is const); here the callable is moved out of
/// its slot exactly once, and with EventFn's inline captures, scheduling and
/// firing an ordinary timer touches no heap.
/// Execution order is fully determined by (time, seq): same-time events run
/// FIFO regardless of heap shape, so the refactor cannot perturb seeded runs.
class Simulator {
 public:
  Simulator() = default;
  virtual ~Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  SimTime Now() const { return now_; }

  /// Schedules `fn` to run `delay` seconds from now (clamped to >= 0).
  void Schedule(SimTime delay, EventFn fn) { ScheduleAt(now_ + ClampDelay(delay), std::move(fn)); }

  /// Schedules `fn` at absolute time `t` (clamped to >= Now()). Virtual so a
  /// shard of the parallel engine (sim/sharded.h) can intercept scheduling
  /// and substitute a content-derived tie-break key; the single-threaded
  /// engine pays one indirect call per event for the seam.
  virtual void ScheduleAt(SimTime t, EventFn fn);

  /// Schedules `fn` at `t` with an explicit 64-bit tie-break key in place of
  /// the per-simulator sequence number. Two events at the same time run in
  /// ascending `subkey` order *regardless of scheduling order or heap
  /// shape* — the property the sharded engine needs for runs to be
  /// bit-identical across shard counts. Keys must be unique per (t, subkey)
  /// within one simulator; an instance must use either keyed or sequence
  /// scheduling exclusively, never a mix (the sequence counter knows nothing
  /// about foreign keys).
  void ScheduleKeyedAt(SimTime t, uint64_t subkey, EventFn fn);

  /// Firing time of the earliest pending event, or +infinity when idle.
  SimTime NextEventTime() const;

  /// Removes the earliest event if it fires strictly before `horizon`:
  /// advances the clock to it, moves its callable into `*fn`, stores its
  /// tie-break key (sequence number or ScheduleKeyedAt subkey) in `*subkey`
  /// and counts it as executed. Returns false (touching nothing) otherwise.
  /// This is the epoch-bounded pop the sharded engine's workers drive.
  bool PopBefore(SimTime horizon, uint64_t* subkey, EventFn* fn);

  /// Advances the clock to `t` if it is ahead (never backwards).
  void AdvanceTo(SimTime t) {
    if (t > now_) now_ = t;
  }

  /// Runs events until the queue is empty or `max_events` have fired.
  /// Returns the number of events executed.
  size_t Run(size_t max_events = SIZE_MAX);

  /// Runs events with firing time <= `t`, then advances the clock to `t`
  /// (unless the queue drained earlier at a later time). Returns events run.
  size_t RunUntil(SimTime t);

  /// Drains events until `*done` is true or the queue is empty, checking the
  /// flag before each event. One call replaces a caller-side `Run(1)` loop
  /// (the synchronous-wrapper pump), with identical stop semantics: no event
  /// fires after the flag flips. Returns events run.
  size_t RunUntilFlag(const bool* done);

  /// Number of pending events.
  size_t pending() const { return heap_.size(); }

  /// Total events executed over the simulator's lifetime.
  size_t events_executed() const { return executed_; }

  /// Bytes of heap owned by the event queue (heap keys, callable slots and
  /// the free list), by capacity — what the queue is actually holding from
  /// the allocator, not just what is live right now.
  size_t MemoryFootprint() const {
    return heap_.capacity() * sizeof(HeapEntry) +
           slots_.capacity() * sizeof(EventFn) +
           free_slots_.capacity() * sizeof(uint32_t);
  }

 private:
  static SimTime ClampDelay(SimTime delay) { return delay < 0 ? 0 : delay; }

  /// Heap key: everything ordering needs, nothing more — trivially copyable,
  /// so sift levels are plain copies with no callable relocation. The
  /// ordering (time, then seq FIFO) is packed into one 128-bit integer:
  /// sim times are always >= +0.0, and non-negative IEEE doubles order
  /// identically to their bit patterns read as unsigned integers, so
  /// (time_bits << 64) | seq compares with a single branchless wide compare
  /// instead of a data-dependent double/seq branch pair.
  struct HeapEntry {
    unsigned __int128 key;  // (bit_cast<uint64>(time) << 64) | seq
    uint32_t slot;          // index into slots_

    SimTime time() const {
      uint64_t bits = static_cast<uint64_t>(key >> 64);
      SimTime t;
      std::memcpy(&t, &bits, sizeof(t));
      return t;
    }
  };
  // 16 + 4 bytes, padded to the 16-byte alignment of unsigned __int128.
  static_assert(sizeof(HeapEntry) == 32);

  static HeapEntry MakeEntry(SimTime t, uint64_t seq, uint32_t slot) {
    uint64_t bits;
    std::memcpy(&bits, &t, sizeof(bits));
    return HeapEntry{(static_cast<unsigned __int128>(bits) << 64) | seq, slot};
  }

  void Push(HeapEntry ev);
  /// Removes the earliest event, advances now_ to its time and returns its
  /// callable (slot released first — fn may re-schedule and reuse it).
  /// Precondition: !heap_.empty().
  EventFn PopMin();

  SimTime now_ = 0.0;
  uint64_t next_seq_ = 0;
  size_t executed_ = 0;
  /// 4-ary min-heap of keys: children of node i are 4i+1 .. 4i+4. A wider
  /// node halves the tree depth vs a binary heap; with 32-byte entries all
  /// four children of a node span 128 bytes, two or three cache lines.
  std::vector<HeapEntry> heap_;
  /// Parked callables, addressed by HeapEntry::slot; never moved by sifts.
  std::vector<EventFn> slots_;
  /// Recycled slot indices (LIFO for cache warmth).
  std::vector<uint32_t> free_slots_;
};

}  // namespace gridvine

#endif  // GRIDVINE_SIM_SIMULATOR_H_
