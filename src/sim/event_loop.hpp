// Deterministic discrete-event simulation core.
//
// Every host, link, protocol timer and application in the reproduction is
// driven by an EventLoop.  Since the engine refactor a run may use several
// loops — one per shard — so the tie-break order at equal timestamps must
// be *partition-invariant*: it cannot depend on which loop an event landed
// on or on a global scheduling counter.  The ordering contract is:
//
//   1. primary key: timestamp `at` (simulated nanoseconds);
//   2. at equal timestamps, timer events (schedule_at/schedule_after) run
//      before link deliveries (schedule_delivery);
//   3. timer ties break on the loop-local scheduling sequence.  All
//      inter-vertex links have positive delay, so two vertices can only
//      produce same-timestamp timers via causally independent chains whose
//      relative order is fixed by construction order — which every
//      partition replays identically;
//   4. delivery ties break on (stream id, per-stream sequence), both
//      assigned by the sender independent of partitioning.
//
// Under this contract entire experiments are bit-for-bit reproducible
// across runs *and across shard counts* — the property all the
// paper-table benches, churn tests and the cross-shard digest test rely
// on.
//
// Layout is sized for 10^4..10^5-node runs and for an allocation-free
// hot path:
//
//   * Key heap.  The binary heap holds only 32-byte trivially-copyable
//     keys {at, key0, key1, slot, gen}, so a sift moves 32 bytes and never
//     touches a closure.  run_until/run_window peek the top key and stop
//     there; an event past the horizon is never popped.
//   * Slot arena.  Each pending event's Callback and trace `aux` live in
//     a slot of a chunked arena addressed by the key's `slot`.  Chunks
//     never move, so growing the arena copies nothing.  A freed slot
//     bumps its generation, which makes every outstanding key and
//     EventId for it dead in O(1) (no hashing), and goes on a LIFO free
//     list so the next event reuses cache-hot storage.
//   * Callback storage.  Callback (sim/callback.hpp) keeps closures of up
//     to 80 bytes in place — a link delivery, a stack traversal step, a
//     switch forward — so those events allocate nothing; a larger closure
//     costs one heap block.  A slot is 96 bytes and a key 32: 128 bytes
//     per pending event, where the former heap item (72 bytes, closure
//     inside) also needed a malloc'd block for any closure over 16 bytes.
//     The loop moves a callback out of its slot and frees the slot before
//     invoking it: the running event is already dead to cancel(), and
//     whatever it schedules may reuse the slot at once.
//   * Cancellation.  cancel() frees the slot and destroys the closure at
//     once — captured Buffers and shared_ptrs are released at cancel(),
//     after the loop's bookkeeping is consistent, since their destructors
//     may re-enter cancel().  The key stays in the heap as dead debris and
//     is dropped lazily at the top or by compaction once dead keys
//     outnumber live ones: a churning overlay cancels far-future
//     keepalive/renew timers constantly.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "sim/callback.hpp"
#include "util/time.hpp"

namespace ipop::sim {

using util::Duration;
using util::TimePoint;

class EventLoop {
 public:
  using Callback = sim::Callback;
  /// (slot << 32) | generation.  0 is never a valid id (generations start
  /// at 1), so callers can use 0 as a "no timer armed" sentinel.
  using EventId = std::uint64_t;

  /// Chained per-stream trace state; see trace().
  struct TraceStream {
    std::uint64_t chain = 0;
    std::uint64_t count = 0;
  };

  EventLoop() = default;
  /// Destroys pending closures while the loop is still consistent, so a
  /// closure's destructor may cancel() other events on this loop.
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  TimePoint now() const { return now_; }

  /// Schedule `cb` at absolute time `t`.  Scheduling in the past is a
  /// synchronization bug under sharding: debug builds assert; release
  /// builds clamp to now() and count it in clamped_schedules().
  EventId schedule_at(TimePoint t, Callback cb);
  /// Schedule `cb` after a relative delay.
  EventId schedule_after(Duration d, Callback cb) {
    return schedule_at(now_ + d, std::move(cb));
  }
  /// Schedule a link delivery carrying its canonical cross-partition sort
  /// key: `stream` is the global link-direction id, `seq` the sender's
  /// per-stream monotone sequence, `aux` a payload discriminator (frame
  /// size) folded into the event-trace digest.  Deliveries are not
  /// cancellable (links guard their callbacks with AliveTokens instead).
  void schedule_delivery(TimePoint t, std::uint64_t stream, std::uint64_t seq,
                         std::uint32_t aux, Callback cb);
  /// Cancel a pending event; harmless if it already ran.
  void cancel(EventId id);

  /// Run the next event, if any.  Returns false when the queue is empty.
  bool run_one();
  /// Run until the queue drains or stop() is called; returns events run.
  std::size_t run();
  /// Run all events with timestamp <= t, then advance the clock to t.
  std::size_t run_until(TimePoint t);
  /// Run all events with timestamp strictly < end, then advance the clock
  /// to end.  This is the conservative-window primitive: the sharded
  /// engine runs disjoint half-open windows [w, w+lookahead) so an event
  /// at exactly the horizon lands in the next window on every shard.
  std::size_t run_window(TimePoint end);
  /// Convenience: run_until(now + d).
  std::size_t run_for(Duration d) { return run_until(now_ + d); }
  /// Make run()/run_until() return at the next event boundary.
  void stop() { stopped_ = true; }

  /// Timestamp of the earliest pending event, or TimePoint::max() when
  /// the queue is empty.  Prunes cancelled debris from the heap top.
  TimePoint next_event_at();

  /// Advance the clock without running anything (engine barrier path;
  /// asserts no event would be skipped).
  void advance_to(TimePoint t) {
    assert(next_event_at() >= t);
    if (now_ < t) now_ = t;
  }

  /// Live (scheduled, not cancelled, not yet run) events — exact.
  std::size_t pending() const { return pending_; }
  /// Heap slots actually held, including lazily-cancelled entries not yet
  /// compacted.  Bounded at O(pending()): the growth-regression test
  /// asserts cancelled debris cannot accumulate.
  std::size_t queue_depth() const { return heap_.size(); }
  std::uint64_t events_processed() const { return processed_; }
  /// Release-build count of past-timestamp schedules clamped to now().
  std::uint64_t clamped_schedules() const { return clamped_; }

  /// Event-trace recording: when on, every executed delivery folds
  /// (at, seq, aux) into its stream's running chain.  The per-stream
  /// tables of all shards merge into one digest independent of execution
  /// interleaving — see ShardedEngine::trace_digest().
  void set_tracing(bool on) { tracing_ = on; }
  bool tracing() const { return tracing_; }
  const std::unordered_map<std::uint64_t, TraceStream>& trace() const {
    return trace_;
  }

 private:
  /// Heap entry: the canonical sort key plus the arena slot it refers to.
  /// Trivially copyable, so sifts move 32 bytes and no closure.
  struct Key {
    TimePoint at;
    std::uint64_t key0;  // 0 = timer; stream id + 1 = delivery
    std::uint64_t key1;  // timer: loop-local seq; delivery: stream seq
    std::uint32_t slot;
    std::uint32_t gen;   // dead once the slot's generation moved on
    // Heap is a max-heap; invert so the canonical order pops first.
    bool operator<(const Key& o) const {
      if (at != o.at) return at > o.at;
      if (key0 != o.key0) return key0 > o.key0;
      return key1 > o.key1;
    }
  };
  static_assert(sizeof(Key) == 32);

  /// Arena slot of one pending event.  The generation counts the slot's
  /// tenants; it starts at 1 and skips 0, so EventId 0 is never live.
  struct Slot {
    Callback cb;
    std::uint32_t gen = 1;
    std::uint32_t aux = 0;  // deliveries: trace-digest discriminator
  };
  static_assert(sizeof(Slot) == 96);
  static constexpr std::size_t kChunkSlots = 64;

  Slot& slot(std::uint32_t i) {
    return chunks_[i / kChunkSlots][i % kChunkSlots];
  }
  bool live(const Key& k) { return slot(k.slot).gen == k.gen; }
  /// Store a new event's callback; returns its slot index.
  std::uint32_t acquire_slot(Callback&& cb, std::uint32_t aux);
  /// Retire a slot whose callback was moved out or destroyed: bumping the
  /// generation kills every outstanding key and EventId for it.
  void release_slot(std::uint32_t i) {
    Slot& s = slot(i);
    if (++s.gen == 0) s.gen = 1;
    free_slots_.push_back(i);
  }

  TimePoint clamp_to_now(TimePoint t);
  void push_key(const Key& k);
  void pop_key();
  /// Drop cancelled debris from the heap top; false when the heap is empty.
  bool prune_top();
  template <typename Due>
  std::size_t run_while(Due due);
  void execute(const Key& k);
  void maybe_compact();

  TimePoint now_{};
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  std::uint64_t clamped_ = 0;
  std::size_t pending_ = 0;  // live keys currently in heap_
  bool stopped_ = false;
  bool tracing_ = false;
  // Binary heap via push_heap/pop_heap (priority_queue would hide the
  // storage needed for compaction).
  std::vector<Key> heap_;
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t slots_used_ = 0;  // high-water slot count
  std::vector<std::uint32_t> free_slots_;
  std::unordered_map<std::uint64_t, TraceStream> trace_;
};

}  // namespace ipop::sim
