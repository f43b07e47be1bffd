// ShardedEngine — conservative parallel discrete-event engine.
//
// The engine owns N shard-local EventLoops plus one worker thread per
// shard (for N > 1) and advances simulated time in conservative windows
// (Chandy–Misra-style lookahead):
//
//   1. The coordinator drains every cross-shard Channel into the
//      destination loops, finds the global minimum next-event time `w`,
//      and announces the window [w, w + lookahead).
//   2. Each worker runs its own loop's events inside the window.  Any
//      cross-shard link send produced by those events is stamped for
//      delivery at >= w + lookahead (lookahead = minimum cross-shard link
//      delay), so nothing a peer shard does during the window can affect
//      this window — shards are causally independent inside it.
//   3. A barrier ends the window; goto 1.  Empty stretches are skipped by
//      jumping `w` straight to the next event time.
//
// Determinism: each loop executes its events in the canonical
// partition-invariant order (see event_loop.hpp), cross-shard deliveries
// carry sender-assigned (stream, seq) stamps, and channel drains happen
// only at barriers on the coordinator thread.  A run is therefore
// bit-for-bit identical for any shard count, including 1 — the digest
// test pins this.
//
// The shard planner partitions the precomputed link graph: zero-delay
// edges are contracted (a zero-delay cut would force a zero lookahead),
// then components are greedily merged along the smallest-delay edges
// (Kruskal under a balance cap) so the surviving cut is made of
// high-latency links and the window stays wide.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "sim/channel.hpp"
#include "sim/event_loop.hpp"
#include "util/random.hpp"

namespace ipop::sim {

class ShardedEngine {
 public:
  using VertexId = std::size_t;

  ShardedEngine();
  ~ShardedEngine();
  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  // --- topology registration (before plan()) -------------------------------
  /// Register a schedulable vertex (host, switch, middlebox).  Until
  /// plan() runs every vertex lives on shard 0.
  VertexId add_vertex();
  /// Register a link between two vertices with its one-way delay (the
  /// smaller direction for asymmetric links).
  void add_edge(VertexId a, VertexId b, Duration delay);

  // --- planning -------------------------------------------------------------
  /// Partition vertices into `n` shards, compute the lookahead, create
  /// the shard loops/channels and (for n > 1) the worker threads.  Must
  /// be called at most once, before any events are scheduled.  `seed`
  /// feeds the per-shard Rng streams.
  void plan(std::size_t n, std::uint64_t seed = 1);

  std::size_t shards() const { return loops_.size(); }
  std::size_t shard_of(VertexId v) const { return shard_of_[v]; }
  EventLoop& loop(std::size_t shard) { return *loops_[shard]; }
  EventLoop& loop_of(VertexId v) { return *loops_[shard_of_[v]]; }
  /// Channel for src-shard -> dst-shard deliveries; nullptr when equal.
  Channel* channel(std::size_t src, std::size_t dst);
  /// Minimum cross-shard link delay (TimePoint::max() when no edge is
  /// cut, e.g. single shard).
  Duration lookahead() const { return lookahead_; }
  /// Independent deterministic random stream for one shard, derived from
  /// the global seed + shard ordinal.
  util::Rng shard_rng(std::size_t shard) const {
    return util::Rng(seed_).fork(0x5AA2D000ULL + shard);
  }

  // --- running --------------------------------------------------------------
  TimePoint now() const { return loops_[0]->now(); }
  /// Run every shard's events with timestamp <= t, then advance all
  /// clocks to t.  Returns events executed across all shards.
  std::size_t run_until(TimePoint t);
  std::size_t run_for(Duration d) { return run_until(now() + d); }

  // --- stats / tracing ------------------------------------------------------
  std::uint64_t events_processed() const;
  std::uint64_t windows_run() const { return windows_; }
  std::uint64_t channel_events() const;
  void set_tracing(bool on);
  /// sha1 hex over the merged per-stream trace tables of all shards,
  /// sorted by stream id — identical for any shard count.
  std::string trace_digest() const;

 private:
  enum class Phase { kWindow, kUntil };

  void worker_main(std::size_t shard);
  void run_phase(Phase phase, TimePoint end);
  void drain_channels();

  bool planned_ = false;
  std::uint64_t seed_ = 1;
  Duration lookahead_ = Duration::max();
  std::uint64_t windows_ = 0;

  std::vector<std::unique_ptr<EventLoop>> loops_;
  std::vector<std::size_t> shard_of_;  // vertex -> shard
  struct Edge {
    VertexId a, b;
    Duration delay;
  };
  std::vector<Edge> edges_;

  // channels_[src * n + dst]; null on the diagonal.
  std::vector<std::unique_ptr<Channel>> channels_;
  std::vector<StampedEvent> drain_buf_;

  // Worker coordination.  phase_/phase_end_/counters written by the
  // coordinator strictly before the start barrier and read by workers
  // strictly after it (and vice versa for the end barrier), so plain
  // members suffice; the barrier provides the happens-before edges.
  struct BarrierState;  // hides <barrier> from this header
  std::unique_ptr<BarrierState> bar_;
  std::vector<std::thread> threads_;
  Phase phase_ = Phase::kWindow;
  TimePoint phase_end_{};
  bool quit_ = false;
  std::vector<std::size_t> phase_counts_;  // per-shard events run
};

}  // namespace ipop::sim
