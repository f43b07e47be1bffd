// Host CPU occupancy model.
//
// The paper attributes IPOP's latency overhead to user-level packet
// processing (tap reads, Mono runtime, encapsulation) and shows that on
// overloaded Planet-Lab routers (load > 10) this inflates RTTs to seconds.
// CpuScheduler serializes simulated work on one core and scales each task's
// cost by (1 + load), reproducing both the unloaded 6-10 ms overhead and
// the loaded Planet-Lab regime with a single mechanism.
#pragma once

#include <string>

#include "sim/event_loop.hpp"
#include "util/random.hpp"

namespace ipop::sim {

class CpuScheduler {
 public:
  CpuScheduler(EventLoop& loop, std::string name)
      : loop_(&loop), name_(std::move(name)) {}

  /// Re-home onto a shard loop (engine planning; before any work runs).
  void rebind(EventLoop& loop) { loop_ = &loop; }

  /// External contention: effective task cost = cost * (1 + load).
  void set_load(double load) { load_ = load < 0 ? 0 : load; }
  double load() const { return load_; }

  /// Timesharing model: before each task runs, the process waits an
  /// exponentially distributed scheduling delay with mean quantum * load
  /// (zero quantum disables it).  This is what turns "CPU load in excess
  /// of 10" on Planet-Lab routers into the paper's multi-second RTTs
  /// (Section IV-D): the user-level router waits whole timeslices before
  /// it even touches a packet.
  void set_sched_quantum(Duration q) { sched_quantum_ = q; }
  Duration sched_quantum() const { return sched_quantum_; }

  /// Enqueue `cost` worth of CPU work; `done` fires when it completes.
  /// Work is FIFO-serialized: a busy CPU delays subsequent packets, which
  /// is exactly the queueing effect seen at loaded overlay routers.
  void run(Duration cost, EventLoop::Callback done);

  /// Total CPU time consumed (after load scaling).
  Duration busy_total() const { return busy_total_; }
  /// Work items executed.
  std::uint64_t tasks() const { return tasks_; }
  const std::string& name() const { return name_; }

 private:
  EventLoop* loop_;
  std::string name_;
  double load_ = 0.0;
  Duration sched_quantum_{};
  util::Rng rng_{0xC0FFEE};
  TimePoint free_at_{};
  Duration busy_total_{};
  std::uint64_t tasks_ = 0;
};

}  // namespace ipop::sim
