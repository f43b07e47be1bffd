#include "sim/cpu.hpp"

#include <cmath>

namespace ipop::sim {

void CpuScheduler::run(Duration cost, EventLoop::Callback done) {
  const auto scaled = Duration{static_cast<std::int64_t>(
      std::llround(static_cast<double>(cost.count()) * (1.0 + load_)))};
  // Timeslice wait applies when the process has to be *scheduled in*
  // (CPU idle for us).  Work arriving while we are already running or
  // queued is handled within the same burst — otherwise a loaded node
  // could never drain its queue.
  Duration sched_wait{};
  if (sched_quantum_.count() > 0 && load_ > 0 && free_at_ <= loop_->now()) {
    sched_wait = Duration{static_cast<std::int64_t>(rng_.exponential(
        static_cast<double>(sched_quantum_.count()) * load_))};
  }
  const TimePoint start = std::max(loop_->now(), free_at_) + sched_wait;
  const TimePoint finish = start + scaled;
  free_at_ = finish;
  busy_total_ += scaled;
  ++tasks_;
  loop_->schedule_at(finish, std::move(done));
}

}  // namespace ipop::sim
