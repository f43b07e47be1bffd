#include "sim/link.hpp"

#include <cmath>

#include "util/logging.hpp"

namespace ipop::sim {

void LinkEnd::send(Frame frame) { link_->transmit(is_a_, std::move(frame)); }

Link::Link(EventLoop& loop, const LinkConfig& cfg, util::Rng rng,
           std::string name)
    : Link(loop, cfg, cfg, std::move(rng), std::move(name)) {}

Link::Link(EventLoop& loop, const LinkConfig& a_to_b, const LinkConfig& b_to_a,
           util::Rng rng, std::string name)
    : name_(std::move(name)) {
  dir_[0].cfg = a_to_b;
  dir_[1].cfg = b_to_a;
  // Independent per-direction streams so the two senders' draws stay
  // uncoupled when the directions run on different shards.
  dir_[0].rng = rng.fork(0);
  dir_[1].rng = rng.fork(1);
  for (Direction& d : dir_) {
    d.src_loop = &loop;
    d.dst_loop = &loop;
  }
  dir_[0].dst = &b_;
  dir_[1].dst = &a_;
  a_.link_ = this;
  a_.is_a_ = true;
  b_.link_ = this;
  b_.is_a_ = false;
}

void Link::set_streams(std::uint64_t a_to_b, std::uint64_t b_to_a) {
  dir_[0].stream = a_to_b;
  dir_[1].stream = b_to_a;
}

void Link::bind(EventLoop& loop_a, EventLoop& loop_b, Channel* a_to_b,
                Channel* b_to_a) {
  dir_[0].src_loop = &loop_a;
  dir_[0].dst_loop = &loop_b;
  dir_[0].channel = a_to_b;
  dir_[1].src_loop = &loop_b;
  dir_[1].dst_loop = &loop_a;
  dir_[1].channel = b_to_a;
}

void Link::transmit(bool from_a, Frame frame) {
  Direction& d = dir_[from_a ? 0 : 1];
  ++d.frames_sent;

  if (!up_) {
    ++d.frames_dropped_loss;
    return;
  }
  if (d.cfg.loss_rate > 0 && d.rng.chance(d.cfg.loss_rate)) {
    ++d.frames_dropped_loss;
    return;
  }

  const TimePoint now = d.src_loop->now();
  // Current backlog in bytes is the unserialized horizon times bandwidth.
  double backlog_bytes = 0.0;
  if (d.cfg.bandwidth_bps > 0 && d.tx_free_at > now) {
    backlog_bytes = static_cast<double>((d.tx_free_at - now).count()) *
                    d.cfg.bandwidth_bps / 8e9;
  }
  if (backlog_bytes + static_cast<double>(frame.size()) >
      static_cast<double>(d.cfg.queue_bytes)) {
    ++d.frames_dropped_queue;
    IPOP_LOG_TRACE(name_ << ": queue drop (" << backlog_bytes << "B backlog)");
    return;
  }

  Duration serialization{};
  if (d.cfg.bandwidth_bps > 0) {
    serialization = Duration{static_cast<std::int64_t>(std::llround(
        static_cast<double>(frame.size()) * 8.0 / d.cfg.bandwidth_bps * 1e9))};
  }
  const TimePoint tx_start = std::max(now, d.tx_free_at);
  const TimePoint tx_done = tx_start + serialization;
  d.tx_free_at = tx_done;

  Duration jitter{};
  if (d.cfg.jitter.count() > 0) {
    jitter = Duration{static_cast<std::int64_t>(
        d.rng.uniform(0, static_cast<double>(d.cfg.jitter.count())))};
  }
  const TimePoint deliver_at = tx_done + d.cfg.delay + jitter;
  const auto aux = static_cast<std::uint32_t>(frame.size());

  // The delivery closure touches only receiver-shard state; the sender's
  // counters above were already settled on this thread.
  auto deliver = [alive = alive_.guard(), &d,
                  frame = std::move(frame)]() mutable {
    if (!alive) return;
    ++d.rx_frames_delivered;
    d.rx_bytes_delivered += frame.size();
    if (d.dst->receiver_) d.dst->receiver_(std::move(frame));
  };
  // One delivery per frame on every link: keep it off the heap.
  static_assert(Callback::kStoredInline<decltype(deliver)>);

  if (d.channel != nullptr) {
    d.channel->push(
        StampedEvent{deliver_at, d.stream, d.seq++, aux, std::move(deliver)});
  } else if (d.stream != kNoStream) {
    d.dst_loop->schedule_delivery(deliver_at, d.stream, d.seq++, aux,
                                  std::move(deliver));
  } else {
    // Untagged (unit-test / intra-host) link: plain loop-local event.
    d.dst_loop->schedule_at(deliver_at, std::move(deliver));
  }
}

}  // namespace ipop::sim
