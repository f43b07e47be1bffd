// Point-to-point physical link with bandwidth, delay, queue, loss, jitter.
//
// A Link owns two LinkEnd endpoints; whatever is attached to an end (a host
// NIC, a switch port, a NAT interface, IPOP's tap device) exchanges raw
// frames through it.  Each direction models: a drop-tail byte-bounded
// transmit queue, store-and-forward serialization at the configured
// bandwidth, fixed propagation delay, optional uniform jitter and random
// loss.  This is the substrate that stands in for the paper's ACIS LAN,
// Abilene WAN paths and Planet-Lab access links.
//
// Shard affinity: a direction's state is split by which shard touches it.
// The transmit path (loss draw, backlog accounting, tx_free_at, drop/sent
// counters) runs on the *sender's* loop; the delivery lambda (delivered
// counters, receiver handler) runs on the *receiver's* loop.  When the two
// ends live on different shards the delivery is stamped with the
// direction's (stream, seq) key and routed through the engine Channel
// instead of being scheduled directly — scheduling onto a peer shard's
// loop is the race the shard-affinity lint rule flags.  The frame Buffer
// crosses by handle (zero-copy); the window barrier serializes the
// refcount hand-off.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/channel.hpp"
#include "sim/event_loop.hpp"
#include "util/buffer.hpp"
#include "util/lifetime.hpp"
#include "util/random.hpp"

namespace ipop::sim {

/// Frames are reference-counted buffers: a link (and the learning switch
/// flooding a frame out of several ports) forwards the handle, never the
/// bytes, so the physical substrate adds zero payload copies.
using Frame = util::Buffer;
using FrameHandler = std::function<void(Frame)>;

struct LinkConfig {
  /// One-way propagation delay.
  Duration delay = util::microseconds(100);
  /// Bits per second; 0 means infinite (no serialization delay).
  double bandwidth_bps = 100e6;
  /// Drop-tail transmit queue capacity in bytes (per direction).
  std::size_t queue_bytes = 128 * 1024;
  /// Independent per-frame loss probability.
  double loss_rate = 0.0;
  /// Additional uniform delay in [0, jitter).
  Duration jitter{};
};

struct LinkStats {
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_delivered = 0;
  std::uint64_t frames_dropped_queue = 0;
  std::uint64_t frames_dropped_loss = 0;
  std::uint64_t bytes_delivered = 0;
};

class Link;

/// One side of a Link: send frames in, receive frames from the peer side.
class LinkEnd {
 public:
  void send(Frame frame);
  void set_receiver(FrameHandler handler) { receiver_ = std::move(handler); }
  Link& link() { return *link_; }

 private:
  friend class Link;
  Link* link_ = nullptr;
  bool is_a_ = false;
  FrameHandler receiver_;
};

class Link {
 public:
  /// No canonical delivery stream assigned: deliveries schedule as plain
  /// loop-local events (unit tests, intra-host tap links).
  static constexpr std::uint64_t kNoStream = ~0ULL;

  /// Symmetric link.
  Link(EventLoop& loop, const LinkConfig& cfg, util::Rng rng,
       std::string name = "link");
  /// Asymmetric link (separate config per direction).
  Link(EventLoop& loop, const LinkConfig& a_to_b, const LinkConfig& b_to_a,
       util::Rng rng, std::string name = "link");

  LinkEnd& end_a() { return a_; }
  LinkEnd& end_b() { return b_; }

  /// Assign the global delivery-stream ids (canonical cross-partition
  /// sort key; Network derives them from the link's creation index).
  void set_streams(std::uint64_t a_to_b, std::uint64_t b_to_a);
  /// Re-home the two ends onto their shard loops after planning.  A null
  /// channel means the corresponding direction stays intra-shard.
  void bind(EventLoop& loop_a, EventLoop& loop_b, Channel* a_to_b,
            Channel* b_to_a);

  LinkStats stats_a_to_b() const { return stats(0); }
  LinkStats stats_b_to_a() const { return stats(1); }
  const std::string& name() const { return name_; }

  /// Administratively disable/enable (frames dropped while down); used by
  /// churn and failure-injection tests.  Under sharding, call only from
  /// the coordinator between windows (workers never write it).
  void set_up(bool up) { up_ = up; }
  bool is_up() const { return up_; }

 private:
  friend class LinkEnd;

  struct Direction {
    LinkConfig cfg;  // immutable after construction
    // --- sender-shard state (touched only on src_loop's thread) --------
    // Time at which the transmitter finishes serializing queued frames;
    // the byte backlog is derived from this horizon, so drop-tail
    // accounting is exact.
    TimePoint tx_free_at{};
    util::Rng rng;  // per-direction stream: loss + jitter draws
    std::uint64_t stream = kNoStream;
    std::uint64_t seq = 0;  // per-stream monotone delivery sequence
    std::uint64_t frames_sent = 0;
    std::uint64_t frames_dropped_queue = 0;
    std::uint64_t frames_dropped_loss = 0;
    EventLoop* src_loop = nullptr;
    // --- receiver-shard state (touched only on dst_loop's thread) ------
    std::uint64_t rx_frames_delivered = 0;
    std::uint64_t rx_bytes_delivered = 0;
    LinkEnd* dst = nullptr;  // the receiving end
    EventLoop* dst_loop = nullptr;
    Channel* channel = nullptr;  // non-null when the direction crosses
  };

  LinkStats stats(int d) const {
    return LinkStats{dir_[d].frames_sent, dir_[d].rx_frames_delivered,
                     dir_[d].frames_dropped_queue,
                     dir_[d].frames_dropped_loss,
                     dir_[d].rx_bytes_delivered};
  }

  void transmit(bool from_a, Frame frame);

  std::string name_;
  bool up_ = true;
  Direction dir_[2];  // [0]: a->b, [1]: b->a
  LinkEnd a_, b_;
  // Declared last: in-flight delivery events reference dir_/ends by
  // reference; the guard turns them into no-ops once the Link is gone.
  util::AliveToken alive_;
};

}  // namespace ipop::sim
