#include "net/tcp.hpp"

#include <algorithm>

#include "net/stack.hpp"
#include "util/logging.hpp"

namespace ipop::net {

namespace {

constexpr std::size_t kSendBuf = 64 * 1024;
constexpr Duration kMinRto = util::milliseconds(200);
constexpr Duration kMaxRto = util::seconds(60);
constexpr Duration kInitialRto = util::seconds(1);
constexpr Duration kTimeWaitPeriod = util::seconds(30);
constexpr Duration kPersistInterval = util::milliseconds(500);

}  // namespace

TcpSocket::TcpSocket(Stack* stack, TcpConfig cfg) : stack_(stack), cfg_(cfg) {
  rto_ = kInitialRto;
}

TcpSocket::~TcpSocket() { detach(); }  // timers hold only the event id

void TcpSocket::detach() {
  if (stack_ != nullptr) {
    if (retransmit_timer_ != 0) stack_->loop().cancel(retransmit_timer_);
    if (persist_timer_ != 0) stack_->loop().cancel(persist_timer_);
    if (time_wait_timer_ != 0) stack_->loop().cancel(time_wait_timer_);
    retransmit_timer_ = persist_timer_ = time_wait_timer_ = 0;
  }
  stack_ = nullptr;
  pending_listener_ = nullptr;
  // Dead state: every user-facing entry point (send/close/abort) becomes
  // a no-op rather than dereferencing the destroyed stack.
  state_ = TcpState::kClosed;
  closed_notified_ = true;
  on_connected = nullptr;
  on_readable = nullptr;
  on_writable = nullptr;
  on_closed = nullptr;
}

std::size_t TcpSocket::send_space() const {
  return kSendBuf - std::min(kSendBuf, send_queue_.size());
}

std::size_t TcpSocket::flight_size() const { return snd_nxt_ - snd_una_; }

std::size_t TcpSocket::recv_space() const {
  return cfg_.recv_buf - std::min(cfg_.recv_buf, recv_ready_.size());
}

std::uint16_t TcpSocket::advertised_window() const {
  return static_cast<std::uint16_t>(std::min<std::size_t>(recv_space(), 65535));
}

// ---------------------------------------------------------------------------
// Connection setup
// ---------------------------------------------------------------------------

void TcpSocket::start_connect(Ipv4Address dst, std::uint16_t dst_port,
                              Ipv4Address src, std::uint16_t src_port) {
  local_ip_ = src;
  local_port_ = src_port;
  remote_ip_ = dst;
  remote_port_ = dst_port;
  iss_ = static_cast<std::uint32_t>(stack_->rng()());
  snd_una_ = iss_;
  snd_nxt_ = iss_ + 1;
  ssthresh_ = 64 * 1024 * 1024;  // effectively unbounded until first loss
  cwnd_ = 2 * cfg_.mss;
  state_ = TcpState::kSynSent;
  syn_attempts_ = 1;
  TcpFlags syn;
  syn.syn = true;
  rtt_timing_ = true;
  rtt_seq_ = iss_;
  rtt_sent_at_ = stack_->loop().now();
  emit_segment(iss_, syn);
  arm_retransmit();
}

void TcpSocket::start_accept(Ipv4Address local, std::uint16_t local_port,
                             Ipv4Address remote, std::uint16_t remote_port,
                             const TcpView& syn, TcpListener* listener) {
  local_ip_ = local;
  local_port_ = local_port;
  remote_ip_ = remote;
  remote_port_ = remote_port;
  pending_listener_ = listener;
  iss_ = static_cast<std::uint32_t>(stack_->rng()());
  snd_una_ = iss_;
  snd_nxt_ = iss_ + 1;
  rcv_nxt_ = syn.seq + 1;
  snd_wnd_ = syn.window;
  ssthresh_ = 64 * 1024 * 1024;
  cwnd_ = 2 * cfg_.mss;
  state_ = TcpState::kSynRcvd;
  TcpFlags synack;
  synack.syn = true;
  synack.ack = true;
  emit_segment(iss_, synack);
  arm_retransmit();
}

void TcpSocket::enter_established() {
  state_ = TcpState::kEstablished;
  cancel_retransmit();
  dup_acks_ = 0;
}

// ---------------------------------------------------------------------------
// Segment input
// ---------------------------------------------------------------------------

void TcpSocket::on_segment(const TcpView& seg, const util::Buffer& wire) {
  auto self = shared_from_this();  // keep alive through close paths
  ++stats_.segments_received;

  if (seg.flags.rst) {
    if (state_ == TcpState::kSynSent) {
      if (seg.flags.ack && seg.ack == iss_ + 1) {
        become_closed("connection refused");
      }
      return;
    }
    // Acceptable if in the receive window (simplified check).
    if (seq_ge(seg.seq, rcv_nxt_)) become_closed("connection reset");
    return;
  }

  switch (state_) {
    case TcpState::kClosed:
      return;

    case TcpState::kSynSent: {
      if (seg.flags.ack && seg.ack != iss_ + 1) {
        send_rst(seg.ack, 0, false);
        return;
      }
      if (seg.flags.syn && seg.flags.ack) {
        snd_una_ = seg.ack;
        rcv_nxt_ = seg.seq + 1;
        snd_wnd_ = seg.window;
        if (rtt_timing_) {
          sample_rtt(stack_->loop().now() - rtt_sent_at_);
          rtt_timing_ = false;
        }
        enter_established();
        send_ack_now();
        if (on_connected) on_connected();
        output();
      } else if (seg.flags.syn) {
        // Simultaneous open.
        rcv_nxt_ = seg.seq + 1;
        snd_wnd_ = seg.window;
        state_ = TcpState::kSynRcvd;
        TcpFlags synack;
        synack.syn = true;
        synack.ack = true;
        emit_segment(iss_, synack);
        arm_retransmit();
      }
      return;
    }

    case TcpState::kSynRcvd: {
      if (seg.flags.syn && !seg.flags.ack) {
        // Retransmitted SYN: re-answer.
        TcpFlags synack;
        synack.syn = true;
        synack.ack = true;
        emit_segment(iss_, synack);
        return;
      }
      if (seg.flags.ack && seg.ack == iss_ + 1) {
        snd_una_ = seg.ack;
        snd_wnd_ = seg.window;
        enter_established();
        if (pending_listener_ != nullptr) {
          auto* listener = pending_listener_;
          pending_listener_ = nullptr;
          listener->connection_ready(self);
        }
        if (on_connected) on_connected();
        // Fall through to data processing of this same segment.
        process_data(seg, wire);
        output();
      }
      return;
    }

    case TcpState::kTimeWait:
      // Peer retransmitted its FIN: re-ack it.
      if (seg.flags.fin) send_ack_now();
      return;

    default:
      break;
  }

  // Data-carrying states.
  process_ack(seg);
  if (state_ == TcpState::kClosed) return;  // ack processing may close
  process_data(seg, wire);
  if (state_ == TcpState::kClosed) return;
  output();
}

void TcpSocket::process_ack(const TcpView& seg) {
  if (!seg.flags.ack) return;
  const std::uint32_t ack = seg.ack;

  if (seq_gt(ack, snd_nxt_)) {
    send_ack_now();  // ack for data we have not sent
    return;
  }

  if (seq_le(ack, snd_una_)) {
    // Possible duplicate ack.
    if (ack == snd_una_ && seg.payload.empty() && !seg.flags.fin &&
        flight_size() > 0) {
      ++dup_acks_;
      ++stats_.dup_acks_received;
      snd_wnd_ = seg.window;
      if (!in_recovery_ && dup_acks_ == 3) {
        ssthresh_ = std::max(flight_size() / 2, 2 * cfg_.mss);
        recover_ = snd_nxt_;
        in_recovery_ = true;
        ++stats_.fast_retransmits;
        retransmit_front();
        cwnd_ = ssthresh_ + 3 * cfg_.mss;
        arm_retransmit();
      } else if (in_recovery_) {
        cwnd_ += cfg_.mss;  // window inflation
        output();
      }
    } else {
      snd_wnd_ = seg.window;
    }
    return;
  }

  // New data acknowledged.
  std::uint32_t acked = ack - snd_una_;
  bool fin_now_acked = false;
  if (fin_sent_ && seq_gt(ack, fin_seq_)) {
    acked -= 1;
    fin_now_acked = true;
  }
  if (acked > send_queue_.size()) acked = static_cast<std::uint32_t>(send_queue_.size());
  send_queue_.drop_front(acked);
  snd_una_ = ack;
  snd_wnd_ = seg.window;
  backoff_ = 0;

  if (rtt_timing_ && seq_gt(ack, rtt_seq_)) {
    sample_rtt(stack_->loop().now() - rtt_sent_at_);
    rtt_timing_ = false;
  }

  if (in_recovery_) {
    if (seq_ge(ack, recover_)) {
      // Full recovery: deflate to ssthresh.
      cwnd_ = std::max(ssthresh_, 2 * cfg_.mss);
      in_recovery_ = false;
      dup_acks_ = 0;
    } else {
      // NewReno partial ack: retransmit the next hole, deflate.
      retransmit_front();
      cwnd_ = cwnd_ > acked ? cwnd_ - acked : cfg_.mss;
      cwnd_ += cfg_.mss;
      arm_retransmit();
    }
  } else {
    dup_acks_ = 0;
    if (cwnd_ < ssthresh_) {
      cwnd_ += cfg_.mss;  // slow start
    } else {
      cwnd_ += std::max<std::size_t>(1, cfg_.mss * cfg_.mss / cwnd_);
    }
  }

  if (flight_size() == 0 && !(fin_sent_ && !fin_now_acked)) {
    cancel_retransmit();
  } else {
    arm_retransmit();
  }

  if (send_buf_was_full_ && send_space() > 0) {
    send_buf_was_full_ = false;
    if (on_writable) on_writable();
  }

  if (fin_now_acked) {
    fin_acked_by_us_ = true;
    switch (state_) {
      case TcpState::kFinWait1:
        state_ = TcpState::kFinWait2;
        break;
      case TcpState::kClosing:
        enter_time_wait();
        break;
      case TcpState::kLastAck:
        become_closed("");
        break;
      default:
        break;
    }
  }
}

void TcpSocket::process_data(const TcpView& seg, const util::Buffer& wire) {
  const std::uint32_t orig_seq = seg.seq;
  const std::size_t len = seg.payload.size();

  if (len > 0) {
    std::uint32_t seq = orig_seq;
    // The payload stays in the received buffer: queues hold shares of it.
    auto data = wire.share(
        static_cast<std::size_t>(seg.payload.data() - wire.data()), len);

    if (seq_lt(seq, rcv_nxt_)) {
      const std::uint32_t overlap = rcv_nxt_ - seq;
      if (overlap >= data.size()) {
        send_ack_now();  // entirely old data
        data = {};
      } else {
        data.drop_front(overlap);
        seq = rcv_nxt_;
      }
    }

    if (!data.empty()) {
      if (seq_gt(seq, rcv_nxt_)) {
        // Out of order: buffer (bounded) and send a duplicate ack.
        if (ooo_bytes_ + data.size() <= cfg_.recv_buf &&
            out_of_order_.find(seq) == out_of_order_.end()) {
          ooo_bytes_ += data.size();
          out_of_order_.emplace(seq, std::move(data));
        }
        send_ack_now();
      } else {
        // In order: accept what fits the receive buffer.
        const std::size_t take = std::min(recv_space(), data.size());
        recv_ready_.append(data.share(0, take));
        rcv_nxt_ += static_cast<std::uint32_t>(take);
        // Drain contiguous out-of-order segments.  Bytes that do not fit
        // the receive buffer are dropped unacked; the peer retransmits.
        auto it = out_of_order_.begin();
        while (it != out_of_order_.end() && seq_le(it->first, rcv_nxt_)) {
          const util::Buffer& buf = it->second;
          const std::size_t skip = rcv_nxt_ - it->first;
          if (skip < buf.size()) {
            const std::size_t add = std::min(recv_space(), buf.size() - skip);
            recv_ready_.append(buf.share(skip, add));
            rcv_nxt_ += static_cast<std::uint32_t>(add);
          }
          ooo_bytes_ -= buf.size();
          it = out_of_order_.erase(it);
        }
        stats_.bytes_received += take;
        send_ack_now();
        if (take > 0 && on_readable) on_readable();
      }
    }
  }

  if (seg.flags.fin) {
    const std::uint32_t fin_pos = orig_seq + static_cast<std::uint32_t>(len);
    if (fin_pos == rcv_nxt_ && !fin_received_) {
      fin_received_ = true;
      rcv_nxt_ += 1;
      send_ack_now();
      switch (state_) {
        case TcpState::kEstablished:
          state_ = TcpState::kCloseWait;
          break;
        case TcpState::kFinWait1:
          state_ = fin_acked_by_us_ ? TcpState::kTimeWait : TcpState::kClosing;
          if (state_ == TcpState::kTimeWait) enter_time_wait();
          break;
        case TcpState::kFinWait2:
          enter_time_wait();
          break;
        default:
          break;
      }
      if (on_readable) on_readable();  // EOF became observable
    } else if (seq_lt(fin_pos, rcv_nxt_)) {
      send_ack_now();  // duplicate FIN
    }
    // Out-of-order FIN: wait for retransmission of the gap.
  }
}

void TcpSocket::handle_frag_needed(std::size_t next_hop_mtu) {
  if (state_ == TcpState::kClosed || state_ == TcpState::kTimeWait) return;
  if (next_hop_mtu < 68 || next_hop_mtu > 65535) {
    // Old-style router that reports no MTU: fall back to the RFC 1191
    // default plateau.
    next_hop_mtu = 576;
  }
  // Clamp to a sane floor *before* the staleness check: if the floor
  // means the MSS cannot actually shrink, bail out entirely — reacting
  // anyway would retransmit an unsendable segment on every ICMP error
  // (an unthrottled livelock; the RTO path must own that case).
  const std::size_t new_mss = std::max<std::size_t>(
      next_hop_mtu - Ipv4Header::kSize - TcpSegment::kHeaderSize, 64);
  if (new_mss >= cfg_.mss) return;  // stale, bogus, or already at floor
  cfg_.mss = new_mss;
  ++stats_.pmtu_shrinks;
  // The oversized segment was dropped in the network, not by congestion:
  // resend it at the new size immediately, leaving cwnd/ssthresh alone.
  // Karn's rule: never time a retransmitted range.
  rtt_timing_ = false;
  if (flight_size() > 0) {
    retransmit_front();
    arm_retransmit();
  }
}

// ---------------------------------------------------------------------------
// Application interface
// ---------------------------------------------------------------------------

std::size_t TcpSocket::send(util::Buffer data) {
  util::BufferChain chain(std::move(data));
  return send_from(chain);
}

std::size_t TcpSocket::send_from(util::BufferChain& chain) {
  if (state_ != TcpState::kEstablished && state_ != TcpState::kCloseWait &&
      state_ != TcpState::kSynSent && state_ != TcpState::kSynRcvd) {
    return 0;
  }
  if (fin_queued_) return 0;
  const std::size_t take = std::min(send_space(), chain.size());
  if (take < chain.size()) send_buf_was_full_ = true;
  // Link shared handles into the queue — zero payload copies; a partial
  // accept links a sub-buffer share of the prefix.
  std::size_t left = take;
  for (std::size_t i = 0; i < chain.segments() && left > 0; ++i) {
    const util::Buffer& seg = chain.segment(i);
    if (left >= seg.size()) {
      send_queue_.append(seg.share());
      left -= seg.size();
    } else {
      send_queue_.append(seg.share(0, left));
      left = 0;
    }
  }
  chain.drop_front(take);
  if (take > 0 &&
      (state_ == TcpState::kEstablished || state_ == TcpState::kCloseWait)) {
    output();
  }
  return take;
}

util::Buffer TcpSocket::receive(std::size_t max) {
  const std::size_t take = std::min(max, recv_ready_.size());
  auto out = recv_ready_.try_share(0, take);
  if (!out) {
    // Spanning segments happens only after a reordering gap fills.
    stats_.payload_bytes_copied += recv_ready_.size();
    // lint:allow(zero-copy): a read spanning received segments is flattened once (counted)
    out = recv_ready_.coalesce().share(0, take);
  }
  const std::uint16_t before = advertised_window();
  recv_ready_.drop_front(take);
  // Window-update ack when the window reopens across an MSS boundary.
  if (state_ != TcpState::kClosed && before < cfg_.mss &&
      advertised_window() >= cfg_.mss) {
    send_ack_now();
  }
  return std::move(*out);
}

void TcpSocket::close() {
  switch (state_) {
    case TcpState::kSynSent:
      become_closed("");
      return;
    case TcpState::kEstablished:
    case TcpState::kSynRcvd:
      state_ = TcpState::kFinWait1;
      break;
    case TcpState::kCloseWait:
      state_ = TcpState::kLastAck;
      break;
    default:
      return;  // already closing/closed
  }
  fin_queued_ = true;
  output();
}

void TcpSocket::abort() {
  if (state_ == TcpState::kClosed) return;
  send_rst(snd_nxt_, rcv_nxt_, true);
  become_closed("aborted");
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

void TcpSocket::output() {
  if (state_ != TcpState::kEstablished && state_ != TcpState::kCloseWait &&
      state_ != TcpState::kFinWait1 && state_ != TcpState::kLastAck &&
      state_ != TcpState::kClosing) {
    return;
  }

  while (true) {
    const std::size_t in_flight = flight_size();
    const std::size_t wnd = std::min<std::size_t>(cwnd_, snd_wnd_);
    if (wnd <= in_flight) break;
    const std::size_t usable = wnd - in_flight;
    // Unsent bytes start at (snd_nxt_ - snd_una_) minus an unacked FIN's
    // sequence slot (FIN is only ever sent after all data, so when
    // fin_sent_ the queue is fully transmitted already).
    const std::size_t sent_data = fin_sent_ ? send_queue_.size() : in_flight;
    if (sent_data >= send_queue_.size()) break;
    const std::size_t avail = send_queue_.size() - sent_data;
    const std::size_t n = std::min({usable, avail, cfg_.mss});
    if (n == 0) break;
    // Nagle: while data is in flight, wait until a full MSS accumulates
    // (unless this flushes the tail ahead of a queued FIN).
    if (cfg_.nagle && n < cfg_.mss && in_flight > 0 && !fin_queued_) break;
    TcpFlags flags;
    flags.ack = true;
    flags.psh = (sent_data + n == send_queue_.size());
    if (!rtt_timing_) {
      rtt_timing_ = true;
      rtt_seq_ = snd_nxt_;
      rtt_sent_at_ = stack_->loop().now();
    }
    emit_data_segment(snd_nxt_, sent_data, n, flags);
    stats_.bytes_sent += n;
    snd_nxt_ += static_cast<std::uint32_t>(n);
    if (retransmit_timer_ == 0) arm_retransmit();
  }

  maybe_send_fin();

  // Zero-window probing.
  if (snd_wnd_ == 0 && flight_size() == 0 && !send_queue_.empty() &&
      persist_timer_ == 0) {
    arm_persist();
  }
}

void TcpSocket::maybe_send_fin() {
  if (!fin_queued_ || fin_sent_) return;
  const std::size_t in_flight = flight_size();
  if (in_flight < send_queue_.size()) return;  // data still unsent
  fin_seq_ = snd_nxt_;
  fin_sent_ = true;
  TcpFlags flags;
  flags.fin = true;
  flags.ack = true;
  emit_segment(snd_nxt_, flags);
  snd_nxt_ += 1;
  arm_retransmit();
}

TcpSegment TcpSocket::make_segment(std::uint32_t seq, TcpFlags flags) {
  TcpSegment seg;
  seg.src_port = local_port_;
  seg.dst_port = remote_port_;
  seg.seq = seq;
  seg.ack = flags.ack ? rcv_nxt_ : 0;
  seg.flags = flags;
  seg.window = advertised_window();
  return seg;
}

void TcpSocket::emit_wire(util::Buffer seg_wire) {
  Ipv4Packet pkt;
  pkt.hdr.proto = IpProto::kTcp;
  pkt.hdr.src = local_ip_;
  pkt.hdr.dst = remote_ip_;
  pkt.payload = std::move(seg_wire);
  ++stats_.segments_sent;
  stack_->send_ip(std::move(pkt));
}

void TcpSocket::emit_segment(std::uint32_t seq, TcpFlags flags) {
  emit_wire(make_segment(seq, flags).encode_gather(
      local_ip_, remote_ip_, util::kPacketHeadroom, kNoPayload, 0, 0));
}

void TcpSocket::emit_data_segment(std::uint32_t seq, std::size_t queue_offset,
                                  std::size_t len, TcpFlags flags) {
  TcpSegment seg = make_segment(seq, flags);
  // The queued bytes reach the wire image through one scatter-gather
  // walk (the simulated NIC's DMA descriptor pass), never through an
  // intermediate owning vector.
  stats_.payload_bytes_gathered += len;
  emit_wire(seg.encode_gather(local_ip_, remote_ip_, util::kPacketHeadroom,
                              send_queue_, queue_offset, len));
}

void TcpSocket::send_ack_now() {
  TcpFlags flags;
  flags.ack = true;
  emit_segment(snd_nxt_, flags);
}

void TcpSocket::send_rst(std::uint32_t seq, std::uint32_t ack, bool with_ack) {
  TcpFlags flags;
  flags.rst = true;
  flags.ack = with_ack;
  TcpSegment seg;
  seg.src_port = local_port_;
  seg.dst_port = remote_port_;
  seg.seq = seq;
  seg.ack = with_ack ? ack : 0;
  seg.flags = flags;
  Ipv4Packet pkt;
  pkt.hdr.proto = IpProto::kTcp;
  pkt.hdr.src = local_ip_;
  pkt.hdr.dst = remote_ip_;
  pkt.payload = seg.encode_gather(local_ip_, remote_ip_,
                                  util::kPacketHeadroom, kNoPayload, 0, 0);
  ++stats_.segments_sent;
  stack_->send_ip(std::move(pkt));
}

// ---------------------------------------------------------------------------
// Timers
// ---------------------------------------------------------------------------

void TcpSocket::arm_retransmit() {
  cancel_retransmit();
  auto self = weak_from_this();
  retransmit_timer_ = stack_->loop().schedule_after(
      current_rto(), [self] {
        if (auto s = self.lock()) {
          s->retransmit_timer_ = 0;
          s->on_retransmit_timeout();
        }
      });
}

void TcpSocket::cancel_retransmit() {
  if (retransmit_timer_ != 0) {
    stack_->loop().cancel(retransmit_timer_);
    retransmit_timer_ = 0;
  }
}

void TcpSocket::on_retransmit_timeout() {
  if (state_ == TcpState::kClosed || state_ == TcpState::kTimeWait) return;

  if (state_ == TcpState::kSynSent && ++syn_attempts_ > cfg_.syn_retries) {
    become_closed("connect timeout");
    return;
  }

  const bool anything_unacked =
      flight_size() > 0 || state_ == TcpState::kSynSent ||
      state_ == TcpState::kSynRcvd || (fin_sent_ && !fin_acked_by_us_);
  if (!anything_unacked) return;

  ++stats_.timeouts;
  ssthresh_ = std::max(flight_size() / 2, 2 * cfg_.mss);
  cwnd_ = cfg_.mss;
  in_recovery_ = false;
  dup_acks_ = 0;
  rtt_timing_ = false;  // Karn: never time retransmitted segments
  if (backoff_ < 12) ++backoff_;
  retransmit_front();
  arm_retransmit();
}

void TcpSocket::retransmit_front() {
  ++stats_.retransmits;
  if (state_ == TcpState::kSynSent) {
    TcpFlags syn;
    syn.syn = true;
    emit_segment(iss_, syn);
    return;
  }
  if (state_ == TcpState::kSynRcvd) {
    TcpFlags synack;
    synack.syn = true;
    synack.ack = true;
    emit_segment(iss_, synack);
    return;
  }
  // Earliest unacked data byte lives at the front of send_queue_.
  const std::size_t data_in_flight =
      fin_sent_ ? send_queue_.size() : flight_size();
  if (!send_queue_.empty() && data_in_flight > 0) {
    const std::size_t n =
        std::min({cfg_.mss, send_queue_.size(), data_in_flight});
    TcpFlags flags;
    flags.ack = true;
    flags.psh = true;
    emit_data_segment(snd_una_, 0, n, flags);
    stats_.bytes_sent += n;
    return;
  }
  if (fin_sent_ && !fin_acked_by_us_) {
    TcpFlags flags;
    flags.fin = true;
    flags.ack = true;
    emit_segment(fin_seq_, flags);
  }
}

void TcpSocket::arm_persist() {
  auto self = weak_from_this();
  persist_timer_ = stack_->loop().schedule_after(
      kPersistInterval, [self] {
        if (auto s = self.lock()) {
          s->persist_timer_ = 0;
          s->on_persist_timeout();
        }
      });
}

void TcpSocket::on_persist_timeout() {
  if (state_ == TcpState::kClosed) return;
  if (snd_wnd_ == 0 && !send_queue_.empty() && flight_size() == 0) {
    // Window probe: transmit one byte beyond the advertised window.  It is
    // real data (front of the queue), so it occupies sequence space and is
    // covered by the retransmission machinery.
    TcpFlags flags;
    flags.ack = true;
    emit_data_segment(snd_nxt_, 0, 1, flags);
    stats_.bytes_sent += 1;
    snd_nxt_ += 1;
    arm_retransmit();
  }
}

void TcpSocket::enter_time_wait() {
  state_ = TcpState::kTimeWait;
  cancel_retransmit();
  auto self = weak_from_this();
  time_wait_timer_ = stack_->loop().schedule_after(
      kTimeWaitPeriod, [self] {
        if (auto s = self.lock()) {
          s->time_wait_timer_ = 0;
          s->become_closed("");
        }
      });
}

void TcpSocket::become_closed(const std::string& reason) {
  if (state_ == TcpState::kClosed && closed_notified_) return;
  state_ = TcpState::kClosed;
  cancel_retransmit();
  if (persist_timer_ != 0) {
    stack_->loop().cancel(persist_timer_);
    persist_timer_ = 0;
  }
  if (time_wait_timer_ != 0) {
    stack_->loop().cancel(time_wait_timer_);
    time_wait_timer_ = 0;
  }
  auto self = shared_from_this();
  stack_->tcp_unregister(
      Stack::TcpKey{local_ip_, local_port_, remote_ip_, remote_port_});
  if (!closed_notified_) {
    closed_notified_ = true;
    if (on_closed) on_closed(reason);
  }
}

// ---------------------------------------------------------------------------
// RTT estimation (Jacobson/Karn)
// ---------------------------------------------------------------------------

void TcpSocket::sample_rtt(Duration rtt) {
  if (!srtt_valid_) {
    srtt_ = rtt;
    rttvar_ = rtt / 2;
    srtt_valid_ = true;
  } else {
    const auto err = rtt > srtt_ ? rtt - srtt_ : srtt_ - rtt;
    rttvar_ = (rttvar_ * 3 + err) / 4;
    srtt_ = (srtt_ * 7 + rtt) / 8;
  }
  rto_ = srtt_ + std::max<Duration>(4 * rttvar_, util::milliseconds(10));
}

Duration TcpSocket::current_rto() const {
  Duration base = srtt_valid_ ? rto_ : kInitialRto;
  for (int i = 0; i < backoff_; ++i) {
    base *= 2;
    if (base >= kMaxRto) break;
  }
  return std::clamp(base, kMinRto, kMaxRto);
}

// ---------------------------------------------------------------------------
// TcpListener
// ---------------------------------------------------------------------------

void TcpListener::handle_syn(Ipv4Address dst_ip, const TcpView& syn,
                             Ipv4Address src) {
  // Clamp MSS to the path back toward the client.
  TcpConfig cfg = cfg_;
  const Route* route = stack_->lookup_route(src);
  if (route != nullptr) {
    const std::size_t mtu = stack_->ifaces_[route->iface]->cfg.mtu;
    cfg.mss = std::min(cfg.mss,
                       mtu - Ipv4Header::kSize - TcpSegment::kHeaderSize);
  }
  auto sock = std::shared_ptr<TcpSocket>(new TcpSocket(stack_, cfg));
  stack_->tcp_register(
      Stack::TcpKey{dst_ip, port_, src, syn.src_port}, sock);
  sock->start_accept(dst_ip, port_, src, syn.src_port, syn, this);
}

void TcpListener::connection_ready(std::shared_ptr<TcpSocket> sock) {
  if (handler_) handler_(std::move(sock));
}

void TcpListener::close() {
  if (stack_ != nullptr) {
    stack_->tcp_listeners_.erase(port_);
    stack_ = nullptr;
  }
}

}  // namespace ipop::net
