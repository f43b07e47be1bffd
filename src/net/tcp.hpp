// TCP: connection state machine, sliding windows, Reno/NewReno congestion
// control, Jacobson/Karn RTO estimation.
//
// This is a from-scratch, event-driven TCP sufficient to reproduce the
// paper's transport behaviour: window-limited WAN throughput (Table III's
// physical baseline), Brunet's TCP edge mode, and the TCP-in-TCP
// interaction that makes IPOP-TCP slower than IPOP-UDP on the WAN.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "net/ipv4.hpp"
#include "net/tcp_wire.hpp"
#include "util/buffer_chain.hpp"
#include "util/time.hpp"

namespace ipop::net {

class Stack;
class TcpListener;

using util::Duration;
using util::TimePoint;

struct TcpConfig {
  std::size_t recv_buf = 64 * 1024;
  /// MSS is clamped to (egress MTU - 40) when the connection is created.
  std::size_t mss = 1460;
  int syn_retries = 6;
  /// Nagle's algorithm (RFC 896): hold sub-MSS segments while data is
  /// unacknowledged.  Off by default (most measurement tools set
  /// TCP_NODELAY); the Brunet TCP transport enables it to match the .NET
  /// socket default of the paper's prototype — the cause of Table III's
  /// TCP-mode WAN throughput collapse (tunneled inner ACKs are tiny
  /// writes that Nagle delays by one outer RTT).
  bool nagle = false;
};

enum class TcpState {
  kClosed,
  kSynSent,
  kSynRcvd,
  kEstablished,
  kFinWait1,
  kFinWait2,
  kCloseWait,
  kClosing,
  kLastAck,
  kTimeWait,
};

struct TcpStats {
  std::uint64_t segments_sent = 0;
  std::uint64_t segments_received = 0;
  std::uint64_t bytes_sent = 0;       // payload bytes, incl. retransmits
  std::uint64_t bytes_received = 0;   // in-order payload bytes
  std::uint64_t retransmits = 0;
  std::uint64_t fast_retransmits = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t dup_acks_received = 0;
  /// Send-queue bytes gathered into segment wire images — the simulated
  /// NIC's scatter-gather walk (DMA descriptor work, not CPU copies).
  std::uint64_t payload_bytes_gathered = 0;
  /// Path-MTU discovery events: ICMP frag-needed shrank the MSS.
  std::uint64_t pmtu_shrinks = 0;
  /// Received bytes flattened by a receive() that spanned segments.
  std::uint64_t payload_bytes_copied = 0;
};

/// A TCP connection endpoint.  All I/O is callback-driven; see the on_*
/// members.  Obtain instances via Stack::tcp_connect or a TcpListener.
class TcpSocket : public std::enable_shared_from_this<TcpSocket> {
 public:
  /// Handshake completed (client side) or accepted (server side).
  std::function<void()> on_connected;
  /// Data (or EOF) available; call receive()/eof().
  std::function<void()> on_readable;
  /// Send-buffer space became available after being full.
  std::function<void()> on_writable;
  /// Connection fully closed or reset; `reason` is empty for a clean close.
  std::function<void(std::string reason)> on_closed;

  ~TcpSocket();

  /// Two ways to queue bytes for transmission.  Each returns how many
  /// bytes it accepted (bounded by send-buffer space), and neither copies
  /// them: shared handles are linked into the send queue, and segments
  /// gather the bytes for the wire.
  ///
  /// One buffer; a partial accept links a sub-buffer share of the prefix.
  std::size_t send(util::Buffer data);
  /// writev-style send: links the accepted prefix of `chain` into the
  /// queue and drops it from `chain`; the refused tail stays in `chain`.
  std::size_t send_from(util::BufferChain& chain);
  /// Take up to `max` bytes of in-order received data: a share of their
  /// segment, or one counted flatten when the range spans segments.
  util::Buffer receive(std::size_t max);
  std::size_t bytes_readable() const { return recv_ready_.size(); }
  std::size_t send_space() const;
  /// True once the peer's FIN has been consumed (no more data will arrive).
  bool eof() const { return fin_received_ && recv_ready_.empty(); }

  /// Graceful close: flush queued data, then FIN.
  void close();
  /// Hard reset.
  void abort();

  TcpState state() const { return state_; }
  Ipv4Address local_ip() const { return local_ip_; }
  std::uint16_t local_port() const { return local_port_; }
  Ipv4Address remote_ip() const { return remote_ip_; }
  std::uint16_t remote_port() const { return remote_port_; }
  const TcpStats& stats() const { return stats_; }
  std::size_t cwnd() const { return cwnd_; }
  Duration srtt() const { return srtt_; }
  std::size_t mss() const { return cfg_.mss; }

 private:
  friend class Stack;
  friend class TcpListener;

  TcpSocket(Stack* stack, TcpConfig cfg);

  /// Called by ~Stack: cancel timers, unhook from the dying stack and
  /// drop the user callbacks, whose captures may hold the only
  /// shared_ptr cycle keeping this socket alive.
  void detach();

  void start_connect(Ipv4Address dst, std::uint16_t dst_port,
                     Ipv4Address src, std::uint16_t src_port);
  void start_accept(Ipv4Address local, std::uint16_t local_port,
                    Ipv4Address remote, std::uint16_t remote_port,
                    const TcpView& syn, TcpListener* listener);

  /// `seg` was parsed in place from `wire`; its payload is kept as shares.
  void on_segment(const TcpView& seg, const util::Buffer& wire);

  // --- output path -------------------------------------------------------
  void output();  // transmit as much as windows allow
  /// Control segment (SYN, ACK, FIN): header only.
  void emit_segment(std::uint32_t seq, TcpFlags flags);
  /// Data segment: payload bytes are gathered from [queue_offset,
  /// queue_offset+len) of the send queue directly into the wire image —
  /// no intermediate owning vector.
  void emit_data_segment(std::uint32_t seq, std::size_t queue_offset,
                         std::size_t len, TcpFlags flags);
  TcpSegment make_segment(std::uint32_t seq, TcpFlags flags);
  void emit_wire(util::Buffer seg_wire);
  void send_ack_now();
  void send_rst(std::uint32_t seq, std::uint32_t ack, bool with_ack);
  std::size_t flight_size() const;
  std::size_t recv_space() const;
  std::uint16_t advertised_window() const;

  // --- input path --------------------------------------------------------
  void process_ack(const TcpView& seg);
  void process_data(const TcpView& seg, const util::Buffer& wire);
  /// ICMP frag-needed (code 4) for this connection: clamp the MSS to the
  /// reported next-hop MTU and resend the blackholed segment at the new
  /// size (RFC 1191 path-MTU discovery; not a congestion signal).
  void handle_frag_needed(std::size_t next_hop_mtu);
  void enter_established();
  void maybe_send_fin();

  // --- timers ------------------------------------------------------------
  void arm_retransmit();
  void cancel_retransmit();
  void on_retransmit_timeout();
  void retransmit_front();
  void arm_persist();
  void on_persist_timeout();
  void enter_time_wait();
  void become_closed(const std::string& reason);

  // --- RTT estimation ----------------------------------------------------
  void sample_rtt(Duration rtt);
  Duration current_rto() const;

  Stack* stack_;
  TcpConfig cfg_;
  TcpState state_ = TcpState::kClosed;
  TcpListener* pending_listener_ = nullptr;

  Ipv4Address local_ip_;
  Ipv4Address remote_ip_;
  std::uint16_t local_port_ = 0;
  std::uint16_t remote_port_ = 0;

  // Send side.  snd_una_..snd_nxt_ is in flight; send_queue_ holds bytes
  // starting at sequence snd_una_ (after handshake).  The queue is a
  // scatter-gather chain: Buffer sends link shared handles, acked bytes
  // drop off the front, and segment emission gathers ranges straight
  // into the wire image.
  std::uint32_t iss_ = 0;
  std::uint32_t snd_una_ = 0;
  std::uint32_t snd_nxt_ = 0;
  std::uint32_t snd_wnd_ = 0;
  util::BufferChain send_queue_;
  bool fin_queued_ = false;  // close() called; FIN after data drains
  bool fin_sent_ = false;
  std::uint32_t fin_seq_ = 0;
  int syn_attempts_ = 0;

  // Congestion control (Reno with NewReno partial-ack recovery).
  std::size_t cwnd_ = 0;
  std::size_t ssthresh_ = 0;
  int dup_acks_ = 0;
  bool in_recovery_ = false;
  std::uint32_t recover_ = 0;

  // Receive side: both queues hold shares of the received segments.
  std::uint32_t rcv_nxt_ = 0;
  util::BufferChain recv_ready_;
  std::map<std::uint32_t, util::Buffer> out_of_order_;
  std::size_t ooo_bytes_ = 0;
  bool fin_received_ = false;
  bool fin_acked_by_us_ = false;

  // RTT estimation (Jacobson/Karn).
  bool srtt_valid_ = false;
  Duration srtt_{};
  Duration rttvar_{};
  Duration rto_{};
  int backoff_ = 0;
  bool rtt_timing_ = false;
  std::uint32_t rtt_seq_ = 0;
  TimePoint rtt_sent_at_{};

  std::uint64_t retransmit_timer_ = 0;  // 0 = unarmed
  std::uint64_t persist_timer_ = 0;
  std::uint64_t time_wait_timer_ = 0;

  TcpStats stats_;
  bool send_buf_was_full_ = false;
  bool closed_notified_ = false;
};

/// Passive listener: accepts incoming connections on a port.
class TcpListener : public std::enable_shared_from_this<TcpListener> {
 public:
  using AcceptHandler = std::function<void(std::shared_ptr<TcpSocket>)>;

  void set_accept_handler(AcceptHandler h) { handler_ = std::move(h); }
  std::uint16_t port() const { return port_; }
  void close();

 private:
  friend class Stack;
  friend class TcpSocket;
  TcpListener(Stack* stack, std::uint16_t port, TcpConfig cfg)
      : stack_(stack), port_(port), cfg_(cfg) {}

  void handle_syn(Ipv4Address dst_ip, const TcpView& syn, Ipv4Address src);
  void connection_ready(std::shared_ptr<TcpSocket> sock);
  void detach() {
    stack_ = nullptr;
    handler_ = nullptr;
  }

  Stack* stack_;
  std::uint16_t port_;
  TcpConfig cfg_;
  AcceptHandler handler_;
};

}  // namespace ipop::net
