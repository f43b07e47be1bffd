// UDP socket bound to a simulated host stack.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>

#include "net/ipv4.hpp"
#include "util/buffer.hpp"
#include "util/buffer_chain.hpp"

namespace ipop::net {

class Stack;

/// One datagram of a sendmmsg-style batch: destination endpoint plus a
/// scatter-gather payload.  Chains let fan-out senders share one payload
/// buffer across every item while each item carries its own small header
/// segment.
struct UdpSendItem {
  Ipv4Address dst;
  std::uint16_t dst_port = 0;
  util::BufferChain payload;
};

/// Connectionless datagram socket.  Delivery is callback-based: the stack
/// invokes the receive handler as datagrams arrive (after the simulated
/// kernel processing delay).  Payloads cross the socket API as shared
/// buffers in both directions, so neither send nor receive copies them.
class UdpSocket : public std::enable_shared_from_this<UdpSocket> {
 public:
  /// The payload arrives as a sub-buffer of the received frame (shared
  /// storage — clone before mutating if another holder may still read it).
  using BufferReceiveHandler = std::function<void(
      Ipv4Address src, std::uint16_t src_port, util::Buffer data)>;

  std::uint16_t port() const { return port_; }

  /// Delivery is a sub-buffer share, not the kernel/user copy the paper's
  /// Section V.2 proposes eliminating.
  void set_receive_handler(BufferReceiveHandler h) {
    buf_handler_ = std::move(h);
  }
  /// The 8-byte UDP header is prepended into the buffer's headroom, so a
  /// send costs zero payload copies (unless the storage is shared or
  /// cramped, which reallocates once).
  void send_to(Ipv4Address dst, std::uint16_t dst_port, util::Buffer data);
  /// Scatter-gather variant: a multi-segment chain is assembled by one
  /// NIC-style gather pass (StackCounters::payload_bytes_gathered), not
  /// per-layer CPU copies.
  void send_to(Ipv4Address dst, std::uint16_t dst_port,
               util::BufferChain data);
  /// sendmmsg-style batch: emit every item with a single socket-API
  /// crossing (one entry in StackCounters::udp_send_calls).  Items'
  /// payload chains are consumed.  Returns the number of datagrams
  /// emitted — 0 when the socket is closed or its stack is gone, so a
  /// batch pending across teardown is dropped instead of touching a dead
  /// handler or stack.
  std::size_t send_batch(std::span<UdpSendItem> items);
  /// Unbind from the stack; pending callbacks are dropped.
  void close();

  std::uint64_t datagrams_sent() const { return tx_; }
  std::uint64_t datagrams_received() const { return rx_; }

 private:
  friend class Stack;
  UdpSocket(Stack* stack, std::uint16_t port) : stack_(stack), port_(port) {}

  void deliver(Ipv4Address src, std::uint16_t src_port, util::Buffer data);
  /// Shared emission path of send_to/send_batch (post the per-call
  /// syscall accounting): build one datagram and hand it to the stack.
  void emit_datagram(Ipv4Address dst, std::uint16_t dst_port,
                     util::BufferChain payload);
  /// Called by ~Stack: unhook from the dying stack and drop the receive
  /// handler, whose captures may hold the only shared_ptr cycle keeping
  /// this socket alive.
  void detach() {
    stack_ = nullptr;
    buf_handler_ = nullptr;
  }

  Stack* stack_;
  std::uint16_t port_;
  BufferReceiveHandler buf_handler_;
  std::uint64_t tx_ = 0;
  std::uint64_t rx_ = 0;
};

}  // namespace ipop::net
