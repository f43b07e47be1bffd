// A message stream over TCP: every message is a big-endian u32 length
// followed by that many body bytes.
//
// Brunet's TCP edges (Table III's Brunet-TCP mode) and the grid
// applications that run inside the virtual network (exec, NFS, message
// passing; Table IV) all frame their traffic this way.  This is the one
// place the prefix is written and parsed.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "net/tcp.hpp"
#include "util/buffer.hpp"
#include "util/buffer_chain.hpp"

namespace ipop::net {

class FramedStream : public std::enable_shared_from_this<FramedStream> {
 public:
  /// Largest body a peer may announce; a longer prefix aborts the stream.
  static constexpr std::uint32_t kMaxFrame = 16 * 1024 * 1024;

  /// One complete message body.  A handler that throws util::ParseError
  /// marks the frame malformed: the stream aborts the connection and
  /// delivers nothing more.
  std::function<void(util::Buffer body)> on_frame;
  /// The peer's FIN was consumed, after every complete frame before it
  /// was delivered.
  std::function<void()> on_eof;

  /// Take over `sock`'s on_readable and on_writable (the caller keeps
  /// on_connected and on_closed).  Those callbacks hold the stream, so it
  /// lives as long as the socket is wired.
  static std::shared_ptr<FramedStream> attach(std::shared_ptr<TcpSocket> sock);
  FramedStream(const FramedStream&) = delete;
  FramedStream& operator=(const FramedStream&) = delete;

  /// Queue one message.  The length prefix rides its own 4-byte segment
  /// in front of the body, whose buffers are linked into the socket
  /// without copying; what the socket refuses waits in a backlog that
  /// on_writable flushes.  Ignored after close().
  void send(util::BufferChain body);
  /// Graceful close once the backlog has entered the socket.
  void close();
  void abort();

  /// Bytes flattened to hand up bodies that spanned received segments.
  std::uint64_t bytes_copied() const { return bytes_copied_; }
  std::uint64_t oversize_rejects() const { return oversize_rejects_; }

 private:
  explicit FramedStream(std::shared_ptr<TcpSocket> sock)
      : sock_(std::move(sock)) {}

  void drain();
  void flush();

  std::shared_ptr<TcpSocket> sock_;
  util::BufferChain rx_;       // received segments of incomplete frames
  util::BufferChain backlog_;  // framed bytes the socket refused
  bool closing_ = false;
  std::uint64_t bytes_copied_ = 0;
  std::uint64_t oversize_rejects_ = 0;
};

}  // namespace ipop::net
