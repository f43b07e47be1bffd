#include "net/framed_stream.hpp"

#include <span>

#include "util/bytes.hpp"

namespace ipop::net {

namespace {

constexpr std::size_t kPrefix = 4;
constexpr std::size_t kDrainChunk = 64 * 1024;

/// The length prefix rides its own segment in front of the body.
util::BufferChain frame(util::BufferChain body) {
  auto prefix = util::Buffer::allocate(kPrefix, 0);
  util::store_u32(prefix.data(), static_cast<std::uint32_t>(body.size()));
  body.prepend(std::move(prefix));
  return body;
}

}  // namespace

std::shared_ptr<FramedStream> FramedStream::attach(
    std::shared_ptr<TcpSocket> sock) {
  auto stream = std::shared_ptr<FramedStream>(new FramedStream(sock));
  sock->on_readable = [stream] { stream->drain(); };
  sock->on_writable = [stream] { stream->flush(); };
  return stream;
}

void FramedStream::enqueue(util::BufferChain framed) {
  if (!backlog_.empty()) {
    // Earlier frames are still waiting: preserve stream order.
    backlog_.append(std::move(framed));
    return;
  }
  sock_->send_from(framed);  // consumes the accepted prefix in place
  if (!framed.empty()) backlog_ = std::move(framed);
}

void FramedStream::send(util::BufferChain body) {
  if (closing_) return;
  enqueue(frame(std::move(body)));
}

void FramedStream::send_batch(std::vector<util::BufferChain> bodies) {
  if (closing_) return;
  util::BufferChain all;
  for (auto& b : bodies) all.append(frame(std::move(b)));
  enqueue(std::move(all));
}

void FramedStream::flush() {
  if (backlog_.empty()) return;
  sock_->send_from(backlog_);
  if (backlog_.empty() && closing_) sock_->close();
}

void FramedStream::close() {
  closing_ = true;
  if (backlog_.empty()) sock_->close();
}

void FramedStream::abort() { sock_->abort(); }

void FramedStream::drain() {
  auto self = shared_from_this();  // a handler may unwire the socket
  while (true) {
    auto chunk = sock_->receive(kDrainChunk);
    if (chunk.empty()) break;
    rx_.insert(rx_.end(), chunk.begin(), chunk.end());
  }
  std::size_t pos = 0;
  while (rx_.size() - pos >= kPrefix) {
    const std::uint32_t len = util::load_u32(rx_.data() + pos);
    if (rx_.size() - pos - kPrefix < len) break;
    // lint:allow(zero-copy): stream reframing — bytes leave the shared TCP rx ring exactly once
    auto body = util::Buffer::copy_of(
        std::span<const std::uint8_t>(rx_.data() + pos + kPrefix, len));
    pos += kPrefix + len;
    try {
      if (on_frame) on_frame(std::move(body));
    } catch (const util::ParseError&) {
      abort();
      return;
    }
  }
  rx_.erase(rx_.begin(), rx_.begin() + static_cast<std::ptrdiff_t>(pos));
  if (sock_->eof() && on_eof) on_eof();
}

}  // namespace ipop::net
