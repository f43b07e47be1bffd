#include "net/framed_stream.hpp"

#include "util/bytes.hpp"

namespace ipop::net {

namespace {

constexpr std::size_t kPrefix = 4;

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

void FramedStream::send(util::BufferChain body) {
  if (closing_) return;
  auto framed = frame(std::move(body));
  if (!backlog_.empty()) {
    // Earlier frames are still waiting: preserve stream order.
    backlog_.append(std::move(framed));
    return;
  }
  sock_->send_from(framed);  // consumes the accepted prefix in place
  if (!framed.empty()) backlog_ = std::move(framed);
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
  rx_.append(sock_->receive(sock_->bytes_readable()));
  while (rx_.size() >= kPrefix) {
    std::uint8_t prefix[kPrefix] = {};
    rx_.gather(0, prefix);
    const std::uint32_t len = util::load_u32(prefix);
    if (len > kMaxFrame) {
      ++oversize_rejects_;
      abort();
      return;
    }
    if (rx_.size() - kPrefix < len) break;
    // A body inside one received segment goes up as a share of it.
    auto body = rx_.try_share(kPrefix, len);
    if (!body) {
      bytes_copied_ += rx_.size();
      // lint:allow(zero-copy): a body spanning received segments is flattened once (counted)
      body = rx_.coalesce().share(kPrefix, len);
    }
    rx_.drop_front(kPrefix + len);
    try {
      if (on_frame) on_frame(std::move(*body));
    } catch (const util::ParseError&) {
      abort();
      return;
    }
  }
  if (sock_->eof() && on_eof) on_eof();
}

}  // namespace ipop::net
