#include "net/ttcp.hpp"

#include <algorithm>

namespace ipop::net {

TtcpReceiver::TtcpReceiver(Stack& stack, std::uint16_t port) : stack_(stack) {
  listener_ = stack_.tcp_listen(port);
  listener_->set_accept_handler([this](std::shared_ptr<TcpSocket> sock) {
    sock_ = std::move(sock);
    started_ = stack_.loop().now();
    sock_->on_readable = [this] { pump(); };
    sock_->on_closed = [this](const std::string& reason) {
      if (!reason.empty()) finish(/*ok=*/false);  // reset mid-transfer
    };
  });
}

void TtcpReceiver::pump() {
  result_.bytes += sock_->receive(sock_->bytes_readable()).size();
  if (sock_->eof()) {
    // Elapsed measured up to the arrival of the final byte.
    sock_->close();
    finish(/*ok=*/true);
  }
}

void TtcpReceiver::finish(bool ok) {
  if (finished_) return;
  finished_ = true;
  result_.elapsed = stack_.loop().now() - started_;
  result_.ok = ok;
  if (done_) {
    auto cb = std::move(done_);
    cb(result_);
  }
}

void TtcpSender::run(Ipv4Address dst, std::uint16_t port, const Options& opts,
                     std::function<void(TtcpResult)> done) {
  opts_ = opts;
  done_ = std::move(done);
  queued_ = 0;
  sock_ = stack_.tcp_connect(dst, port, opts.tcp);
  if (!sock_) {
    if (done_) done_(TtcpResult{});
    return;
  }
  started_ = stack_.loop().now();
  sock_->on_connected = [this] { pump(); };
  sock_->on_writable = [this] { pump(); };
  sock_->on_closed = [this](const std::string& reason) {
    if (done_) {
      TtcpResult r;
      r.bytes = queued_;
      r.elapsed = stack_.loop().now() - started_;
      r.ok = reason.empty() && queued_ >= opts_.total_bytes;
      auto cb = std::move(done_);
      cb(r);
    }
  };
}

void TtcpSender::pump() {
  // Every write is a share of one read-only pattern buffer.
  static const util::Buffer pattern = [] {
    auto b = util::Buffer::allocate(64 * 1024, 0);
    auto bytes = b.writable();
    for (std::size_t i = 0; i < bytes.size(); ++i) {
      bytes[i] = static_cast<std::uint8_t>(i * 131);
    }
    return b;
  }();
  while (queued_ < opts_.total_bytes) {
    const std::size_t want = static_cast<std::size_t>(
        std::min<std::uint64_t>(opts_.write_chunk, opts_.total_bytes - queued_));
    const std::size_t sent = sock_->send(pattern.share(0, want));
    queued_ += sent;
    if (sent < want) return;  // buffer full; resume on_writable
  }
  sock_->close();
}

}  // namespace ipop::net
