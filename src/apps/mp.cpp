#include "apps/mp.hpp"

#include "apps/ssh.hpp"
#include "util/bytes.hpp"

namespace ipop::apps {

MpEndpoint::MpEndpoint(net::Stack& stack, int rank,
                       std::vector<net::Ipv4Address> ranks)
    : stack_(stack), rank_(rank), ranks_(std::move(ranks)) {
  listener_ =
      stack_.tcp_listen(static_cast<std::uint16_t>(kBasePort + rank_));
  if (listener_ != nullptr) {
    listener_->set_accept_handler([this](std::shared_ptr<net::TcpSocket> s) {
      // Inbound sockets only ever receive; the sender is identified by the
      // src_rank field of each frame, so no handshake is needed.
      adopt_socket(std::move(s));
    });
  }
}

MpEndpoint::~MpEndpoint() {
  if (listener_ != nullptr) listener_->close();
  for (auto& stream : streams_) stream->abort();
}

std::shared_ptr<net::FramedStream> MpEndpoint::adopt_socket(
    std::shared_ptr<net::TcpSocket> sock) {
  auto stream = net::FramedStream::attach(std::move(sock));
  // Message body: [u32 src_rank][u32 tag][payload...]
  stream->on_frame = [this](util::Buffer body) {
    util::ByteReader r(body);
    const int src_rank = static_cast<int>(r.u32());
    const int tag = static_cast<int>(r.u32());
    dispatch(src_rank, tag, r.rest_copy());
  };
  streams_.push_back(stream);
  return stream;
}

void MpEndpoint::send(int dst_rank, int tag, Message payload) {
  auto out = outbound_.find(dst_rank);
  if (out == outbound_.end()) {
    // Connect lazily; frames queue in the socket until the handshake
    // completes.
    auto sock = stack_.tcp_connect(
        ranks_[static_cast<std::size_t>(dst_rank)],
        static_cast<std::uint16_t>(kBasePort + dst_rank));
    if (sock == nullptr) return;  // no route to rank
    out = outbound_.emplace(dst_rank, adopt_socket(std::move(sock))).first;
  }
  util::ByteWriter w(8 + payload.size());
  w.u32(static_cast<std::uint32_t>(rank_));
  w.u32(static_cast<std::uint32_t>(tag));
  w.bytes(payload);
  out->second->send(util::BufferChain(util::Buffer::wrap(w.take())));
}

void MpEndpoint::dispatch(int src_rank, int tag, Message payload) {
  ++received_;
  for (auto it = pending_.begin(); it != pending_.end(); ++it) {
    if ((it->src_rank == -1 || it->src_rank == src_rank) && it->tag == tag) {
      auto cb = std::move(it->cb);
      pending_.erase(it);
      cb(src_rank, std::move(payload));
      return;
    }
  }
  unexpected_.push_back(Unexpected{src_rank, tag, std::move(payload)});
}

void MpEndpoint::recv(int src_rank, int tag, RecvCallback cb) {
  for (auto it = unexpected_.begin(); it != unexpected_.end(); ++it) {
    if ((src_rank == -1 || it->src_rank == src_rank) && it->tag == tag) {
      auto msg = std::move(*it);
      unexpected_.erase(it);
      cb(msg.src_rank, std::move(msg.payload));
      return;
    }
  }
  pending_.push_back(Pending{src_rank, tag, std::move(cb)});
}

void MpLauncher::lamboot(net::Stack& master_stack,
                         const std::vector<net::Ipv4Address>& ranks,
                         LaunchCallback done) {
  auto remaining = std::make_shared<int>(static_cast<int>(ranks.size()));
  auto ok = std::make_shared<bool>(true);
  auto done_p = std::make_shared<LaunchCallback>(std::move(done));
  for (const auto& ip : ranks) {
    exec_remote(master_stack, ip, "lamboot",
                [remaining, ok, done_p](std::optional<std::string> out) {
                  if (!out.has_value()) *ok = false;
                  if (--*remaining == 0 && *done_p) {
                    auto cb = std::move(*done_p);
                    *done_p = nullptr;
                    cb(*ok);
                  }
                });
  }
}

}  // namespace ipop::apps
