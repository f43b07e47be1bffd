#include "apps/nfs.hpp"

#include <algorithm>
#include <utility>

#include "util/bytes.hpp"

namespace ipop::apps {

// Wire protocol (net::FramedStream messages over one TCP connection,
// strictly one request in flight):
//   request:  [lp_string name][u64 offset][u32 len]
//   response: [u8 status][lp_bytes data]

namespace {
/// Bytes per block RPC, and per cached block.
constexpr std::size_t kBlockSize = 8 * 1024;
/// Local cache access time per block (disk-cache hit).
constexpr util::Duration kCacheHitCost = util::microseconds(50);
}  // namespace

std::uint8_t NfsServer::content_byte(const std::string& name,
                                     std::uint64_t offset) {
  std::uint64_t h = 1469598103934665603ull;
  for (char c : name) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ull;
  }
  h ^= offset;
  h *= 1099511628211ull;
  return static_cast<std::uint8_t>(h >> 32);
}

NfsServer::NfsServer(net::Stack& stack, std::uint16_t port) : stack_(stack) {
  listener_ = stack_.tcp_listen(port);
  if (listener_ != nullptr) {
    listener_->set_accept_handler(
        [this](std::shared_ptr<net::TcpSocket> s) { serve(std::move(s)); });
  }
}

NfsServer::~NfsServer() {
  if (listener_ != nullptr) listener_->close();
}

void NfsServer::add_file(const std::string& name, std::uint64_t size) {
  files_[name] = size;
}

void NfsServer::serve(std::shared_ptr<net::TcpSocket> sock) {
  auto stream = net::FramedStream::attach(std::move(sock));
  stream->on_frame = [this, s = stream.get()](util::Buffer request) {
    util::ByteReader r(request);
    const std::string name = r.lp_string();
    const std::uint64_t offset = r.u64();
    const std::uint32_t len = r.u32();
    ++stats_.requests;

    util::ByteWriter w;
    auto file = files_.find(name);
    if (file == files_.end() || offset >= file->second) {
      w.u8(0);  // not found / EOF
      w.lp_bytes({});
    } else {
      const std::uint64_t n =
          std::min<std::uint64_t>(len, file->second - offset);
      std::vector<std::uint8_t> data(static_cast<std::size_t>(n));
      for (std::uint64_t i = 0; i < n; ++i) {
        data[static_cast<std::size_t>(i)] = content_byte(name, offset + i);
      }
      stats_.bytes_served += n;
      w.u8(1);
      w.lp_bytes(data);
    }
    s->send(util::BufferChain(util::Buffer::wrap(w.take())));
  };
}

NfsClient::NfsClient(net::Host& host, net::Ipv4Address server,
                     std::uint16_t port)
    : host_(host), server_(server), port_(port) {}

void NfsClient::ensure_connected() {
  if (stream_ != nullptr) return;
  auto sock = host_.stack().tcp_connect(server_, port_);
  if (sock == nullptr) return;
  sock->on_connected = [this] {
    connected_ = true;
    issue_next();
  };
  sock->on_closed = [this](const std::string&) {
    connected_ = false;
    stream_ = nullptr;
    in_flight_ = false;  // the in-flight and queued RPCs fail
    for (auto& rpc : std::exchange(queue_, {})) rpc.done(std::nullopt);
  };
  stream_ = net::FramedStream::attach(std::move(sock));
  stream_->on_frame = [this](util::Buffer reply) { on_reply(reply); };
}

void NfsClient::read_block(const std::string& name, std::uint64_t block_index,
                           std::function<void(Block)> done) {
  ++stats_.reads;
  const std::uint64_t offset = block_index * kBlockSize;
  if (cache_.count({name, block_index}) > 0) {
    ++stats_.cache_hits;
    // Local disk-cache read: small fixed cost, no network.
    host_.loop().schedule_after(kCacheHitCost,
                                [done = std::move(done)] {
                                  done(Block(std::in_place));
                                });
    return;
  }
  ++stats_.cache_misses;
  Rpc rpc;
  rpc.name = name;
  rpc.offset = offset;
  rpc.len = static_cast<std::uint32_t>(kBlockSize);
  rpc.done = [this, name, block_index, done = std::move(done)](Block data) {
    if (data) {
      cache_.insert({name, block_index});
      stats_.bytes_fetched += data->size();
    }
    done(std::move(data));
  };
  queue_.push_back(std::move(rpc));
  ensure_connected();
  issue_next();
}

void NfsClient::issue_next() {
  if (in_flight_ || queue_.empty() || !connected_) return;
  in_flight_ = true;
  const Rpc& rpc = queue_.front();
  util::ByteWriter w;
  w.lp_string(rpc.name);
  w.u64(rpc.offset);
  w.u32(rpc.len);
  stream_->send(util::BufferChain(util::Buffer::wrap(w.take())));
}

void NfsClient::on_reply(const util::Buffer& reply) {
  util::ByteReader r(reply);
  r.u8();  // status (synthetic files always resolve)
  auto data = r.lp_bytes();
  if (!queue_.empty()) {
    auto rpc = std::move(queue_.front());
    queue_.erase(queue_.begin());
    in_flight_ = false;
    rpc.done(std::move(data));
  }
  issue_next();
}

void NfsClient::read_file(const std::string& name, std::uint64_t size,
                          std::function<void(bool ok)> done) {
  const std::uint64_t blocks =
      (size + kBlockSize - 1) / kBlockSize;
  auto next = std::make_shared<std::function<void(std::uint64_t)>>();
  auto done_p = std::make_shared<std::function<void(bool)>>(std::move(done));
  // The step function captures itself weakly; the strong reference lives
  // in the in-flight RPC continuation, so the chain frees itself on
  // completion (or with the client's queue) instead of cycling forever.
  *next = [this, name, blocks, next_w = std::weak_ptr(next),
           done_p](std::uint64_t i) {
    if (i >= blocks) {
      (*done_p)(true);
      return;
    }
    auto self = next_w.lock();
    read_block(name, i, [self, i, done_p](Block data) {
      if (data) {
        (*self)(i + 1);
      } else {
        (*done_p)(false);
      }
    });
  };
  (*next)(0);
}

}  // namespace ipop::apps
