#include "brunet/transport.hpp"

#include "util/logging.hpp"

namespace ipop::brunet {

// ---------------------------------------------------------------------------
// TransportAddress
// ---------------------------------------------------------------------------

std::string TransportAddress::to_string() const {
  const char* scheme = proto == Proto::kTcp     ? "tcp://"
                       : proto == Proto::kRelay ? "relay://"
                                                : "udp://";
  return scheme + ip.to_string() + ":" + std::to_string(port);
}

void TransportAddress::encode(util::ByteWriter& w) const {
  w.u8(static_cast<std::uint8_t>(proto));
  w.u32(ip.value);
  w.u16(port);
}

TransportAddress TransportAddress::decode(util::ByteReader& r) {
  TransportAddress t;
  t.proto = static_cast<Proto>(r.u8());
  t.ip = net::Ipv4Address(r.u32());
  t.port = r.u16();
  return t;
}

// ---------------------------------------------------------------------------
// TcpEdge
// ---------------------------------------------------------------------------

TcpEdge::TcpEdge(sim::EventLoop& loop, std::shared_ptr<net::TcpSocket> sock)
    : loop_(loop), sock_(std::move(sock)) {}

void TcpEdge::attach() {
  auto self = shared_from_this();
  auto stream = net::FramedStream::attach(sock_);
  stream->on_frame = [self](util::Buffer packet) {
    self->deliver(self->loop_.now(), std::move(packet));
  };
  stream->on_eof = [self] { self->close(); };
  stream_ = stream;
  sock_->on_closed = [self](const std::string&) {
    self->up_ = false;
    self->notify_closed();
  };
}

void TcpEdge::send(util::Buffer bytes) {
  send_chain(util::BufferChain(std::move(bytes)));
}

void TcpEdge::send_chain(util::BufferChain chain) {
  if (!up_) return;
  if (auto stream = stream_.lock()) stream->send(std::move(chain));
}

void TcpEdge::close() {
  if (!up_) return;
  up_ = false;
  if (auto stream = stream_.lock()) stream->close();
  notify_closed();
}

TransportAddress TcpEdge::remote() const {
  return {TransportAddress::Proto::kTcp, sock_->remote_ip(),
          sock_->remote_port()};
}

// ---------------------------------------------------------------------------
// UdpEdge
// ---------------------------------------------------------------------------

void UdpEdge::send(util::Buffer bytes) {
  if (!up_ || transport_ == nullptr) return;
  transport_->send_to(ip_, port_, std::move(bytes));
}

void UdpEdge::send_chain(util::BufferChain chain) {
  // A closed edge (or one whose transport is being torn down) swallows
  // the send — never reach into a dead transport/socket.
  if (!up_ || transport_ == nullptr) return;
  if (transport_->corked()) {
    transport_->stage(ip_, port_, std::move(chain));
    return;
  }
  transport_->send_to(ip_, port_, std::move(chain));
}

void UdpEdge::close() {
  if (!up_) return;
  up_ = false;
  if (transport_ != nullptr) {
    auto* t = transport_;
    transport_ = nullptr;
    t->remove_edge(ip_, port_);
  }
  notify_closed();
}

// ---------------------------------------------------------------------------
// TcpTransport
// ---------------------------------------------------------------------------

TcpTransport::~TcpTransport() {
  if (listener_ != nullptr) listener_->close();
}

TcpTransport::TcpTransport(net::Host& host, std::uint16_t port)
    : host_(host), port_(port) {
  net::TcpConfig cfg;
  cfg.nagle = true;  // match the .NET socket default of the prototype
  listener_ = host_.stack().tcp_listen(port_, cfg);
  if (listener_ != nullptr) {
    listener_->set_accept_handler([this](std::shared_ptr<net::TcpSocket> s) {
      auto edge = std::make_shared<TcpEdge>(host_.loop(), std::move(s));
      edge->attach();
      if (on_inbound_) on_inbound_(edge);
    });
  }
}

void TcpTransport::connect(net::Ipv4Address ip, std::uint16_t port,
                           ConnectCallback cb) {
  net::TcpConfig cfg;
  cfg.syn_retries = 3;  // fail reasonably fast behind firewalls
  cfg.nagle = true;     // match the .NET socket default of the prototype
  auto sock = host_.stack().tcp_connect(ip, port, cfg);
  if (sock == nullptr) {
    cb(nullptr);
    return;
  }
  // Share state between the two callbacks.  The alive sentinel guards
  // the dial window across transport teardown: a node may stop() (which
  // destroys its transports) while the simulated handshake is still in
  // flight, and the late completion must not touch the dead transport —
  // or the caller whose lambda rides in cbp.
  auto done = std::make_shared<bool>(false);
  auto cbp = std::make_shared<ConnectCallback>(std::move(cb));
  sock->on_connected = [this, alive = alive_.guard(), sock, done, cbp] {
    if (*done) return;
    *done = true;
    if (!alive) {
      sock->close();
      return;
    }
    auto edge = std::make_shared<TcpEdge>(host_.loop(), sock);
    edge->attach();
    (*cbp)(edge);
  };
  sock->on_closed = [alive = alive_.guard(), done,
                     cbp](const std::string&) {
    if (*done) return;
    *done = true;
    if (!alive) return;
    (*cbp)(nullptr);
  };
}

// ---------------------------------------------------------------------------
// UdpTransport
// ---------------------------------------------------------------------------

UdpTransport::UdpTransport(net::Host& host, std::uint16_t port)
    : host_(host), port_(port) {
  sock_ = host_.stack().udp_bind(port_);
  if (sock_ != nullptr) {
    // Zero-copy receive: the datagram arrives as a sub-buffer of the
    // frame the NIC delivered — no kernel/user copy on the overlay path.
    sock_->set_receive_handler(
        [this](net::Ipv4Address src, std::uint16_t sport, util::Buffer data) {
          on_datagram(src, sport, std::move(data));
        });
  }
}

UdpTransport::~UdpTransport() {
  // Detach rather than close(): no close-handler callbacks from a
  // destructor — surviving edge handles just go down and drop sends.
  for (auto& [key, edge] : edges_) {
    edge->up_ = false;
    edge->transport_ = nullptr;
  }
  edges_.clear();
  // close() unregisters the port and detaches the handlers.
  if (sock_ != nullptr) sock_->close();
}

std::shared_ptr<Edge> UdpTransport::edge_to(net::Ipv4Address ip,
                                            std::uint16_t port) {
  auto key = std::pair{ip, port};
  auto it = edges_.find(key);
  if (it != edges_.end()) return it->second;
  auto edge = std::make_shared<UdpEdge>(this, ip, port);
  edges_[key] = edge;
  return edge;
}

void UdpTransport::on_datagram(net::Ipv4Address src, std::uint16_t sport,
                               util::Buffer buffer) {
  // The edge's receiver (and the routing layer above it) share the
  // delivered frame's buffer; nothing is copied on this host.
  auto key = std::pair{src, sport};
  auto it = edges_.find(key);
  if (it == edges_.end()) {
    auto edge = std::make_shared<UdpEdge>(this, src, sport);
    edges_[key] = edge;
    if (on_inbound_) on_inbound_(edge);
    edge->deliver(host_.loop().now(), std::move(buffer));
    return;
  }
  it->second->deliver(host_.loop().now(), std::move(buffer));
}

void UdpTransport::send_to(net::Ipv4Address ip, std::uint16_t port,
                           util::Buffer data) {
  if (sock_ != nullptr) sock_->send_to(ip, port, std::move(data));
}

void UdpTransport::send_to(net::Ipv4Address ip, std::uint16_t port,
                           util::BufferChain data) {
  if (sock_ != nullptr) sock_->send_to(ip, port, std::move(data));
}

void UdpTransport::stage(net::Ipv4Address ip, std::uint16_t port,
                         util::BufferChain chain) {
  staged_.push_back(net::UdpSendItem{ip, port, std::move(chain)});
}

void UdpTransport::uncork() {
  if (cork_ == 0) return;
  if (--cork_ > 0 || staged_.empty()) return;
  auto items = std::move(staged_);
  staged_.clear();
  // One socket-API crossing for the whole staged fan-out.  A socket that
  // closed (or was detached by a dying stack) while the batch was
  // pending drops it here instead of reaching into dead state.
  if (sock_ != nullptr) sock_->send_batch(items);
}

void UdpTransport::remove_edge(net::Ipv4Address ip, std::uint16_t port) {
  edges_.erase(std::pair{ip, port});
}

}  // namespace ipop::brunet
