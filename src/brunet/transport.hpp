// Transport edges: the point-to-point legs of the overlay.
//
// Brunet can run over TCP or UDP (the paper evaluates both modes in Tables
// I-III).  A TcpEdge carries packets as messages of a net::FramedStream;
// UdpEdges share one UDP socket per node and are demultiplexed by
// remote endpoint.  UDP edges come up as soon as a packet arrives from the
// remote — exactly the property the decentralized NAT traversal of Section
// III-D exploits (both sides fire probes; whichever direction the NAT
// admits brings the edge up).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/framed_stream.hpp"
#include "net/host.hpp"
#include "util/buffer.hpp"
#include "util/buffer_chain.hpp"
#include "util/lifetime.hpp"
#include "util/time.hpp"

namespace ipop::brunet {

using util::Duration;
using util::TimePoint;

/// Headroom budget a base (non-tunneling) edge asks its senders to leave
/// in front of a Brunet wire image: the underlay prepends below the edge
/// (8B UDP or stream framing + 20B IPv4 + 14B Ethernet = 42B) rounded up
/// for slack.  Tunneling edges report more (their encapsulation plus the
/// budget of the edge they ride) — see Edge::headroom().
inline constexpr std::size_t kUnderlayHeadroom = 64;

struct TransportAddress {
  /// kRelay marks an edge tunneled through a relay node rather than a
  /// dialable socket endpoint; its ip/port carry the relay's identity
  /// for logging only and must never be dialed or gossiped.
  enum class Proto : std::uint8_t { kTcp = 0, kUdp = 1, kRelay = 2 };
  Proto proto = Proto::kUdp;
  net::Ipv4Address ip;
  std::uint16_t port = 0;

  std::string to_string() const;
  void encode(util::ByteWriter& w) const;
  static TransportAddress decode(util::ByteReader& r);

  friend bool operator==(const TransportAddress&,
                         const TransportAddress&) = default;
  friend auto operator<=>(const TransportAddress&,
                          const TransportAddress&) = default;
};

/// A bidirectional packet pipe to one remote node.  Packets cross an edge
/// as shared util::Buffers: sending shares the caller's buffer handle (no
/// payload copy), so forwarding a routed packet onto the next edge is
/// refcount traffic, not memcpy traffic.
class Edge {
 public:
  using ReceiveHandler = std::function<void(util::Buffer)>;
  using CloseHandler = std::function<void()>;

  virtual ~Edge() = default;
  virtual void send(util::Buffer bytes) = 0;
  /// Scatter-gather send: the chain's segments (e.g. a per-destination
  /// header in front of a shared payload buffer) cross the edge without
  /// being flattened by the caller.
  virtual void send_chain(util::BufferChain chain) = 0;
  virtual void close() = 0;
  virtual TransportAddress remote() const = 0;
  virtual bool is_up() const = 0;
  /// Headroom (bytes) a sender should leave in front of a wire image
  /// handed to send() so this edge and every layer below it prepend
  /// zero-copy.  Base transports return the underlay budget; tunneling
  /// edges (RelayEdge) add their own encapsulation on top of the edge
  /// they ride.  Nodes derive their per-path send headroom from the max
  /// over their live edges at edge-establishment time (buffer-ownership
  /// rule 6).
  virtual std::size_t headroom() const { return kUnderlayHeadroom; }

  void set_receive_handler(ReceiveHandler h) { on_receive_ = std::move(h); }
  void set_close_handler(CloseHandler h) { on_close_ = std::move(h); }

  TimePoint last_received() const { return last_received_; }
  /// Reset the activity clock (called when a node adopts the edge so a
  /// fresh edge is not immediately reaped by the keepalive sweep).
  void touch(TimePoint now) { last_received_ = now; }

 protected:
  void deliver(TimePoint now, util::Buffer bytes) {
    last_received_ = now;
    if (on_receive_) on_receive_(std::move(bytes));
  }
  void notify_closed() {
    if (on_close_) {
      auto cb = std::move(on_close_);
      on_close_ = nullptr;
      cb();
    }
  }

  ReceiveHandler on_receive_;
  CloseHandler on_close_;
  TimePoint last_received_{};
};

/// TCP edge: one Brunet packet per net::FramedStream message.  The packet
/// buffers are linked behind the 4-byte length prefix straight into the
/// socket's send queue, with no stream serialization copy.
class TcpEdge : public Edge, public std::enable_shared_from_this<TcpEdge> {
 public:
  TcpEdge(sim::EventLoop& loop, std::shared_ptr<net::TcpSocket> sock);

  void send(util::Buffer bytes) override;
  void send_chain(util::BufferChain chain) override;
  void close() override;
  TransportAddress remote() const override;
  bool is_up() const override { return up_; }

  /// Wire the socket callbacks; call once after construction.
  void attach();

  /// Socket and stream, for stats introspection in tests/benches.
  const std::shared_ptr<net::TcpSocket>& socket() const { return sock_; }
  std::shared_ptr<net::FramedStream> stream() const { return stream_.lock(); }

 private:
  sim::EventLoop& loop_;
  std::shared_ptr<net::TcpSocket> sock_;
  /// Held by the socket's callbacks, and it holds this edge: the edge
  /// lives while its socket is wired, and a strong handle here would
  /// close a cycle that outlives the stack.
  std::weak_ptr<net::FramedStream> stream_;
  bool up_ = true;
};

class UdpTransport;

/// UDP edge: one remote endpoint over the node's shared UDP socket.
class UdpEdge : public Edge {
 public:
  UdpEdge(UdpTransport* transport, net::Ipv4Address ip, std::uint16_t port)
      : transport_(transport), ip_(ip), port_(port) {}

  void send(util::Buffer bytes) override;
  void send_chain(util::BufferChain chain) override;
  void close() override;
  TransportAddress remote() const override {
    return {TransportAddress::Proto::kUdp, ip_, port_};
  }
  bool is_up() const override { return up_; }

 private:
  friend class UdpTransport;
  UdpTransport* transport_;
  net::Ipv4Address ip_;
  std::uint16_t port_;
  bool up_ = true;
};

/// Accepts and dials TCP edges for one node.
class TcpTransport {
 public:
  using EdgeHandler = std::function<void(std::shared_ptr<Edge>)>;
  using ConnectCallback = std::function<void(std::shared_ptr<Edge>)>;

  TcpTransport(net::Host& host, std::uint16_t port);
  /// Stops accepting (closes the listener).  Established TcpEdges own
  /// their sockets and outlive the transport.
  ~TcpTransport();

  void set_inbound_handler(EdgeHandler h) { on_inbound_ = std::move(h); }
  /// Dial; cb receives nullptr on failure (refused / timeout / filtered).
  void connect(net::Ipv4Address ip, std::uint16_t port, ConnectCallback cb);
  std::uint16_t port() const { return port_; }

 private:
  net::Host& host_;
  std::uint16_t port_;
  std::shared_ptr<net::TcpListener> listener_;
  EdgeHandler on_inbound_;
  /// Expires with the transport; in-flight connect() callbacks check it
  /// before touching `this` (or invoking the caller's callback).
  util::AliveToken alive_;
};

/// Owns the node's UDP socket and demultiplexes edges by remote endpoint.
class UdpTransport {
 public:
  using EdgeHandler = std::function<void(std::shared_ptr<Edge>)>;

  UdpTransport(net::Host& host, std::uint16_t port);
  /// Closes the socket and detaches every edge (up_ = false, transport
  /// pointer cleared) so an edge handle that outlives the transport —
  /// e.g. across a node stop()/start() cycle — fails sends safely
  /// instead of dereferencing a dead transport.
  ~UdpTransport();

  void set_inbound_handler(EdgeHandler h) { on_inbound_ = std::move(h); }
  /// Find or create the edge to a remote endpoint (creating it sends
  /// nothing; packets flow when the caller sends).
  std::shared_ptr<Edge> edge_to(net::Ipv4Address ip, std::uint16_t port);
  std::uint16_t port() const { return port_; }
  net::Host& host() { return host_; }
  /// Underlying socket (stats introspection for tests/benches).
  const std::shared_ptr<net::UdpSocket>& socket() const { return sock_; }

  /// sendmmsg-style corking: between cork() and uncork(), chain sends
  /// on *any* of this transport's edges are staged instead of
  /// emitted, and the final uncork flushes every staged datagram —
  /// across edges and destinations — through one UdpSocket::send_batch
  /// call.  Nests (cork twice, flush on the last uncork).  A socket that
  /// closed while corked drops the staged batch safely.
  void cork() { ++cork_; }
  void uncork();
  bool corked() const { return cork_ > 0; }

 private:
  friend class UdpEdge;
  void on_datagram(net::Ipv4Address src, std::uint16_t sport,
                   util::Buffer data);
  void send_to(net::Ipv4Address ip, std::uint16_t port, util::Buffer data);
  void send_to(net::Ipv4Address ip, std::uint16_t port,
               util::BufferChain data);
  void stage(net::Ipv4Address ip, std::uint16_t port,
             util::BufferChain chain);
  void remove_edge(net::Ipv4Address ip, std::uint16_t port);

  net::Host& host_;
  std::uint16_t port_;
  std::shared_ptr<net::UdpSocket> sock_;
  EdgeHandler on_inbound_;
  std::map<std::pair<net::Ipv4Address, std::uint16_t>,
           std::shared_ptr<UdpEdge>>
      edges_;
  int cork_ = 0;
  std::vector<net::UdpSendItem> staged_;
};

}  // namespace ipop::brunet

template <>
struct std::hash<ipop::brunet::TransportAddress> {
  std::size_t operator()(const ipop::brunet::TransportAddress& t) const noexcept {
    return (static_cast<std::size_t>(t.ip.value) << 17) ^ t.port ^
           (static_cast<std::size_t>(t.proto) << 1);
  }
};
