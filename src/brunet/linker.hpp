// Linker: a BrunetNode's NAT traversal (paper Section III-D).  Both ends
// dial each other's endpoints at once, so one probe always looks like the
// response to the other's outbound packet; a routed punch request makes
// the target dial back; a pair that cannot punch links through a mutual
// neighbor (RelayEdge).  It also classifies the NAT in front of the node
// from the endpoints peers report seeing (decentralized STUN).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <unordered_map>
#include <vector>

#include "brunet/connection_table.hpp"
#include "brunet/packet.hpp"
#include "brunet/transport.hpp"
#include "util/lifetime.hpp"

namespace ipop::brunet {

class BrunetNode;
class RelayEdge;

/// Self-classified NAT behavior, inferred from the translated addresses
/// peers report back during handshakes and keepalives (the decentralized
/// STUN of paper Section III-D).  Coarse on purpose: one stable external
/// mapping per protocol reads as cone, distinct external ports toward
/// different peers read as symmetric, and an untranslated observation
/// means no NAT at all.  Restricted vs. port-restricted filtering cannot
/// be told apart without cooperative probe servers, and the linker does
/// not need to: those cases resolve through punch retries or the relay
/// fallback.
enum class NatClass : std::uint8_t { kUnknown, kOpen, kCone, kSymmetric };

const char* nat_class_name(NatClass c);

/// Identity + dialable endpoints of a node, gossiped in the maintenance
/// protocol so peers can run the linker toward it.
struct NodeInfo {
  Address addr;
  std::vector<TransportAddress> addrs;

  void encode(util::ByteWriter& w) const;
  static NodeInfo decode(util::ByteReader& r);
};

/// Encode a NodeInfo list behind its u8 count prefix, clamping to the 255
/// entries the count byte can express (a >255-neighbor reply would
/// otherwise silently truncate the count and desynchronize the decoder).
/// Returns the number of infos actually encoded.
std::size_t encode_node_infos(util::ByteWriter& w,
                              std::span<const NodeInfo> infos);
/// Decode a u8-count-prefixed NodeInfo list (the encode_node_infos
/// layout); throws util::ParseError on a truncated list.
std::vector<NodeInfo> decode_node_infos(util::ByteReader& r);

class Linker {
 public:
  using RelayMap = std::map<Address, std::shared_ptr<RelayEdge>>;

  explicit Linker(BrunetNode& node) : node_(node) {}

  /// See BrunetNode::connect_to.
  void connect_to(const Address& target,
                  const std::vector<TransportAddress>& candidates,
                  ConnectionType type, const std::vector<NodeInfo>& via_hints);
  /// A link handshake with `peer` completed: end its attempt.  Returns
  /// whether the punch exchange opened the link; a response takes the
  /// attempt's `type`.
  bool on_link_up(const Address& peer, bool is_request, ConnectionType& type);
  /// Remember a translated endpoint peers observe for us, refine the NAT
  /// class, and on a new one push our refreshed identity to every peer.
  void record_observed(const TransportAddress& ta);
  void handle_punch_request(const Packet& pkt);
  /// kRelayForward (we are the relay) or kRelayDeliver (we are the end).
  void handle_relay(const std::shared_ptr<Edge>& edge, Packet pkt);
  /// Drop tunnels riding a closed edge, failing over where a backup is.
  void on_edge_closed(Edge* edge);
  /// The edge carries one of our tunnels, or recently carried someone
  /// else's through us: trimming it would cut a live link.
  bool carries_tunnel(const std::shared_ptr<Edge>& e) const;
  /// Up to 4 nodes we hold a live direct (non-relay) edge to: a locate
  /// probe's "reachable via" hints, through which responders can tunnel
  /// a link back to us before we are routable.
  std::vector<NodeInfo> direct_edge_hints() const;
  /// Cancel every retry timer and forget attempts and tunnels.
  void stop();

  NatClass nat_class() const { return nat_class_; }
  const std::set<TransportAddress>& observed() const { return observed_; }
  const RelayMap& relay_edges() const { return relay_edges_; }

 private:
  struct LinkAttempt {
    std::vector<TransportAddress> candidates;
    /// The peer's neighbors (from its punch response): relay candidates
    /// if dialing fails.
    std::vector<NodeInfo> relay_candidates;
    ConnectionType type = ConnectionType::kStructuredNear;
    int attempts_left = 0;
    /// Dial rounds completed; round 1 successes are direct links,
    /// anything later that needed the punch exchange counts as punched.
    int round = 0;
    NatClass peer_nat = NatClass::kUnknown;
    bool punch_sent = false;
    bool relay_tried = false;
    std::uint64_t timer = 0;
  };

  void retry_tick(Address target);
  void send_punch_request(const Address& target);
  void on_punch_response(const Address& target, std::optional<Packet> resp);
  /// Tunnel the link handshake through a mutual neighbor; returns false
  /// when no usable relay is known.
  bool start_relay(const Address& target, LinkAttempt& attempt);
  /// Our end of a tunnel to `peer` through `relay`, adopted as an edge.
  std::shared_ptr<RelayEdge> open_tunnel(const Address& peer,
                                         const Address& relay,
                                         std::shared_ptr<Edge> via);
  /// Swap a tunnel whose carrier died onto its pre-armed backup via.
  /// Returns false when no backup is armed or the backup edge is gone
  /// (the tunnel then closes as before).
  bool failover_relay(const std::shared_ptr<RelayEdge>& re);
  void relay_deliver(const std::shared_ptr<Edge>& edge, const Packet& pkt);

  BrunetNode& node_;
  std::set<TransportAddress> observed_;
  NatClass nat_class_ = NatClass::kUnknown;
  // Only iterated in stop() to cancel timers (order-insensitive): O(1)
  // lookup wins on the link-attempt paths.
  std::unordered_map<Address, LinkAttempt> linking_;
  /// Live relay tunnels by tunnel peer.  Ordered map: teardown on via
  /// close iterates it, and address order is stable across runs where
  /// pointer hash order is not.
  RelayMap relay_edges_;
  /// Last time an edge carried a relay forward *through* us (we were the
  /// R of someone else's tunnel).  Keeps trim_connections from cutting a
  /// tunnel we cannot see from our own relay_edges_.
  std::map<Edge*, TimePoint> relay_via_activity_;
  /// Guards the retry timers; declared last so it expires first
  /// (timer-lifetime rule).
  util::AliveToken alive_;
};

}  // namespace ipop::brunet
