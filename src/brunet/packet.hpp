// Brunet P2P packet format.
//
// Every message on the overlay — link handshakes, ring maintenance,
// connection setup, DHT operations and tunneled IP packets (the paper's
// Figure 3 encapsulation) — is one of these packets.  On the wire a packet
// rides inside the transport edge (UDP datagram payload or length-framed
// TCP stream), which itself rides inside the physical IP network; the
// encapsulated virtual IP packet is the innermost layer.
//
// A Packet is a parsed header over a shared util::Buffer, not an owning
// struct: decoding a received wire buffer costs a 48-byte header parse and
// zero payload copies, and forwarding patches the hop count with a
// one-byte in-place write and resends the *same* buffer on the next edge
// (the Serval overlay-frame idiom).  Building a packet locally writes the
// header into the payload buffer's headroom when possible, so IPOP's
// Figure-3 encapsulation never copies the captured IP packet either.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "brunet/address.hpp"
#include "util/buffer.hpp"
#include "util/buffer_chain.hpp"
#include "util/bytes.hpp"

namespace ipop::brunet {

enum class PacketType : std::uint8_t {
  // Edge-local (never routed, ttl ignored).
  kLinkRequest = 1,   // new edge: sender identifies itself
  kLinkResponse = 2,  // edge accepted: receiver identifies itself
  kEdgePing = 3,      // keepalive probe
  kEdgePong = 4,      // keepalive response; carries observed remote address
  kDeparting = 5,     // graceful leave: sender hands off its ring position
  kRelayForward = 6,  // tunnel-in-tunnel: wrapped edge frame, relay-bound
  kRelayDeliver = 7,  // wrapped edge frame arriving at the tunnel endpoint
  // Sender is dropping this edge (trim, stale-reap).  Datagram edges have
  // no transport-level close: without the notice the trimmed peer keeps a
  // zombie connection whose pings we would keep answering, and — if we
  // were its bootstrap rendezvous — never re-joins.
  kEdgeClose = 8,
  // Routed.
  kConnectRequest = 10,   // "please connect to me" (ring join / shortcut)
  kConnectResponse = 11,  // closest node's neighbor info
  kNeighborQuery = 12,    // stabilization: ask a peer for its neighbors
  kNeighborReply = 13,
  kPunchRequest = 14,   // hole punch: "dial me back, simultaneously"
  kPunchResponse = 15,  // target's NAT class + relay-candidate neighbors
  kPing = 20,  // overlay-level echo, for diagnostics
  kPingResponse = 21,
  kIpTunnel = 30,  // IPOP: encapsulated virtual IPv4 packet
  kDhtRequest = 40,
  kDhtResponse = 41,
  kAppData = 50,  // generic application payload
};

/// Delivery semantics for routed packets.
enum class RoutingMode : std::uint8_t {
  /// Deliver only to the exact destination address; drop if the greedy
  /// walk ends elsewhere.
  kExact = 0,
  /// Deliver to the node closest to the destination (DHT semantics).
  kClosest = 1,
};

struct Packet {
  PacketType type = PacketType::kAppData;
  RoutingMode mode = RoutingMode::kExact;
  std::uint8_t ttl = 32;
  std::uint8_t hops = 0;
  /// Correlates requests and responses end-to-end.
  std::uint32_t msg_id = 0;
  Address src;
  Address dst;

  static constexpr std::size_t kHeaderSize = 1 + 1 + 1 + 1 + 4 + 20 + 20;
  /// Wire offsets of the transit-mutable header bytes.
  static constexpr std::size_t kTtlOffset = 2;
  static constexpr std::size_t kHopsOffset = 3;

  /// Payload view, aliasing the packet's shared buffer.  Valid while any
  /// handle to that buffer exists (the Packet itself holds one).
  util::BufferView payload() const;
  /// Owning sub-buffer of the payload bytes, sharing storage with the
  /// wire image — the zero-copy way to unwrap a tunneled IP packet or
  /// echo a payload back.
  util::Buffer share_payload() const;
  void set_payload(std::vector<std::uint8_t> bytes);
  void set_payload(util::Buffer bytes);

  /// Materialize or refresh the wire image and return a handle sharing
  /// its storage.  For a packet decoded from the wire this is two
  /// one-byte patches (ttl, hops) — the payload is never copied.  For a
  /// locally built packet the header is prepended into the payload
  /// buffer's headroom (zero-copy when uniquely owned, one copy
  /// otherwise).  `headroom` is the reallocation budget for that one
  /// copy: nodes pass their per-path headroom (buffer-ownership rule 6)
  /// so a wire image bound for a tunneling edge leaves room for every
  /// encapsulation layer below.
  util::Buffer to_wire(std::size_t headroom = util::kPacketHeadroom);
  /// to_wire() + release: returns the wire buffer and leaves the packet
  /// empty.  Use at the final send site — the transport (and the
  /// simulated kernel below it) then holds the storage uniquely and can
  /// prepend its headers into the same buffer instead of reallocating.
  util::Buffer take_wire(std::size_t headroom = util::kPacketHeadroom);
  /// Wire image as a scatter-gather chain: the 48-byte header (taken
  /// from this packet's fields; its own buffer/payload is ignored) is
  /// written into a small per-destination buffer — with `headroom` so
  /// the transport/UDP/IP headers prepend into it downstream — and
  /// `shared_payload` is linked behind it untouched.  The fan-out idiom:
  /// N destinations share one payload buffer, each rides its own header
  /// segment.
  util::BufferChain wire_chain(util::Buffer shared_payload,
                               std::size_t headroom =
                                   util::kPacketHeadroom) const;

  /// Zero-copy decode: parses the header and adopts `wire` as the shared
  /// backing store.  Throws util::ParseError on truncation.
  static Packet decode(util::Buffer wire);

 private:
  void write_header(std::uint8_t* h) const;
  void finalize(std::size_t headroom);

  util::Buffer buf_;   // wire image if wire_, else payload-only storage
  bool wire_ = false;
};

}  // namespace ipop::brunet
