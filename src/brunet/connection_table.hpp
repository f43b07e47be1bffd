// Connection table: the node's view of the ring.
//
// Brunet distinguishes structured *near* connections (immediate ring
// neighbors, which guarantee routability) from structured *far* shortcuts
// (Kleinberg-style long links that give O(log n) routing) and *leaf*
// connections (bootstrap edges).  Greedy routing consults all of them.
//
// The table keeps connections sorted by address, which turns every ring
// query into a binary search plus a short walk:
//
//   - closest_to: the ring-distance minimizer over a sorted set is always
//     the successor or the predecessor of the target in address order
//     (min directed distance forward = successor, min backward =
//     predecessor), so a lower_bound plus at most two candidates per side
//     (when one is excluded) replaces the old linear scan — O(log n).
//   - left/right_neighbors: the k entries adjacent to self's ring
//     position, O(log n + k) instead of sort-all-connections per call.
//   - reclassify: one pass computing each entry's clockwise offset from
//     self, O(n) instead of O(n log n + n·k).
//
// Ties at equal ring distance break toward the numerically lower address.
// This is deterministic and independent of insertion order (the old
// linear scan kept whichever entry was inserted first).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "brunet/address.hpp"
#include "brunet/transport.hpp"

namespace ipop::brunet {

enum class ConnectionType : std::uint8_t {
  kLeaf = 0,
  kStructuredNear = 1,
  kStructuredFar = 2,
  /// Traffic-justified direct link (IPOP Section V.1 shortcuts): kept as
  /// long as the edge lives, exempt from background trimming.
  kTrafficShortcut = 3,
};

const char* connection_type_name(ConnectionType t);

struct Connection {
  Address addr;
  ConnectionType type = ConnectionType::kLeaf;
  /// The peer asked for this link as one of *its* near connections; we
  /// never trim such links (prevents trim/relink flapping when the ring
  /// view is asymmetric).
  bool peer_requested_near = false;
  /// The link needed NAT hole-punch assistance (established after the
  /// first dial round while a punch exchange was in flight).  Sticky
  /// across re-adds.  A *relayed* link is recognized by its edge instead:
  /// edge->remote().proto == kRelay.
  bool punched = false;
  std::shared_ptr<Edge> edge;
  /// Dialable endpoints advertised by the peer in its link handshake.
  /// (The edge's remote endpoint is an ephemeral port for TCP, so gossip
  /// must use these instead.)
  std::vector<TransportAddress> advertised;
};

class ConnectionTable {
 public:
  explicit ConnectionTable(Address self) : self_(self) {}

  /// Insert or update; an existing connection to the same address keeps
  /// the strongest type (near > far > leaf) and the newest edge.
  void add(const Connection& conn);
  void remove(const Address& addr);
  void clear() { conns_.clear(); }
  bool contains(const Address& addr) const;
  const Connection* find(const Address& addr) const;
  /// Look up the connection using a specific edge instance.
  const Connection* find_by_edge(const Edge* edge) const;

  /// Connection whose address minimizes ring distance to `target`
  /// (excluding self; the table never stores self).  `exclude` skips one
  /// address (used to avoid routing a packet back to its source).
  /// O(log n): binary search, then at most two candidates per side.
  const Connection* closest_to(const Address& target,
                               const Address* exclude = nullptr) const;

  /// Re-label connection types: the k nearest per side become near;
  /// displaced near connections are kept as far (shortcut) links.
  void reclassify(std::size_t k);

  /// The nearest connection clockwise ("right") or counter-clockwise
  /// ("left") of self (the k=1 case of the walks below: ring-position
  /// checks, stabilization, departure handoff).  Null when the table is
  /// empty.
  const Connection* right_neighbor() const;
  const Connection* left_neighbor() const;

  /// Visit every connection in address order, allocation-free.  The
  /// callback must not mutate the table.
  template <typename F>
  void for_each(F&& fn) const {
    for (const auto& c : conns_) fn(c);
  }

  /// Visit up to `k` ring neighbors clockwise of self, nearest first,
  /// allocation-free (replica-set queries in the DHT).
  template <typename F>
  void for_each_right(std::size_t k, F&& fn) const {
    const std::size_t n = conns_.size();
    if (n == 0) return;
    std::size_t i = ring_begin();
    for (std::size_t taken = 0; taken < k && taken < n; ++taken) {
      fn(conns_[i]);
      i = i + 1 < n ? i + 1 : 0;
    }
  }

  /// Visit up to `k` ring neighbors counter-clockwise of self, nearest
  /// first, allocation-free.
  template <typename F>
  void for_each_left(std::size_t k, F&& fn) const {
    const std::size_t n = conns_.size();
    if (n == 0) return;
    std::size_t i = ring_begin();
    for (std::size_t taken = 0; taken < k && taken < n; ++taken) {
      i = i == 0 ? n - 1 : i - 1;
      fn(conns_[i]);
    }
  }

  std::size_t size() const { return conns_.size(); }
  std::size_t count(ConnectionType t) const;
  const Address& self() const { return self_; }

 private:
  /// Index of the first connection with addr >= a (== size() when none).
  std::size_t lower_bound_index(const Address& a) const;
  /// Index of self's clockwise successor (wraps to 0 past the top of the
  /// address space); the start of the right-neighbor walk.
  std::size_t ring_begin() const;

  Address self_;
  std::vector<Connection> conns_;  // sorted ascending by addr
};

}  // namespace ipop::brunet
