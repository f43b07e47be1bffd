#include "brunet/connection_table.hpp"

#include <algorithm>

namespace ipop::brunet {

// One Connection per ring entry; at the 10^4..10^5-node scale the harness
// drives, a node's table must stay within a cache line.
static_assert(sizeof(void*) != 8 || sizeof(Connection) <= 64,
              "Connection outgrew one cache line; check field order");

const char* connection_type_name(ConnectionType t) {
  switch (t) {
    case ConnectionType::kLeaf: return "leaf";
    case ConnectionType::kStructuredNear: return "near";
    case ConnectionType::kStructuredFar: return "far";
    case ConnectionType::kTrafficShortcut: return "traffic-shortcut";
  }
  return "?";
}

std::size_t ConnectionTable::lower_bound_index(const Address& a) const {
  const auto it = std::lower_bound(
      conns_.begin(), conns_.end(), a,
      [](const Connection& c, const Address& x) { return c.addr < x; });
  return static_cast<std::size_t>(it - conns_.begin());
}

std::size_t ConnectionTable::ring_begin() const {
  if (conns_.empty()) return 0;
  const std::size_t i = lower_bound_index(self_);
  return i == conns_.size() ? 0 : i;
}

void ConnectionTable::add(const Connection& conn) {
  if (conn.addr == self_) return;
  const std::size_t i = lower_bound_index(conn.addr);
  if (i < conns_.size() && conns_[i].addr == conn.addr) {
    // Keep the strongest classification; refresh the edge.
    Connection& c = conns_[i];
    if (static_cast<int>(conn.type) > static_cast<int>(c.type)) {
      c.type = conn.type;
    }
    if (conn.edge != nullptr && conn.edge->is_up() &&
        (c.edge == nullptr || !c.edge->is_up())) {
      c.edge = conn.edge;
    }
    if (!conn.advertised.empty()) c.advertised = conn.advertised;
    c.peer_requested_near |= conn.peer_requested_near;
    c.punched |= conn.punched;
    return;
  }
  conns_.insert(conns_.begin() + static_cast<std::ptrdiff_t>(i), conn);
}

void ConnectionTable::remove(const Address& addr) {
  const std::size_t i = lower_bound_index(addr);
  if (i < conns_.size() && conns_[i].addr == addr) {
    conns_.erase(conns_.begin() + static_cast<std::ptrdiff_t>(i));
  }
}

bool ConnectionTable::contains(const Address& addr) const {
  return find(addr) != nullptr;
}

const Connection* ConnectionTable::find(const Address& addr) const {
  const std::size_t i = lower_bound_index(addr);
  if (i < conns_.size() && conns_[i].addr == addr) return &conns_[i];
  return nullptr;
}

const Connection* ConnectionTable::find_by_edge(const Edge* edge) const {
  // Control plane only (edge-close teardown); a linear scan is fine.
  for (const auto& c : conns_) {
    if (c.edge.get() == edge) return &c;
  }
  return nullptr;
}

const Connection* ConnectionTable::closest_to(const Address& target,
                                              const Address* exclude) const {
  const std::size_t n = conns_.size();
  if (n == 0) return nullptr;
  const Connection* best = nullptr;
  auto consider = [&](const Connection& c) {
    if (exclude != nullptr && c.addr == *exclude) return false;
    if (best == nullptr || Address::closer(target, c.addr, best->addr) ||
        (!Address::closer(target, best->addr, c.addr) &&
         c.addr < best->addr)) {
      best = &c;
    }
    return true;
  };
  // The ring-distance minimizer over a sorted set is the target's
  // successor (minimum forward distance) or predecessor (minimum
  // backward distance) in address order.  Walk each direction until one
  // non-excluded entry is accepted — at most two probes per side.
  const std::size_t start = lower_bound_index(target) % n;
  std::size_t i = start;
  for (std::size_t steps = 0; steps < n; ++steps) {
    if (consider(conns_[i])) break;
    i = i + 1 < n ? i + 1 : 0;
  }
  i = start == 0 ? n - 1 : start - 1;
  for (std::size_t steps = 0; steps < n; ++steps) {
    if (consider(conns_[i])) break;
    i = i == 0 ? n - 1 : i - 1;
  }
  return best;
}

void ConnectionTable::reclassify(std::size_t k) {
  const std::size_t n = conns_.size();
  if (n == 0) return;
  const std::size_t b = ring_begin();
  // Peer-requested pins protect a link only while the peer could still
  // plausibly list us among its near set.  Ring distance is symmetric, so
  // once an entry drifts well outside our own near window (4k per side of
  // hysteresis) the peer's window has moved on too — keep the pin there
  // and every join that ever probed this position leaks one immortal
  // connection per node, which is what melts tables at 10^4 nodes.
  const std::size_t pin_window = 4 * k;
  for (std::size_t idx = 0; idx < n; ++idx) {
    // Clockwise offset of this entry from self's ring position: the k
    // nearest per side are offsets [0, k) and [n - k, n).
    const std::size_t o = idx >= b ? idx - b : idx + n - b;
    const bool near = k >= n || o < k || o >= n - k;
    if (near) {
      conns_[idx].type = ConnectionType::kStructuredNear;
    } else if (conns_[idx].type == ConnectionType::kStructuredNear) {
      conns_[idx].type = ConnectionType::kStructuredFar;
    }
    const bool pinnable =
        pin_window >= n || o < pin_window || o >= n - pin_window;
    if (!pinnable) conns_[idx].peer_requested_near = false;
  }
}

const Connection* ConnectionTable::right_neighbor() const {
  if (conns_.empty()) return nullptr;
  return &conns_[ring_begin()];
}

const Connection* ConnectionTable::left_neighbor() const {
  const std::size_t n = conns_.size();
  if (n == 0) return nullptr;
  const std::size_t b = ring_begin();
  return &conns_[b == 0 ? n - 1 : b - 1];
}

std::size_t ConnectionTable::count(ConnectionType t) const {
  return static_cast<std::size_t>(
      std::count_if(conns_.begin(), conns_.end(),
                    [&](const Connection& c) { return c.type == t; }));
}

}  // namespace ipop::brunet
