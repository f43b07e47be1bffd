// Brunet-ARP: DHT-backed virtual-IP -> overlay-address resolution
// (paper Section III-E, "Multiple IPs and mobility").
//
// Classic IPOP maps an IP to the node addressed SHA1(IP), which forces one
// P2P node per virtual IP.  Brunet-ARP instead *stores* the binding
// IP -> node-address at the "Brunet-ARP-Mapper" (the node closest to
// SHA1(IP)), so one IPOP node can route for many virtual IPs (e.g. VMs it
// hosts) and a migrating VM can re-bind its IP to a new node.  Resolvers
// cache bindings with a TTL; stale entries age out after migration.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "brunet/dht.hpp"
#include "util/lifetime.hpp"

namespace ipop::core {

struct BrunetArpConfig {
  util::Duration cache_ttl = util::seconds(30);
  util::Duration reregister_interval = util::seconds(60);
};

struct BrunetArpStats {
  std::uint64_t lookups = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t dht_hits = 0;
  std::uint64_t dht_misses = 0;
  std::uint64_t registrations = 0;
  /// Cached bindings dropped because their owner left the overlay (churn:
  /// the connection-lost observer fires before the TTL would age them
  /// out, so traffic re-resolves instead of black-holing).
  std::uint64_t invalidations = 0;
  /// resolve() calls failed at once because kMaxPending packets already
  /// waited on the same IP's lookup.
  std::uint64_t queue_drops = 0;
};

/// A resolved IP -> node binding.  Every binding record is signed, so
/// resolving an IP also yields the owner's public key to encrypt tunneled
/// payloads to (how FrameSealer learns its peer keys — no extra
/// key-exchange round trip).
struct ArpBinding {
  brunet::Address addr;
  util::crypto::PublicKey key{};
};

class BrunetArp {
 public:
  using ResolveCallback = std::function<void(std::optional<ArpBinding>)>;
  /// Most resolve() callbacks one IP's in-flight lookup holds; the excess
  /// completes at once with nullopt.
  static constexpr std::size_t kMaxPending = 64;

  BrunetArp(brunet::BrunetNode& node, brunet::Dht& dht,
            BrunetArpConfig cfg = {});
  ~BrunetArp();

  /// Announce that this overlay node routes for `vip` (kept fresh by
  /// periodic re-registration; calling again after migration re-binds).
  void register_ip(net::Ipv4Address vip);
  void unregister_ip(net::Ipv4Address vip);

  /// Resolve a virtual IP to an overlay address (cache, then DHT).  Calls
  /// for an IP whose lookup is running wait on it, up to kMaxPending.
  void resolve(net::Ipv4Address vip, ResolveCallback cb);
  /// Drop a cached binding (e.g. after delivery failure).
  void invalidate(net::Ipv4Address vip);

  const BrunetArpStats& stats() const { return stats_; }

  /// DHT key for a virtual IP: SHA1(ip) == the classic IPOP node address,
  /// so the mapper for D is exactly the paper's "Brunet-ARP-Mapper".
  static brunet::Address key_for(net::Ipv4Address vip) {
    return brunet::Address::from_ip(vip);
  }

 private:
  struct CacheEntry {
    ArpBinding binding;
    util::TimePoint expires{};
  };

  void do_register(net::Ipv4Address vip, int retries_left);
  void reregister_tick();
  /// Binding record value: this node's overlay address and public key,
  /// kKeyBound when the address is key-derived.
  brunet::Record binding_record() const;

  brunet::BrunetNode& node_;
  brunet::Dht& dht_;
  BrunetArpConfig cfg_;
  BrunetArpStats stats_;
  std::map<net::Ipv4Address, CacheEntry> cache_;
  std::map<net::Ipv4Address, std::vector<ResolveCallback>> in_flight_;
  std::vector<net::Ipv4Address> registered_;
  std::uint64_t reregister_timer_ = 0;
  /// Observer and retry-callback guard (the node may outlive this
  /// BrunetArp); declared last so it expires first.
  util::AliveToken alive_;
};

}  // namespace ipop::core
