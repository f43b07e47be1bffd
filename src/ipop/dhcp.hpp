// DHCP over the DHT: self-configuring virtual-IP allocation.
//
// The paper's title promises *self-configuring* virtual IP networks; this
// is the subsystem that delivers it.  A joining IPOP node knows only the
// virtual address pool, not its own address.  It derives candidate IPs
// from its overlay address, claims one with the DHT's atomic
// create-if-absent primitive (the uniqueness check runs at the key's
// owner, so two nodes racing for one IP cannot both win), verifies the
// claim with a read-back, and then renews the lease on a timer — the same
// create() call, which the owner accepts because the value (our overlay
// address) matches.  A node that stops renewing loses its lease when the
// DHT record's TTL runs out, so addresses leak back to the pool under
// churn without any central server.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "brunet/dht.hpp"

namespace ipop::core {

struct DhcpConfig {
  /// Leasable pool: [pool_start, pool_start + pool_size).  Addresses whose
  /// last octet is 0 or 255 are skipped (network/broadcast conventions).
  net::Ipv4Address pool_start = net::Ipv4Address(172, 16, 1, 0);
  std::uint32_t pool_size = 4096;
  /// Lease refresh cadence; must be well below the DHT record TTL or the
  /// lease expires out from under a live node.
  util::Duration renew_interval = util::seconds(60);
  /// Candidate IPs probed before acquire() reports failure.
  int max_attempts = 16;
};

struct DhcpStats {
  std::uint64_t attempts = 0;          // create() probes sent
  std::uint64_t conflicts = 0;         // candidate held by someone else
  std::uint64_t acquisitions = 0;
  std::uint64_t renewals = 0;          // successful lease refreshes
  std::uint64_t renewal_failures = 0;  // refresh rejected or timed out
  std::uint64_t lost_leases = 0;
};

class DhcpClient {
 public:
  using AcquireCallback =
      std::function<void(std::optional<net::Ipv4Address>)>;
  using LeaseLostHandler = std::function<void(net::Ipv4Address)>;

  DhcpClient(brunet::BrunetNode& node, brunet::Dht& dht, DhcpConfig cfg = {});
  ~DhcpClient();

  DhcpClient(const DhcpClient&) = delete;
  DhcpClient& operator=(const DhcpClient&) = delete;

  /// Probe the pool and claim a lease; cb receives the acquired IP or
  /// nullopt after max_attempts conflicts.  One acquisition at a time.
  void acquire(AcquireCallback cb);
  /// Stop renewing (the DHT record ages out; a graceful leave() hands it
  /// to a neighbor first, where it blocks reuse until the TTL passes).
  void release();

  std::optional<net::Ipv4Address> lease() const { return lease_; }
  /// Called when a renewal discovers the key now carries someone else's
  /// value (our record TTL'd out during a partition and the IP was
  /// re-allocated) — the holder must reconfigure.
  void set_lease_lost_handler(LeaseLostHandler h) { on_lost_ = std::move(h); }
  const DhcpStats& stats() const { return stats_; }

  /// DHT key for a lease record: distinct namespace from Brunet-ARP so a
  /// lease and a binding for the same IP never collide.
  static brunet::Address key_for(net::Ipv4Address ip);

 private:
  net::Ipv4Address candidate(int attempt) const;
  void try_claim(std::uint64_t epoch, int attempt, AcquireCallback cb);
  void lease_acquired(std::uint64_t epoch, net::Ipv4Address ip,
                      AcquireCallback cb);
  void renew_tick(std::uint64_t epoch);
  /// Lease record value: this node's overlay address and public key —
  /// resolvers reading the lease learn the encryption key along with the
  /// address.
  std::vector<std::uint8_t> lease_value() const;
  /// The lease as a typed DHT record (kKeyBound when the node's address
  /// is key-derived, so only this node's key can claim it).
  brunet::Record lease_record() const;
  bool value_is_ours(const brunet::Record& rec) const;

  brunet::BrunetNode& node_;
  brunet::Dht& dht_;
  DhcpConfig cfg_;
  DhcpStats stats_;
  std::optional<net::Ipv4Address> lease_;
  LeaseLostHandler on_lost_;
  bool acquiring_ = false;
  /// Salts candidate(): bumped once per acquisition round so a retry
  /// after "pool exhausted" probes a FRESH pseudo-random walk.  Without
  /// it the walk is fully determined by the node address, and a node
  /// whose max_attempts candidates are all genuinely taken (likely at
  /// high pool load — 10k nodes on a 20k pool is a coin flip per probe)
  /// re-probes the same taken addresses forever.
  std::uint64_t probe_round_ = 0;
  /// Consecutive disputed renewals (see kDisputeRounds in dhcp.cpp).
  int dispute_rounds_ = 0;
  std::uint64_t renew_timer_ = 0;
  std::uint64_t claim_timer_ = 0;  // join-wait poll
  /// Bumped by release(): continuations of an older acquire/renew chain
  /// parked inside DHT retries compare their captured epoch and die,
  /// instead of reviving after a stop()/start() cycle and completing a
  /// second, parallel acquisition.
  std::uint64_t epoch_ = 0;
  bool stopped_ = false;
};

}  // namespace ipop::core
