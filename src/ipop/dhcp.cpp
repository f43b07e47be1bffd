#include "ipop/dhcp.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace ipop::core {

namespace {
/// Poll cadence while waiting for the overlay join: claiming before the
/// node has any connection would route the create to ourselves and
/// self-allocate blindly (the partition double-allocation hazard).
constexpr util::Duration kJoinPoll = util::milliseconds(500);
/// Consecutive renewal read-backs showing a rival value tolerated
/// before the lease is declared lost.  Split-brains under churn are
/// usually stranded records from a rival that already walked on;
/// disputing (short-fuse re-renewals) lets republish/handoff reconcile
/// toward the incumbent instead of churning the address.
constexpr int kDisputeRounds = 3;
}  // namespace

DhcpClient::DhcpClient(brunet::BrunetNode& node, brunet::Dht& dht,
                       DhcpConfig cfg)
    : node_(node), dht_(dht), cfg_(cfg) {}

DhcpClient::~DhcpClient() {
  stopped_ = true;
  if (renew_timer_ != 0) node_.host().loop().cancel(renew_timer_);
  if (claim_timer_ != 0) node_.host().loop().cancel(claim_timer_);
}

brunet::Address DhcpClient::key_for(net::Ipv4Address ip) {
  return brunet::Address::hash("ipop-dhcp:" + ip.to_string());
}

std::vector<std::uint8_t> DhcpClient::lease_value() const {
  const auto& b = node_.address().bytes();
  const auto& pk = node_.identity().keys.public_key().bytes;
  std::vector<std::uint8_t> v(b.begin(), b.end());
  v.insert(v.end(), pk.begin(), pk.end());
  return v;
}

brunet::Record DhcpClient::lease_record() const {
  brunet::Record rec;
  rec.value = util::Buffer::wrap(lease_value());
  // kKeyBound makes the storing node require the claimed address to
  // derive from the signing key: nobody can lease an IP *as us*.  Only
  // valid when the overlay address really is key-derived.
  if (node_.key_addressed()) rec.flags |= brunet::Record::kKeyBound;
  return rec;
}

bool DhcpClient::value_is_ours(const brunet::Record& rec) const {
  const auto mine = lease_value();
  const auto theirs = rec.value.as_span();
  return mine.size() == theirs.size() &&
         std::equal(mine.begin(), mine.end(), theirs.begin());
}

net::Ipv4Address DhcpClient::candidate(int attempt) const {
  // Deterministic per (node, attempt): hash the overlay address down to a
  // seed so each node probes its own pseudo-random walk of the pool —
  // N nodes spread over a pool much larger than N rarely collide, and a
  // retry after a conflict lands somewhere fresh.
  std::uint64_t seed = 0x6970'6f70'6468'6370ull;  // "ipopdhcp"
  for (auto byte : node_.address().bytes()) {
    seed = util::splitmix64(seed) ^ byte;
  }
  std::uint64_t round_salt = probe_round_;
  util::Rng rng(seed + static_cast<std::uint64_t>(attempt) * 0x9E3779B9ull +
                util::splitmix64(round_salt));
  for (int tries = 0; tries < 64; ++tries) {
    const auto idx = static_cast<std::uint32_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(cfg_.pool_size) - 1));
    const net::Ipv4Address ip(cfg_.pool_start.value + idx);
    const auto last = ip.value & 0xFF;
    if (last == 0 || last == 255) continue;
    return ip;
  }
  return net::Ipv4Address(cfg_.pool_start.value + 1);
}

void DhcpClient::acquire(AcquireCallback cb) {
  if (acquiring_ || lease_.has_value()) {
    if (cb) cb(lease_);
    return;
  }
  acquiring_ = true;
  ++probe_round_;
  try_claim(epoch_, 0, std::move(cb));
}

void DhcpClient::try_claim(std::uint64_t epoch, int attempt,
                           AcquireCallback cb) {
  if (stopped_ || epoch != epoch_) return;
  if (!node_.joined()) {
    // Still isolated: a kClosest create would deliver to ourselves and
    // "succeed" no matter who else holds the address.  Wait for the
    // bootstrap edge before probing.
    claim_timer_ = node_.host().loop().schedule_after(
        kJoinPoll, [this, epoch, attempt, cb = std::move(cb)]() mutable {
          claim_timer_ = 0;
          try_claim(epoch, attempt, std::move(cb));
        });
    return;
  }
  if (attempt >= cfg_.max_attempts) {
    IPOP_LOG_WARN("DHCP: pool exhausted after " << attempt << " probes");
    acquiring_ = false;
    if (cb) cb(std::nullopt);
    return;
  }
  const auto ip = candidate(attempt);
  ++stats_.attempts;
  dht_.create(
      key_for(ip), lease_record(),
      [this, epoch, ip, attempt, cb = std::move(cb)](bool ok) mutable {
        if (stopped_ || epoch != epoch_) return;
        if (!ok) {
          ++stats_.conflicts;
          try_claim(epoch, attempt + 1, std::move(cb));
          return;
        }
        // Read-back: the owner that accepted our create must still hold
        // our value.  If ring churn split ownership and someone else's
        // claim stuck, walk on to the next candidate.
        dht_.get(key_for(ip),
                 [this, epoch, ip, attempt, cb = std::move(cb)](
                     std::optional<brunet::Record> rec) mutable {
                   if (stopped_ || epoch != epoch_) return;
                   if (rec && value_is_ours(*rec)) {
                     lease_acquired(epoch, ip, std::move(cb));
                   } else {
                     ++stats_.conflicts;
                     try_claim(epoch, attempt + 1, std::move(cb));
                   }
                 });
      });
}

void DhcpClient::lease_acquired(std::uint64_t epoch, net::Ipv4Address ip,
                                AcquireCallback cb) {
  lease_ = ip;
  acquiring_ = false;
  ++stats_.acquisitions;
  IPOP_LOG_DEBUG("DHCP: leased " << ip.to_string() << " to "
                                 << node_.address().short_hex());
  renew_timer_ = node_.host().loop().schedule_after(
      cfg_.renew_interval, [this, epoch] { renew_tick(epoch); });
  if (cb) cb(lease_);
}

void DhcpClient::renew_tick(std::uint64_t epoch) {
  renew_timer_ = 0;
  if (stopped_ || epoch != epoch_ || !lease_.has_value()) return;
  if (!node_.joined()) {
    // Isolated (every connection evicted): a kClosest create would
    // self-deliver and "renew" against our own store no matter who holds
    // the key by now — the same double-allocation hazard the acquisition
    // path guards against.  Hold the lease provisionally and retry once
    // the overlay is reachable again; if the real record expired in the
    // meantime, the next genuine renewal detects the new holder.
    renew_timer_ = node_.host().loop().schedule_after(
        cfg_.renew_interval / 4, [this, epoch] { renew_tick(epoch); });
    return;
  }
  const auto ip = *lease_;
  dht_.create(key_for(ip), lease_record(), [this, epoch, ip](bool ok) {
    if (stopped_ || epoch != epoch_ || !lease_.has_value() ||
        *lease_ != ip) {
      return;
    }
    if (ok) {
      ++stats_.renewals;
      dispute_rounds_ = 0;
      renew_timer_ = node_.host().loop().schedule_after(
          cfg_.renew_interval, [this, epoch] { renew_tick(epoch); });
      return;
    }
    ++stats_.renewal_failures;
    // A failed refresh is either a transient timeout (keep the lease,
    // retry soon) or a genuine loss — the key now carries someone else's
    // value because our record expired during a partition and the IP was
    // re-leased.  Read the record back to tell them apart.
    dht_.get(key_for(ip),
             [this, epoch, ip](std::optional<brunet::Record> rec) {
               if (stopped_ || epoch != epoch_ || !lease_.has_value() ||
                   *lease_ != ip) {
                 return;
               }
               if (!rec || value_is_ours(*rec)) {
                 // Still ours (or unreachable): retry on a short fuse.
                 dispute_rounds_ = 0;
                 renew_timer_ = node_.host().loop().schedule_after(
                     cfg_.renew_interval / 4,
                     [this, epoch] { renew_tick(epoch); });
                 return;
               }
               // Someone else's value is visible — but under churn that is
               // usually a transient split-brain: a rival's create was
               // accepted by a fresh post-churn owner that missed the
               // handoff, and the rival's own read-back then disagreed and
               // walked on, stranding its record.  The incumbent is the
               // one node still renewing, so republish/handoff reconciles
               // toward us; dispute a few rounds before conceding.
               if (dispute_rounds_ < kDisputeRounds) {
                 ++dispute_rounds_;
                 renew_timer_ = node_.host().loop().schedule_after(
                     cfg_.renew_interval / 4,
                     [this, epoch] { renew_tick(epoch); });
                 return;
               }
               dispute_rounds_ = 0;
               ++stats_.lost_leases;
               lease_.reset();
               IPOP_LOG_WARN("DHCP: lease on " << ip.to_string()
                                               << " lost to another holder");
               if (on_lost_) on_lost_(ip);
             });
  });
}

void DhcpClient::release() {
  // A signed release hands the IP back to the pool immediately instead
  // of waiting out the record TTL.  Best-effort: if the release is lost
  // the TTL still reclaims.
  if (lease_.has_value()) {
    dht_.release(key_for(*lease_), nullptr);
  }
  // Invalidate every continuation of the current acquire/renew chain —
  // including ones parked inside the DHT's get-retry timers, which no
  // timer handle here can reach.
  ++epoch_;
  if (renew_timer_ != 0) {
    node_.host().loop().cancel(renew_timer_);
    renew_timer_ = 0;
  }
  if (claim_timer_ != 0) {
    node_.host().loop().cancel(claim_timer_);
    claim_timer_ = 0;
  }
  lease_.reset();
  acquiring_ = false;
}

}  // namespace ipop::core
