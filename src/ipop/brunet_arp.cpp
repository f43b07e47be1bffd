#include "ipop/brunet_arp.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace ipop::core {

namespace {
/// A failed registration put (e.g. a request timeout while the ring is
/// converging) retries on this short fuse, this many times, instead of
/// leaving the IP unresolvable until the next reregister_interval.
constexpr util::Duration kRegisterRetry = util::seconds(2);
constexpr int kRegisterRetries = 3;
}  // namespace

BrunetArp::BrunetArp(brunet::BrunetNode& node, brunet::Dht& dht,
                     BrunetArpConfig cfg)
    : node_(node), dht_(dht), cfg_(cfg) {
  reregister_timer_ = node_.host().loop().schedule_after(
      cfg_.reregister_interval, [this] { reregister_tick(); });
  // Churn: a binding whose owner just vanished is stale no matter how
  // much cache TTL remains — drop it so the next packet re-resolves
  // (and finds the re-registered binding after a migration or re-lease).
  node_.add_connection_lost_observer(
      [this, alive = alive_.guard()](const brunet::Address& lost) {
        if (!alive) return;
        const auto n = std::erase_if(cache_, [&](const auto& kv) {
          return kv.second.binding.addr == lost;
        });
        stats_.invalidations += n;
      });
}

BrunetArp::~BrunetArp() {
  if (reregister_timer_ != 0) node_.host().loop().cancel(reregister_timer_);
}

void BrunetArp::register_ip(net::Ipv4Address vip) {
  if (std::find(registered_.begin(), registered_.end(), vip) ==
      registered_.end()) {
    registered_.push_back(vip);
  }
  do_register(vip, kRegisterRetries);
}

brunet::Record BrunetArp::binding_record() const {
  const auto& addr = node_.address();
  const auto& pk = node_.identity().keys.public_key().bytes;
  std::vector<std::uint8_t> value(addr.bytes().begin(), addr.bytes().end());
  value.insert(value.end(), pk.begin(), pk.end());
  brunet::Record rec;
  rec.value = util::Buffer::wrap(std::move(value));
  // Only a key-derived address can prove the value's address claim is
  // the signer's own (see Record::kKeyBound).
  if (node_.key_addressed()) rec.flags |= brunet::Record::kKeyBound;
  return rec;
}

void BrunetArp::do_register(net::Ipv4Address vip, int retries_left) {
  ++stats_.registrations;
  dht_.put(key_for(vip), binding_record(),
           [this, vip, retries_left, alive = alive_.guard()](bool ok) {
             if (ok || !alive) return;
             if (retries_left <= 0 ||
                 std::find(registered_.begin(), registered_.end(), vip) ==
                     registered_.end()) {
               IPOP_LOG_WARN("Brunet-ARP registration for " << vip.to_string()
                                                            << " failed");
               return;
             }
             node_.host().loop().schedule_after(
                 kRegisterRetry,
                 [this, vip, retries_left, alive2 = alive_.guard()] {
                   if (!alive2) return;
                   if (std::find(registered_.begin(), registered_.end(),
                                 vip) == registered_.end()) {
                     return;  // unregistered while waiting
                   }
                   do_register(vip, retries_left - 1);
                 });
           });
}

void BrunetArp::invalidate(net::Ipv4Address vip) { cache_.erase(vip); }

void BrunetArp::unregister_ip(net::Ipv4Address vip) {
  std::erase(registered_, vip);
  // A signed release drops the binding immediately so resolvers stop
  // routing here.
  dht_.release(key_for(vip), nullptr);
}

void BrunetArp::reregister_tick() {
  for (const auto& vip : registered_) {
    do_register(vip, kRegisterRetries);
  }
  reregister_timer_ = node_.host().loop().schedule_after(
      cfg_.reregister_interval, [this] { reregister_tick(); });
}

void BrunetArp::resolve(net::Ipv4Address vip, ResolveCallback cb) {
  ++stats_.lookups;
  const auto now = node_.host().loop().now();
  auto cached = cache_.find(vip);
  if (cached != cache_.end() && cached->second.expires > now) {
    ++stats_.cache_hits;
    cb(cached->second.binding);
    return;
  }
  auto [it, fresh] = in_flight_.try_emplace(vip);
  if (it->second.size() >= kMaxPending) {
    // Every packet captured for this IP while its lookup runs waits
    // here; past the bound, fail the excess now instead of buffering
    // without limit.
    ++stats_.queue_drops;
    cb(std::nullopt);
    return;
  }
  it->second.push_back(std::move(cb));
  if (!fresh) return;  // lookup already running; coalesce

  dht_.get(key_for(vip), [this, vip](std::optional<brunet::Record> rec) {
    std::optional<ArpBinding> result;
    if (rec && rec->value.size() >= brunet::Address::kBytes) {
      ++stats_.dht_hits;
      const auto bytes = rec->value.as_span();
      brunet::Address::Bytes b{};
      std::copy(bytes.begin(), bytes.begin() + brunet::Address::kBytes,
                b.begin());
      // The owner key is the authoritative encryption key: the storing
      // node verified the record signature against it.  (The copy in the
      // value bytes is advisory.)
      const ArpBinding binding{brunet::Address(b), rec->owner};
      cache_[vip] = CacheEntry{binding,
                               node_.host().loop().now() + cfg_.cache_ttl};
      result = binding;
    } else {
      ++stats_.dht_misses;
    }
    auto waiting = in_flight_.find(vip);
    if (waiting == in_flight_.end()) return;
    auto callbacks = std::move(waiting->second);
    in_flight_.erase(waiting);
    for (auto& callback : callbacks) callback(result);
  });
}

}  // namespace ipop::core
