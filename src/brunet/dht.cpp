#include "brunet/dht.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/logging.hpp"

namespace ipop::brunet {

namespace {
constexpr std::uint8_t kOk = 1;
constexpr std::uint8_t kNotFound = 0;
constexpr std::uint8_t kConflict = 2;  // create(): key taken by other value
constexpr std::uint8_t kRetry = 3;     // create(): owner too young to decide

constexpr Duration kRepublishInterval = util::seconds(5);
/// Grace period between a lost connection and the re-replication pass it
/// triggers (lets ring repair re-link first so the copies land on the
/// *new* neighbors, and coalesces a burst of failures into one pass).
constexpr Duration kRereplicateDelay = util::milliseconds(500);
/// A get() that misses (not-found or timeout) is retried this many
/// times: under churn the first attempt often dies on a route through a
/// not-yet-evicted dead node, and by the retry the ring has healed.
constexpr int kGetRetries = 2;
constexpr Duration kGetRetryDelay = util::milliseconds(1500);
/// Rounds a create() re-asks after a young owner's kRetry deferral.
constexpr int kCreateRetries = 8;
constexpr Duration kCreateRetryDelay = util::milliseconds(1000);

/// Record fields behind the status/op byte and key: the one wire layout
/// shared by put/create/replica requests and get responses.
void encode_record_fields(util::ByteWriter& w, const Record& rec) {
  w.u64(rec.version);
  w.u32(rec.ttl);
  w.u8(rec.flags);
  w.bytes(std::span<const std::uint8_t>(rec.owner.bytes));
  w.bytes(std::span<const std::uint8_t>(rec.sig.bytes));
  w.lp_bytes(rec.value.as_span());
}

/// True when `resp` arrived and leads with status byte `st`.
bool answered(const std::optional<Packet>& resp, std::uint8_t st) {
  return resp && !resp->payload().empty() && resp->payload()[0] == st;
}
}  // namespace

std::vector<std::uint8_t> Record::signed_bytes(const Address& key) const {
  std::vector<std::uint8_t> m;
  m.reserve(Address::kBytes + 13 + value.size());
  m.insert(m.end(), key.bytes().begin(), key.bytes().end());
  for (int i = 7; i >= 0; --i) {
    m.push_back(static_cast<std::uint8_t>(version >> (i * 8)));
  }
  for (int i = 3; i >= 0; --i) {
    m.push_back(static_cast<std::uint8_t>(ttl >> (i * 8)));
  }
  m.push_back(flags);
  const auto v = value.as_span();
  m.insert(m.end(), v.begin(), v.end());
  return m;
}

void Record::sign(const Address& key, const util::crypto::KeyPair& keys) {
  flags |= kSigned;
  owner = keys.public_key();
  sig = keys.sign(signed_bytes(key));
}

bool Record::verify(const Address& key) const {
  if (!is_signed()) return false;
  // kKeyBound: the value's leading bytes claim an overlay address, and a
  // valid signature alone must not let key X bind node Y's address — the
  // claimed address has to derive from the signing key.  A release
  // (empty value) claims nothing, so only the signature matters there.
  if (key_bound() && !value.empty()) {
    if (value.size() < Address::kBytes) return false;
    Address::Bytes claimed{};
    std::copy_n(value.data(), Address::kBytes, claimed.begin());
    if (Address(claimed) != Address::from_public_key(owner)) return false;
  }
  return util::crypto::verify(owner, signed_bytes(key), sig);
}

Dht::Dht(BrunetNode& node, DhtConfig cfg) : node_(node), cfg_(cfg) {
  if (!node_.has_identity()) {
    throw std::invalid_argument("Dht requires a node with an identity");
  }
  node_.set_handler(PacketType::kDhtRequest,
                    [this](const Packet& pkt) { handle_request(pkt); });
  republish_timer_ = node_.host().loop().schedule_after(
      kRepublishInterval, [this] { republish_tick(); });
  // Churn hooks: a dead connection may have held replicas of our records;
  // a graceful departure hands every record onward before edges drop.
  node_.add_connection_lost_observer(
      [this, alive = alive_.guard()](const Address& lost) {
        if (!alive) return;
        // The departed peer may come back (same overlay address after a
        // crash/rejoin): clear the handoff stamps aimed at it so the
        // republish tick re-sends the records it lost, instead of
        // starving the rejoined owner forever.
        for (auto& [key, s] : store_) {
          if (s.handed && s.handed_to == lost) s.handed = false;
        }
        schedule_rereplication();
      });
  node_.add_departure_hook([this, alive = alive_.guard()] {
    if (!alive) return;
    handoff_all();
  });
}

Dht::~Dht() {
  auto& loop = node_.host().loop();
  if (republish_timer_ != 0) loop.cancel(republish_timer_);
  if (rereplicate_timer_ != 0) loop.cancel(rereplicate_timer_);
}

std::uint64_t Dht::write_stamp() {
  // Version stamps must order writes across *different* writers, or a
  // stale replica of an overwritten record can hold a higher version
  // than the current owner's copy and win reconciliation (the
  // anti-entropy push-back would then actively spread the dead value).
  // Clock-derived stamps give that global order: all nodes share the
  // simulated clock, so later write == larger stamp; the max() keeps a
  // single writer strictly monotonic within one tick.  (A deployment
  // would use NTP-disciplined wall time — last-writer-wins DHTs already
  // accept that clock skew bounds their consistency.)
  const auto now_ns =
      static_cast<std::uint64_t>(node_.host().loop().now().count());
  version_counter_ = std::max(version_counter_ + 1, now_ns);
  return version_counter_;
}

void Dht::finalize_outgoing(const Key& key, Record& rec) {
  rec.version = write_stamp();
  // Every write is signed — the subsystems above (DHCP, Brunet-ARP) get
  // ownership protection without holding key material themselves.
  // Signing happens after the version stamp because the signature covers
  // it (replay protection).
  rec.sign(key, node_.identity().keys);
}

void Dht::put(const Key& key, Record rec, PutCallback cb) {
  ++stats_.puts;
  finalize_outgoing(key, rec);
  node_.request(key, PacketType::kDhtRequest, RoutingMode::kClosest,
                encode_record(Op::kPut, key, rec),
                [cb = std::move(cb)](std::optional<Packet> resp) {
                  if (cb) cb(answered(resp, kOk));
                });
}

void Dht::release(const Key& key, PutCallback cb) {
  put(key, Record{}, std::move(cb));  // empty value = release
}

void Dht::create(const Key& key, Record rec, PutCallback cb) {
  ++stats_.creates;
  create_attempt(key, std::move(rec), kCreateRetries, std::move(cb));
}

void Dht::create_attempt(const Key& key, Record rec, int retries_left,
                         PutCallback cb) {
  // Keep the caller's record as the retry template (copying shares the
  // value's storage, O(1)); each attempt gets a fresh stamp + signature.
  Record wire = rec;
  finalize_outgoing(key, wire);
  node_.request(
      key, PacketType::kDhtRequest, RoutingMode::kClosest,
      encode_record(Op::kCreate, key, wire),
      [this, key, rec = std::move(rec), retries_left, cb = std::move(cb),
       alive = alive_.guard()](std::optional<Packet> resp) mutable {
        if (!alive) return;
        // kRetry means delivery hit a node too young to decide (its miss
        // is not authoritative); the claim itself is still undecided, so
        // back off and re-ask rather than reporting a conflict.
        if (answered(resp, kRetry) && retries_left > 0) {
          node_.host().loop().schedule_after(
              kCreateRetryDelay,
              [this, key, rec = std::move(rec), retries_left,
               cb = std::move(cb), alive2 = std::move(alive)]() mutable {
                if (!alive2) return;
                create_attempt(key, std::move(rec), retries_left - 1,
                               std::move(cb));
              });
          return;
        }
        if (cb) cb(answered(resp, kOk));
      });
}

void Dht::get(const Key& key, GetCallback cb) {
  ++stats_.gets;
  get_attempt(key, kGetRetries, std::move(cb));
}

void Dht::get_attempt(const Key& key, int retries_left, GetCallback cb) {
  node_.request(
      key, PacketType::kDhtRequest, RoutingMode::kClosest,
      encode_lookup(Op::kGet, key),
      [this, key, retries_left, cb = std::move(cb),
       alive = alive_.guard()](std::optional<Packet> resp) mutable {
        if (!alive) return;
        if (!resp) {
          ++stats_.get_timeouts;
        } else if (resp->payload().empty() || resp->payload()[0] == kNotFound) {
          ++stats_.get_notfound;
        }
        if (!resp || resp->payload().empty() ||
            resp->payload()[0] == kNotFound) {
          // Miss or timeout: under churn the request may have died on a
          // route through a dead-but-not-yet-evicted node; give the ring
          // a beat to heal and ask again.
          if (retries_left > 0) {
            ++stats_.get_retries;
            node_.host().loop().schedule_after(
                kGetRetryDelay,
                [this, key, retries_left, cb = std::move(cb),
                 alive2 = std::move(alive)]() mutable {
                  if (!alive2) return;
                  get_attempt(key, retries_left - 1, std::move(cb));
                });
            return;
          }
          ++stats_.misses;
          if (cb) cb(std::nullopt);
          return;
        }
        ++stats_.hits;
        try {
          util::ByteReader r(resp->payload());
          r.u8();  // status
          // The record's value shares the response packet's storage —
          // resolvers read the bytes in place, no copy.
          if (cb) cb(decode_record(r, resp->share_payload()));
        } catch (const util::ParseError&) {
          if (cb) cb(std::nullopt);
        }
      });
}

Record Dht::decode_record(util::ByteReader& r, const util::Buffer& storage) {
  Record rec;
  rec.version = r.u64();
  rec.ttl = r.u32();
  rec.flags = r.u8();
  // An unsigned record has no owner to hold the key against, so it is
  // malformed rather than a second trust mode.
  if (!rec.is_signed()) throw util::ParseError("unsigned DHT record");
  rec.owner.bytes = r.array<32>();
  rec.sig.bytes = r.array<64>();
  const std::uint32_t len = r.u32();
  // `storage` backs exactly the span the reader walks, so the value is a
  // sub-buffer of the carrying packet: zero-copy decode, and the record
  // keeps the packet storage alive for as long as it lives.
  const std::size_t off = storage.size() - r.remaining();
  r.bytes(len);  // bounds check + advance
  rec.value = storage.share(off, len);
  return rec;
}

std::uint8_t Dht::check_ownership(const Key& key, const Record& rec) {
  if (!rec.verify(key)) {
    ++stats_.sig_rejects;
    return kConflict;
  }
  const Stored* inc = live(key);
  if (inc == nullptr) {
    return kOk;  // no live incumbent: first come, first served
  }
  // A live record holds the key: only its owner may touch it.
  if (!(rec.owner == inc->rec.owner)) {
    ++stats_.owner_rejects;
    return kConflict;
  }
  // Replay gate: the signature covers the version, so an attacker cannot
  // restamp a captured record — but they can resend it verbatim.  A
  // same-owner write older than the live copy is such a replay (or a
  // badly stale replica); reject instead of answering kOk while
  // silently keeping the newer record.
  if (rec.version < inc->rec.version) {
    ++stats_.sig_rejects;
    return kConflict;
  }
  return kOk;
}

void Dht::handle_request(const Packet& pkt) {
  Op op;
  Key key;
  util::ByteReader r(pkt.payload());
  try {
    op = static_cast<Op>(r.u8());
    key = Address(r.array<Address::kBytes>());

    switch (op) {
      case Op::kPut: {
        Record rec = decode_record(r, pkt.share_payload());
        const std::uint8_t st = check_ownership(key, rec);
        if (st != kOk) {
          node_.respond(pkt, PacketType::kDhtResponse,
                        std::vector<std::uint8_t>{st});
          return;
        }
        // FCFS on an authoritative miss is correct; FCFS on a YOUNG
        // node's miss hands the key to whoever writes first during the
        // handoff window — exactly the lease/binding hijack the hostile
        // soak probes.  Consult the ex-closest node first: a live record
        // there signed by a DIFFERENT key outranks the newcomer (the
        // create path runs the same consult for the same reason).
        if (live(key) == nullptr && node_.uptime() < kMinOwnerAge) {
          if (const Connection* prev = node_.table().closest_to(key)) {
            accept_unless_held(
                *prev, key, std::move(rec), pkt,
                [](const Record& held, const Record& rec) {
                  return !(held.owner == rec.owner);
                },
                &DhtStats::owner_rejects);
            return;
          }
        }
        accept_write(key, std::move(rec), pkt);
        return;
      }
      case Op::kCreate: {
        Record rec = decode_record(r, pkt.share_payload());
        const std::uint8_t st = check_ownership(key, rec);
        if (st != kOk) {
          ++stats_.create_conflicts;
          node_.respond(pkt, PacketType::kDhtResponse,
                        std::vector<std::uint8_t>{st});
          return;
        }
        // Owner-side uniqueness check: a live record with a different
        // value wins; an expired record or the writer's own value does
        // not block (the latter is how a lease holder renews).
        const Stored* held = live(key);
        if (held != nullptr && !held->rec.same_value(rec)) {
          ++stats_.create_conflicts;
          node_.respond(pkt, PacketType::kDhtResponse,
                        std::vector<std::uint8_t>{kConflict});
          return;
        }
        if (held == nullptr) {
          // A young node's miss is not authoritative: its half-built
          // table may both deliver and consult far from the key's true
          // ring region, and accepting there double-allocates a taken
          // key.  Tell the claimant to back off and re-route once our
          // position has settled.
          if (node_.uptime() < kMinOwnerAge) {
            ++stats_.create_deferrals;
            node_.respond(pkt, PacketType::kDhtResponse,
                          std::vector<std::uint8_t>{kRetry});
            return;
          }
          // Fresh-owner window: under churn we may have just become the
          // closest node for this key without having received the
          // previous owner's handoff, and a blind accept here would mint
          // a duplicate for a key that is already taken one hop away.
          // Consult the next-closest node before accepting.
          if (const Connection* prev = node_.table().closest_to(key)) {
            accept_unless_held(
                *prev, key, std::move(rec), pkt,
                [](const Record& held, const Record& rec) {
                  return !held.same_value(rec);
                },
                &DhtStats::create_conflicts);
            return;
          }
        }
        accept_write(key, std::move(rec), pkt);
        return;
      }
      case Op::kReplica: {
        Record rec = decode_record(r, pkt.share_payload());
        if (check_ownership(key, rec) != kOk) {
          return;  // replicas are fire-and-forget, rejects included
        }
        if (rec.is_release()) {
          // Owner-signed release propagated by the storing node: erase
          // our copy too, so the key frees ring-wide at once.
          if (store_.erase(key) > 0) {
            ++stats_.releases;
            stats_.stored = store_.size();
          }
          return;
        }
        // Anti-entropy push-back: a replica OLDER than our stored copy
        // means its holder is stale (an overwritten binding it never saw
        // rewritten — e.g. a re-leased IP's old owner record).  Push our
        // newer record back at the sender instead of silently dropping
        // theirs; one round-trip heals the stale copy, and the exchange
        // terminates because only the strictly-newer side ever replies.
        if (const Stored* held = live(key);
            held != nullptr && held->rec.version > rec.version &&
            !held->rec.same_value(rec)) {
          node_.send(pkt.src, PacketType::kDhtRequest,
                     util::Buffer::wrap(encode_stored(key, *held)));
          ++stats_.antientropy_pushbacks;
          return;
        }
        // A replica write is the system placing this copy: if we are not
        // the owner, stamp it handed so the next republish tick does not
        // echo it straight back to the owner that just sent it.  handed_to
        // records the believed owner, so its connection loss re-arms the
        // handoff (see the connection-lost observer).
        const Connection* best = node_.table().closest_to(key);
        Stored* s = store_record(key, std::move(rec));
        if (s != nullptr && best != nullptr &&
            Address::closer(key, best->addr, node_.address())) {
          s->handed = true;
          s->handed_to = best->addr;
        }
        return;  // replicas are fire-and-forget
      }
      case Op::kGet:
      case Op::kGetLocal: {
        if (const Stored* held = live(key)) {
          util::ByteWriter w;
          w.u8(kOk);
          encode_record_fields(w, held->rec);
          node_.respond(pkt, PacketType::kDhtResponse, w.take());
          return;
        }
        // A kGet miss: the record may still sit one hop away at the
        // previous owner (we became closest before its handoff reached
        // us).  Consult it and relay a hit; kGetLocal answers from the
        // local store only, so a consult never recurses further.
        const Connection* prev =
            op == Op::kGet ? node_.table().closest_to(key) : nullptr;
        if (prev == nullptr) {
          node_.respond(pkt, PacketType::kDhtResponse,
                        std::vector<std::uint8_t>{kNotFound});
          return;
        }
        consult(*prev, key, [this, req = pkt](std::optional<Packet> hit) {
          if (hit) ++stats_.consult_hits;
          node_.respond(req, PacketType::kDhtResponse,
                        hit ? hit->share_payload()
                            : util::Buffer::wrap({kNotFound}));
        });
        return;
      }
    }
  } catch (const util::ParseError&) {
  }
}

void Dht::consult(const Connection& prev, const Key& key,
                  std::function<void(std::optional<Packet>)> then) {
  ++stats_.consults;
  node_.request(prev.addr, PacketType::kDhtRequest, RoutingMode::kExact,
                encode_lookup(Op::kGetLocal, key),
                [then = std::move(then), alive = alive_.guard()](
                    std::optional<Packet> resp) {
                  if (!alive) return;
                  if (!answered(resp, kOk)) resp.reset();
                  then(std::move(resp));
                });
}

void Dht::accept_unless_held(const Connection& prev, const Key& key,
                             Record rec, const Packet& req,
                             bool (*conflicts)(const Record& held,
                                               const Record& rec),
                             std::uint64_t DhtStats::*rejects) {
  consult(prev, key,
          [this, key, rec = std::move(rec), req, conflicts,
           rejects](std::optional<Packet> hit) mutable {
            if (hit) {
              try {
                util::ByteReader r(hit->payload());
                r.u8();  // status
                if (conflicts(decode_record(r, hit->share_payload()), rec)) {
                  ++stats_.consult_hits;
                  ++(stats_.*rejects);
                  node_.respond(req, PacketType::kDhtResponse,
                                std::vector<std::uint8_t>{kConflict});
                  return;
                }
              } catch (const util::ParseError&) {
              }
            }
            accept_write(key, std::move(rec), req);
          });
}

void Dht::accept_write(const Key& key, Record rec, const Packet& req) {
  if (rec.is_release()) {
    // check_ownership already proved the signer owns the record (or the
    // key is free): erase, propagate to the replica holders, done.
    if (store_.erase(key) > 0) {
      ++stats_.releases;
      stats_.stored = store_.size();
    }
    replicate(key, rec);
    node_.respond(req, PacketType::kDhtResponse,
                  std::vector<std::uint8_t>{kOk});
    return;
  }
  store_record(key, rec);
  replicate(key, rec);
  node_.respond(req, PacketType::kDhtResponse,
                std::vector<std::uint8_t>{kOk});
}

std::vector<std::uint8_t> Dht::encode_lookup(Op op, const Key& key) {
  util::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(op));
  w.bytes(std::span<const std::uint8_t>(key.bytes().data(), Address::kBytes));
  return w.take();
}

std::vector<std::uint8_t> Dht::encode_record(Op op, const Key& key,
                                             const Record& rec) {
  util::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(op));
  w.bytes(std::span<const std::uint8_t>(key.bytes().data(), Address::kBytes));
  encode_record_fields(w, rec);
  return w.take();
}

void Dht::replicate(const Key& key, const Record& rec) {
  // Replicate to ring neighbors: the replica record is serialized once
  // and the fan-out shares that one buffer — each replica packet prepends
  // its own header segment.  The replicas are our own connections, so
  // each leaves over its own edge.
  std::vector<Address> replicas;
  replicas.reserve(cfg_.replicas + 1);
  node_.table().for_each_right(
      cfg_.replicas, [&](const Connection& c) { replicas.push_back(c.addr); });
  // One counter-clockwise guard copy: when the owner crashes, ownership
  // moves to whichever side of the key is next-closest — if that is the
  // left neighbor, a clockwise-only replica set leaves the new owner
  // (and its consult target) without a copy during the repair window.
  if (const Connection* left = node_.table().left_neighbor()) {
    if (std::find(replicas.begin(), replicas.end(), left->addr) ==
        replicas.end()) {
      replicas.push_back(left->addr);
    }
  }
  node_.send_fanout(
      replicas, PacketType::kDhtRequest,
      util::Buffer::wrap(encode_record(Op::kReplica, key, rec)));
}

const Dht::Stored* Dht::live(const Key& key) const {
  auto it = store_.find(key);
  if (it == store_.end() || it->second.expires < node_.host().loop().now()) {
    return nullptr;
  }
  return &it->second;
}

bool Dht::owns(const Key& key) const {
  const Connection* best = node_.table().closest_to(key);
  return best == nullptr ||
         !Address::closer(key, best->addr, node_.address());
}

void Dht::schedule_rereplication() {
  if (rereplicate_timer_ != 0) return;
  rereplicate_timer_ = node_.host().loop().schedule_after(
      kRereplicateDelay, [this] {
        rereplicate_timer_ = 0;
        rereplicate_owned();
      });
}

void Dht::rereplicate_owned() {
  const auto now = node_.host().loop().now();
  for (const auto& [key, s] : store_) {
    if (s.expires < now || !owns(key)) continue;
    replicate(key, s.rec);
    ++stats_.rereplications;
  }
}

void Dht::handoff_all() {
  // Departing: push every record out before our edges go down; the
  // receiver absorbs each as a plain replica write.  Records we own go
  // kExact to the connection closest to the key — that node inherits the
  // key once we leave, and kClosest would loop back to us (we *are* the
  // closest while still in the ring).  Copies we don't own are routed
  // kClosest to the key itself, landing at the true owner instead of at
  // whichever connection is locally closest (which would store the copy
  // and have to relay it again next tick).
  for (const auto& [key, s] : store_) {
    const Connection* best = node_.table().closest_to(key);
    if (best == nullptr) continue;
    if (!Address::closer(key, best->addr, node_.address())) {
      node_.send(best->addr, PacketType::kDhtRequest,
                 util::Buffer::wrap(encode_stored(key, s)));
    } else {
      node_.send(key, PacketType::kDhtRequest,
                 util::Buffer::wrap(encode_stored(key, s)),
                 RoutingMode::kClosest);
    }
    ++stats_.handoffs;
  }
}

Dht::Stored* Dht::store_record(const Key& key, Record rec) {
  const auto now = node_.host().loop().now();
  auto it = store_.find(key);
  if (it != store_.end() && it->second.rec.version > rec.version &&
      it->second.expires >= now) {
    return nullptr;  // stale write: keep the newer live record
  }
  Stored s;
  s.expires = now + (rec.ttl != 0 ? util::seconds(rec.ttl) : cfg_.record_ttl);
  s.rec = std::move(rec);
  auto& slot = store_[key];
  slot = std::move(s);
  stats_.stored = store_.size();
  return &slot;
}

void Dht::republish_tick() {
  const auto now = node_.host().loop().now();
  // Expire dead records.
  std::erase_if(store_, [&](const auto& kv) { return kv.second.expires < now; });
  stats_.stored = store_.size();
  // Hand off records whose key is now closer to a connected neighbor than
  // to us (ring membership changed underneath the data).  The copy is
  // routed kClosest to the *key*, so it lands at the true owner in one
  // logical transfer — sending kExact one greedy hop at a time would make
  // every relay node store the record, and those stale relay copies (alive
  // for record_ttl) re-hand themselves on every table change; at 10^3
  // nodes under churn that snowballed into ~5000 handoffs per sim-second.
  // Each copy is forwarded once: the handed stamp suppresses re-sends even
  // when the locally-closest connection flaps, and is cleared when the
  // believed owner's connection drops or the record is rewritten.
  for (auto& [key, s] : store_) {
    if (s.handed) continue;
    const Connection* best = node_.table().closest_to(key);
    if (best == nullptr || !Address::closer(key, best->addr, node_.address())) {
      continue;
    }
    node_.send(key, PacketType::kDhtRequest,
               util::Buffer::wrap(encode_stored(key, s)),
               RoutingMode::kClosest);
    s.handed = true;
    s.handed_to = best->addr;
    ++stats_.handoffs;
  }
  republish_timer_ = node_.host().loop().schedule_after(
      kRepublishInterval, [this] { republish_tick(); });
}

}  // namespace ipop::brunet
