// DHT over the structured overlay (closest-node storage + replication).
//
// The paper's Section III-E ("Brunet-ARP") needs exactly this: the
// IP-to-node binding for virtual IP D is stored at the node whose address
// is closest to SHA1(D) — the "Brunet-ARP-Mapper".  Values are replicated
// to ring neighbors and handed off when ring membership shifts, the
// standard DHT remedies the paper cites from the Chord/Tapestry/CAN
// literature.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "brunet/node.hpp"
#include "util/lifetime.hpp"

namespace ipop::brunet {

struct DhtConfig {
  /// Copies kept on ring neighbors in addition to the owner.
  std::size_t replicas = 2;
  /// Records expire unless refreshed (mobility updates refresh them).
  Duration record_ttl = util::seconds(600);
};

/// One typed DHT record.  `value` is a util::Buffer, so owner-side reads
/// and replica decodes share the carrying packet's storage instead of
/// copying; the version stamp orders writes, the TTL bounds the record's
/// life, and every record carries the writer's public key + signature
/// over (key || version || ttl || flags || value).  A record on the wire
/// without kSigned is malformed.
///
/// Ownership model (netsukuku ANDNA first-come-first-served): the storing
/// node verifies the signature, and while a *live* record holds a key,
/// only a record signed by the same owner may replace it — a put,
/// create or replica from anyone else is rejected at the storing node, so
/// lease/binding hijacks die where the record lives, not at the honest
/// reader.  An owner-signed record with an empty value is a release: it
/// erases the record, freeing the key immediately (migration/departure).
struct Record {
  /// flags bit: owner + sig fields are present and must verify (set on
  /// every record Dht writes; decoding rejects a record without it).
  static constexpr std::uint8_t kSigned = 1;
  /// flags bit: the value's first kBytes claim an overlay address, and
  /// the storing node requires that address to derive from `owner` — a
  /// key-addressed node can only bind leases and ARP entries to itself.
  static constexpr std::uint8_t kKeyBound = 2;

  util::Buffer value;
  std::uint64_t version = 0;  // writer-supplied monotonic stamp
  /// Lifetime in seconds; 0 = the storing node's configured default.
  std::uint32_t ttl = 0;
  std::uint8_t flags = 0;
  util::crypto::PublicKey owner{};
  util::crypto::Signature sig{};

  bool is_signed() const { return (flags & kSigned) != 0; }
  bool key_bound() const { return (flags & kKeyBound) != 0; }
  bool is_release() const { return is_signed() && value.empty(); }

  /// The byte string the signature covers.  Includes the version so a
  /// stale record cannot be replayed with its old signature, and the
  /// flags so a verifier cannot be tricked into skipping kKeyBound.
  std::vector<std::uint8_t> signed_bytes(const Address& key) const;
  /// Sign in place with `keys` (sets owner, kSigned, then sig).
  void sign(const Address& key, const util::crypto::KeyPair& keys);
  /// Storing-node check: signature present and valid, and (for kKeyBound
  /// records with a value) the claimed address derives from the owner.
  bool verify(const Address& key) const;
  /// Same stored bytes (the create-renewal identity check).
  bool same_value(const Record& other) const {
    const auto a = value.as_span();
    const auto b = other.value.as_span();
    return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
  }
};

struct DhtStats {
  std::uint64_t puts = 0;
  std::uint64_t gets = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t stored = 0;
  std::uint64_t handoffs = 0;
  std::uint64_t creates = 0;
  /// Second-chance lookups issued after a miss/timeout under churn.
  std::uint64_t get_retries = 0;
  /// Per-attempt failure taxonomy (counts every attempt, not just final
  /// outcomes): the request timed out in flight vs. a node answered
  /// kNotFound (routing delivered somewhere without the record).
  std::uint64_t get_timeouts = 0;
  std::uint64_t get_notfound = 0;
  /// Owner-side create() rejections: a live record with a different value
  /// already held the key.
  std::uint64_t create_conflicts = 0;
  /// Records pushed back out to ring neighbors after a connection loss
  /// left them under-replicated.
  std::uint64_t rereplications = 0;
  /// Owner-side consult-on-miss fallbacks: a get/create arrived for a key
  /// we hold no record for, so we asked the next-closest node (likely the
  /// previous owner, pre-handoff) before answering.  consult_hits counts
  /// the ones where that node did hold the record.
  std::uint64_t consults = 0;
  std::uint64_t consult_hits = 0;
  /// Creates answered kRetry because this node was too young to trust its
  /// own miss (see Dht::kMinOwnerAge).
  std::uint64_t create_deferrals = 0;
  /// Incoming replicas older than our stored copy, answered by pushing
  /// the newer record back at the stale holder (read repair on the
  /// replication plane).
  std::uint64_t antientropy_pushbacks = 0;
  /// Writes rejected at the storing node because their signature (or
  /// kKeyBound address claim) failed to verify.
  std::uint64_t sig_rejects = 0;
  /// Writes rejected at the storing node because a live record holds the
  /// key and the write was signed by a different key (the
  /// attempted-hijack counter the hostile soak gates on).
  std::uint64_t owner_rejects = 0;
  /// Owner-signed empty-value writes that erased a record (release).
  std::uint64_t releases = 0;
};

class Dht {
 public:
  using Key = Address;
  using PutCallback = std::function<void(bool ok)>;
  using GetCallback = std::function<void(std::optional<Record>)>;

  /// A node younger than this must not mint records for keys it holds no
  /// copy of: its table may deliver/consult far from the key's true ring
  /// region, and a blind accept there double-allocates a taken key.  It
  /// answers kRetry instead, and create() backs off and retries.
  static constexpr Duration kMinOwnerAge = util::seconds(5);

  /// Throws std::invalid_argument when `node` carries no identity: every
  /// record this Dht writes is signed with the node's keys.
  Dht(BrunetNode& node, DhtConfig cfg = {});
  ~Dht();

  /// Store a record at the node closest to `key` (plus replicas).  The
  /// Dht stamps the version and signs the record before it leaves, so
  /// every subsystem writing through here gets ownership protection
  /// without touching crypto.
  /// Caller-set kKeyBound is preserved (only set it on values whose
  /// first 20 bytes claim this node's key-derived address).
  void put(const Key& key, Record rec, PutCallback cb);
  void put(const Key& key, std::vector<std::uint8_t> value, PutCallback cb) {
    put(key, Record{util::Buffer::wrap(std::move(value))}, std::move(cb));
  }
  /// Atomic create-if-absent: succeeds only when no live record holds the
  /// key, or the existing record already carries exactly this value (so
  /// the writer can renew its own claim with the same call — the refresh
  /// pushes the expiry out and re-replicates).  The uniqueness check runs
  /// on the owner, making this the allocation primitive DHCP-over-DHT
  /// leases are built on; accepted creates replicate like put().
  void create(const Key& key, Record rec, PutCallback cb);
  void create(const Key& key, std::vector<std::uint8_t> value,
              PutCallback cb) {
    create(key, Record{util::Buffer::wrap(std::move(value))}, std::move(cb));
  }
  /// Fetch the freshest record for `key` from its owner.  The returned
  /// Record's value shares the response packet's storage (zero-copy); it
  /// carries the owner's public key, which is how resolvers learn the
  /// encryption key of the node behind a lease or ARP binding.
  void get(const Key& key, GetCallback cb);
  /// Release `key` (owner-signed empty-value put): erases the record at
  /// the storing node, freeing the key immediately instead of waiting
  /// out the TTL.
  void release(const Key& key, PutCallback cb);

  /// Number of records this node currently stores.
  std::size_t local_records() const { return store_.size(); }
  const DhtStats& stats() const { return stats_; }

 private:
  /// A Record at rest on the storing node, plus local bookkeeping that
  /// never crosses the wire.
  struct Stored {
    Record rec;
    TimePoint expires{};
    /// Ring-shift handoff bookkeeping: the owner this copy was already
    /// forwarded to.  Without it every replica re-sends every record to
    /// the owner on every republish tick — at 64 nodes that snowballs
    /// into hundreds of redundant handoffs per second.
    Address handed_to{};
    bool handed = false;
  };

  enum class Op : std::uint8_t { kPut = 0, kGet = 1, kReplica = 2,
                                 kCreate = 3,
                                 // Strictly-local lookup, used by the
                                 // consult-on-miss fallback so it can
                                 // never recurse past one hop.
                                 kGetLocal = 4 };

  /// Version stamp for an outgoing write: clock-derived so stamps order
  /// writes *across* writers (see the definition for why writer-local
  /// counters poison anti-entropy), strictly monotonic per writer.
  std::uint64_t write_stamp();
  /// Stamp the version and sign: the one spot every outgoing
  /// put/create/release funnels through.
  void finalize_outgoing(const Key& key, Record& rec);
  void handle_request(const Packet& pkt);
  void get_attempt(const Key& key, int retries_left, GetCallback cb);
  void create_attempt(const Key& key, Record rec, int retries_left,
                      PutCallback cb);
  /// Ownership gate for every incoming write (put/create/replica): a
  /// bad signature rejects outright, and a live record only yields to the
  /// same owner.  Returns the status byte to answer with
  /// (kOk = accept).
  std::uint8_t check_ownership(const Key& key, const Record& rec);
  /// Accept a put/create: stamp expiry, dominate the stored version,
  /// store, replicate, and answer kOk to the original requester.
  void accept_write(const Key& key, Record rec, const Packet& req);
  /// Consult-on-miss: ask `prev` (the connection closest to `key`, most
  /// likely its previous owner, pre-handoff) for its local copy.  `then`
  /// gets the kOk reply, or nullopt on a miss or timeout.
  void consult(const Connection& prev, const Key& key,
               std::function<void(std::optional<Packet>)> then);
  /// The write side of a consult: answer `req` with kConflict (bumping
  /// `rejects`) when the consulted copy `conflicts` with `rec`, else
  /// accept_write it.
  void accept_unless_held(const Connection& prev, const Key& key, Record rec,
                          const Packet& req,
                          bool (*conflicts)(const Record& held,
                                            const Record& rec),
                          std::uint64_t DhtStats::*rejects);
  /// The full record wire image behind an op byte (shared by put/create
  /// requests, replication fan-out, ring-shift and departure handoff).
  std::vector<std::uint8_t> encode_record(Op op, const Key& key,
                                          const Record& rec);
  /// Op byte + key: the kGet / kGetLocal request.
  static std::vector<std::uint8_t> encode_lookup(Op op, const Key& key);
  /// Decode the record fields of a kPut/kCreate/kReplica payload; the
  /// value Buffer shares `storage` (the carrying packet's bytes).  Throws
  /// util::ParseError on a truncated or unsigned record.
  static Record decode_record(util::ByteReader& r, const util::Buffer& storage);
  /// Store (last-writer-wins on version among live records); returns the
  /// stored slot, or nullptr when a newer live record won.
  Stored* store_record(const Key& key, Record rec);
  void republish_tick();
  /// Serialize `rec` once and fan the kReplica out to the ring neighbors
  /// (one shared payload buffer).
  void replicate(const Key& key, const Record& rec);
  /// Handoff/pushback wire image for a stored copy.
  std::vector<std::uint8_t> encode_stored(const Key& key, const Stored& s) {
    return encode_record(Op::kReplica, key, s.rec);
  }
  /// A connection died: schedule one coalesced re-replication pass.
  void schedule_rereplication();
  void rereplicate_owned();
  /// Graceful-departure hook: hand every stored record to the connected
  /// node now closest to its key, before our edges go down.
  void handoff_all();
  bool owns(const Key& key) const;
  /// The unexpired stored copy of `key`, or nullptr.
  const Stored* live(const Key& key) const;

  BrunetNode& node_;
  DhtConfig cfg_;
  DhtStats stats_;
  std::map<Key, Stored> store_;
  std::uint64_t version_counter_ = 1;
  std::uint64_t republish_timer_ = 0;
  std::uint64_t rereplicate_timer_ = 0;
  /// Guards the observer lambdas registered with the node (the node may
  /// outlive this Dht) and the request callbacks; declared last so it
  /// expires before the members they touch.
  util::AliveToken alive_;
};

}  // namespace ipop::brunet
