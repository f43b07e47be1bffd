// FrameSealer: end-to-end payload encryption + sender authentication for
// tunneled IP packets, with per-hop routing headers left in the clear.
//
// Frame layout (the serval overlay idiom — encrypt the payload once at
// the source, let every relay patch its small cleartext header in place):
//
//   | Brunet header (clear, per-hop) | seal header (clear) | ciphertext |
//   seal header = flags(1) | sender_pubkey(32) | nonce(8) | signature(64)
//
// The payload is encrypted in place on the uniquely-owned capture buffer
// (stream cipher keyed by the Diffie-Hellman shared secret of the two
// endpoint identities), signed by the sender's Ed25519 key over
// (flags || nonce || destination address || ciphertext), and the seal
// header is prepended into the buffer's existing headroom — the secured
// hot path moves zero payload bytes, and Stats::payload_bytes_copied
// proves it (the bench gate pins the counter at 0).
//
// The signature binds the ciphertext to the destination address, so a
// captured frame cannot be redirected at another node; the nonce makes
// every (sender, payload) pair produce a distinct keystream.  Replay
// suppression is a deliberate non-goal (see README "Security model"):
// a replayed tunnel frame is a duplicate IP packet, which the virtual
// network's transports already tolerate.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>

#include "brunet/address.hpp"
#include "util/buffer.hpp"
#include "util/crypto.hpp"

namespace ipop::brunet {

class FrameSealer {
 public:
  /// Seal header bytes prepended in front of the ciphertext.
  static constexpr std::size_t kHeaderSize = 1 + 32 + 8 + 64;
  /// flags value of a sealed frame.  Collision-free with cleartext
  /// tunneled IPv4, whose first byte (version|IHL) is >= 0x45, so open()
  /// rejects a cleartext frame before any signature check.
  static constexpr std::uint8_t kSealedV1 = 0x01;

  struct Stats {
    std::uint64_t sealed = 0;
    std::uint64_t opened = 0;
    /// Frames dropped at open(): bad signature, wrong destination,
    /// truncated header, or unknown flags.
    std::uint64_t rejected = 0;
    /// Payload bytes copied while sealing (headroom shortfall or shared
    /// storage forced a reallocation).  The zero-copy invariant the
    /// bench gate pins: stays 0 while capture buffers arrive uniquely
    /// owned with the per-path headroom budget intact.
    std::uint64_t payload_bytes_copied = 0;
    /// Diffie-Hellman key agreements performed (cache misses); the
    /// steady-state per-packet cost excludes them.
    std::uint64_t key_agreements = 0;
  };

  explicit FrameSealer(const util::crypto::KeyPair& keys) : keys_(keys) {}

  /// Encrypt `payload` in place for `peer`, sign, and prepend the seal
  /// header.  `dst` is the overlay destination the signature binds the
  /// frame to; `realloc_headroom` is the sender's per-path headroom
  /// budget, used only if a (counted) reallocation is forced.
  util::Buffer seal(util::Buffer payload, const util::crypto::PublicKey& peer,
                    const Address& dst, std::size_t realloc_headroom);

  /// Verify + decrypt a sealed frame in place; `dst` must match what the
  /// sender signed (the local node's address).  Returns the plaintext
  /// sub-buffer (sharing the frame's storage) or nullopt on any failure.
  /// The caller owns `frame` exclusively per buffer-ownership rule 7.
  std::optional<util::Buffer> open(util::Buffer frame, const Address& dst);

  const Stats& stats() const { return stats_; }
  const util::crypto::PublicKey& public_key() const {
    return keys_.public_key();
  }

 private:
  /// DH shared key with `peer`, cached (one agreement per peer pair).
  const util::crypto::SymmetricKey& shared_with(
      const util::crypto::PublicKey& peer);
  /// The byte string the frame signature covers.
  static std::vector<std::uint8_t> signed_bytes(
      std::uint8_t flags, std::uint64_t nonce, const Address& dst,
      std::span<const std::uint8_t> ciphertext);

  util::crypto::KeyPair keys_;
  std::map<std::array<std::uint8_t, 32>, util::crypto::SymmetricKey> dh_cache_;
  std::uint64_t nonce_counter_ = 1;
  Stats stats_;
};

}  // namespace ipop::brunet
