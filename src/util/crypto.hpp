// Self-contained crypto primitives for the authenticated overlay.
//
// Three building blocks, no external dependencies:
//
//   - Sha512: FIPS 180-4 SHA-512, incremental like util::Sha1.  Used for
//     signature hashing, shared-key derivation, and the payload keystream.
//   - Ed25519 signatures (KeyPair / verify): compact curve25519 field and
//     Edwards point arithmetic in the TweetNaCl tradition (radix-2^16
//     limbs, branch-free conditional swaps).  Interoperable with RFC 8032
//     — the unit tests pin the RFC test vectors.
//   - A keyed stream cipher (stream_xor): SHA-512 in counter mode over
//     (key, nonce, block index), XORed in place.  Paired with shared_key()
//     — an Edwards Diffie-Hellman over the same keypairs — this encrypts
//     tunneled payloads end to end without a second key hierarchy.
//
// Determinism rule: key generation takes an explicit util::Rng (the
// seeded sim generator) or literal injected seed bytes.  Nothing in this
// file reads ambient entropy; the lint keygen-entropy rule enforces the
// same discipline on callers.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string_view>

#include "util/random.hpp"

namespace ipop::util::crypto {

using Sha512Digest = std::array<std::uint8_t, 64>;

/// Incremental SHA-512 context (update in chunks, then finish).
class Sha512 {
 public:
  Sha512() { reset(); }

  void reset();
  void update(std::span<const std::uint8_t> data);
  /// Finalizes and returns the digest; reset() before reuse.
  Sha512Digest finish();

 private:
  void process_block(const std::uint8_t* block);

  std::array<std::uint64_t, 8> h_{};
  std::array<std::uint8_t, 128> buffer_{};
  std::size_t buffered_ = 0;
  std::uint64_t total_bytes_ = 0;
};

/// One-shot convenience.
Sha512Digest sha512(std::span<const std::uint8_t> data);

/// 32-byte compressed Edwards point identifying a node.
struct PublicKey {
  std::array<std::uint8_t, 32> bytes{};

  bool operator==(const PublicKey&) const = default;
};

/// 64-byte Ed25519 signature (R || S).
struct Signature {
  std::array<std::uint8_t, 64> bytes{};

  bool operator==(const Signature&) const = default;
};

/// Symmetric key for stream_xor, usually from shared_key().
using SymmetricKey = std::array<std::uint8_t, 32>;

/// Ed25519 keypair.  The 32-byte seed is the only secret state; scalar
/// and prefix are cached derivations (RFC 8032 section 5.1.5).
class KeyPair {
 public:
  KeyPair() = default;

  /// Deterministic keypair from 32 injected seed bytes.
  static KeyPair from_seed(std::span<const std::uint8_t> seed);
  /// Deterministic keypair drawn from the seeded sim generator — the
  /// only sanctioned entropy source for in-sim key generation.
  static KeyPair generate(Rng& rng);

  const PublicKey& public_key() const { return public_; }
  bool valid() const { return valid_; }

  /// Detached signature over `msg`.
  Signature sign(std::span<const std::uint8_t> msg) const;

  /// Edwards Diffie-Hellman: SHA-512 of the shared point, truncated to
  /// 32 bytes.  Symmetric: a.shared_key(B.pub) == b.shared_key(A.pub).
  SymmetricKey shared_key(const PublicKey& peer) const;

 private:
  std::array<std::uint8_t, 32> scalar_{};  // clamped secret scalar
  std::array<std::uint8_t, 32> prefix_{};  // nonce-derivation prefix
  PublicKey public_{};
  bool valid_ = false;
};

/// Verifies a detached signature; false on malformed key or mismatch.
bool verify(const PublicKey& pk, std::span<const std::uint8_t> msg,
            const Signature& sig);

/// XORs `data` in place with the keystream for (key, nonce).  Encryption
/// and decryption are the same operation.  Callers must hold the buffer
/// exclusively (buffer-ownership rule 7); this function only sees the
/// raw span and cannot check that.
void stream_xor(std::span<std::uint8_t> data, const SymmetricKey& key,
                std::uint64_t nonce);

}  // namespace ipop::util::crypto
