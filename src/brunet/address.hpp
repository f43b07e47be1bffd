// 160-bit structured-overlay addresses with ring arithmetic.
//
// Brunet organizes nodes on a ring over the 160-bit address space; IPOP
// assigns each node the SHA-1 hash of its virtual IP (paper Section III-B),
// which is why the address width is exactly SHA-1's digest size.  Greedy
// routing, neighbor selection and DHT ownership all reduce to the modular
// distance operations defined here.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <cstring>
#include <string>

#include "net/ipv4.hpp"
#include "util/crypto.hpp"
#include "util/random.hpp"
#include "util/sha1.hpp"

namespace ipop::brunet {

class Address {
 public:
  static constexpr std::size_t kBytes = 20;
  using Bytes = std::array<std::uint8_t, kBytes>;

  Address() = default;
  explicit Address(const Bytes& b) : bytes_(b) {}

  /// SHA-1 of the 4-byte big-endian IPv4 address (the IPOP mapping).
  static Address from_ip(net::Ipv4Address ip);
  /// SHA-1 of an arbitrary string (DHT keys, test fixtures).
  static Address hash(std::string_view data);
  /// SHA-1 over a domain-separated encoding of an Ed25519 public key.
  /// Key-derived addresses make overlay identity cryptographic: only the
  /// holder of the matching private key can sign for this ring position.
  static Address from_public_key(const util::crypto::PublicKey& pk);
  static Address random(util::Rng& rng);

  const Bytes& bytes() const { return bytes_; }
  std::string to_hex() const;
  /// First 8 hex chars, for logs.
  std::string short_hex() const { return to_hex().substr(0, 8); }

  /// Ring distance: min(|a-b|, 2^160 - |a-b|).
  static Bytes ring_distance(const Address& a, const Address& b);
  /// Clockwise (increasing-address) distance from a to b: (b - a) mod 2^160.
  static Bytes directed_distance(const Address& a, const Address& b);

  /// True if `x` is closer to `target` on the ring than `y` is.
  static bool closer(const Address& target, const Address& x,
                     const Address& y);

  /// Address at (this + 2^bit) mod 2^160; used to aim Kleinberg shortcuts.
  Address offset_by_pow2(int bit) const;
  /// Address at (this + delta) for an arbitrary 160-bit delta.
  Address offset_by(const Bytes& delta) const;

  friend bool operator==(const Address&, const Address&) = default;
  friend std::strong_ordering operator<=>(const Address& a, const Address& b) {
    return std::memcmp(a.bytes_.data(), b.bytes_.data(), kBytes) <=> 0;
  }

 private:
  Bytes bytes_{};
};

/// Compare two 160-bit magnitudes: -1, 0 or 1.
int compare_bytes(const Address::Bytes& a, const Address::Bytes& b);

}  // namespace ipop::brunet

template <>
struct std::hash<ipop::brunet::Address> {
  std::size_t operator()(const ipop::brunet::Address& a) const noexcept {
    std::size_t h = 1469598103934665603ull;
    for (auto b : a.bytes()) {
      h ^= b;
      h *= 1099511628211ull;
    }
    return h;
  }
};
