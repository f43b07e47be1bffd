#include "brunet/address.hpp"

#include <bit>
#include <cstring>

#include "util/bytes.hpp"

namespace ipop::brunet {

namespace {

// The 160-bit ring value as three big-endian words: bytes [0, 8) are the
// most significant, then [8, 16), then the low 32 bits in [16, 20).
// Member-wise comparison in declaration order is numeric order.
struct Words {
  std::uint64_t hi;
  std::uint64_t mid;
  std::uint32_t lo;
  friend auto operator<=>(const Words&, const Words&) = default;
};

// Big-endian word <-> host order (the same swap both ways).
std::uint64_t swap_be(std::uint64_t v) {
  return std::endian::native == std::endian::little ? __builtin_bswap64(v) : v;
}
std::uint32_t swap_be(std::uint32_t v) {
  return std::endian::native == std::endian::little ? __builtin_bswap32(v) : v;
}

Words load(const Address::Bytes& b) {
  Words w{};
  std::memcpy(&w.hi, b.data(), 8);
  std::memcpy(&w.mid, b.data() + 8, 8);
  std::memcpy(&w.lo, b.data() + 16, 4);
  return {swap_be(w.hi), swap_be(w.mid), swap_be(w.lo)};
}

Address::Bytes store(const Words& w) {
  const Words be{swap_be(w.hi), swap_be(w.mid), swap_be(w.lo)};
  Address::Bytes out{};
  std::memcpy(out.data(), &be.hi, 8);
  std::memcpy(out.data() + 8, &be.mid, 8);
  std::memcpy(out.data() + 16, &be.lo, 4);
  return out;
}

/// x - y (mod 2^160): the borrow out of the top word wraps.
Words sub(const Words& x, const Words& y) {
  Words d;
  d.lo = x.lo - y.lo;
  const std::uint64_t borrow_lo = x.lo < y.lo ? 1 : 0;
  d.mid = x.mid - y.mid - borrow_lo;
  const std::uint64_t borrow_mid =
      (x.mid < y.mid || (x.mid == y.mid && borrow_lo != 0)) ? 1 : 0;
  d.hi = x.hi - y.hi - borrow_mid;
  return d;
}

/// x + y (mod 2^160): the carry out of the top word is dropped.
Words add(const Words& x, const Words& y) {
  Words s;
  s.lo = x.lo + y.lo;
  const std::uint64_t carry_lo = s.lo < x.lo ? 1 : 0;
  s.mid = x.mid + y.mid + carry_lo;
  const std::uint64_t carry_mid =
      (s.mid < x.mid || (s.mid == x.mid && carry_lo != 0)) ? 1 : 0;
  s.hi = x.hi + y.hi + carry_mid;
  return s;
}

/// min(|x - y|, 2^160 - |x - y|).
Words ring(const Words& x, const Words& y) {
  const Words d1 = sub(y, x);
  const Words d2 = sub(x, y);
  return d1 <= d2 ? d1 : d2;
}

}  // namespace

int compare_bytes(const Address::Bytes& a, const Address::Bytes& b) {
  // Big-endian magnitudes order exactly as their bytes do.
  const int c = std::memcmp(a.data(), b.data(), Address::kBytes);
  return (c > 0) - (c < 0);
}

Address Address::from_ip(net::Ipv4Address ip) {
  std::array<std::uint8_t, 4> raw{
      static_cast<std::uint8_t>(ip.value >> 24),
      static_cast<std::uint8_t>(ip.value >> 16),
      static_cast<std::uint8_t>(ip.value >> 8),
      static_cast<std::uint8_t>(ip.value)};
  return Address(util::sha1(std::span<const std::uint8_t>(raw.data(), 4)));
}

Address Address::hash(std::string_view data) {
  return Address(util::sha1(data));
}

Address Address::from_public_key(const util::crypto::PublicKey& pk) {
  util::Sha1 ctx;
  ctx.update(std::string_view("ipop-key:"));
  ctx.update(std::span<const std::uint8_t>(pk.bytes));
  return Address(ctx.finish());
}

Address Address::random(util::Rng& rng) {
  Bytes b;
  for (auto& byte : b) byte = static_cast<std::uint8_t>(rng() & 0xFF);
  return Address(b);
}

std::string Address::to_hex() const {
  return util::to_hex(std::span<const std::uint8_t>(bytes_.data(), kBytes));
}

Address::Bytes Address::directed_distance(const Address& a, const Address& b) {
  return store(sub(load(b.bytes_), load(a.bytes_)));
}

Address::Bytes Address::ring_distance(const Address& a, const Address& b) {
  return store(ring(load(a.bytes_), load(b.bytes_)));
}

bool Address::closer(const Address& target, const Address& x,
                     const Address& y) {
  const Words t = load(target.bytes_);
  return ring(t, load(x.bytes_)) < ring(t, load(y.bytes_));
}

Address Address::offset_by_pow2(int bit) const {
  Bytes delta{};
  const int byte_index = kBytes - 1 - bit / 8;
  if (byte_index >= 0) {
    delta[byte_index] = static_cast<std::uint8_t>(1u << (bit % 8));
  }
  return offset_by(delta);
}

Address Address::offset_by(const Bytes& delta) const {
  return Address(store(add(load(bytes_), load(delta))));
}

}  // namespace ipop::brunet
