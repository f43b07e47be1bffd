#include "util/crypto.hpp"

#include <cstring>

namespace ipop::util::crypto {

// ---------------------------------------------------------------------------
// SHA-512 (FIPS 180-4)

namespace {

// Round constants: fractional parts of the cube roots of the first 80
// primes, as 64-bit words.
constexpr std::uint64_t kSha512K[80] = {
    0x428a2f98d728ae22ull, 0x7137449123ef65cdull, 0xb5c0fbcfec4d3b2full,
    0xe9b5dba58189dbbcull, 0x3956c25bf348b538ull, 0x59f111f1b605d019ull,
    0x923f82a4af194f9bull, 0xab1c5ed5da6d8118ull, 0xd807aa98a3030242ull,
    0x12835b0145706fbeull, 0x243185be4ee4b28cull, 0x550c7dc3d5ffb4e2ull,
    0x72be5d74f27b896full, 0x80deb1fe3b1696b1ull, 0x9bdc06a725c71235ull,
    0xc19bf174cf692694ull, 0xe49b69c19ef14ad2ull, 0xefbe4786384f25e3ull,
    0x0fc19dc68b8cd5b5ull, 0x240ca1cc77ac9c65ull, 0x2de92c6f592b0275ull,
    0x4a7484aa6ea6e483ull, 0x5cb0a9dcbd41fbd4ull, 0x76f988da831153b5ull,
    0x983e5152ee66dfabull, 0xa831c66d2db43210ull, 0xb00327c898fb213full,
    0xbf597fc7beef0ee4ull, 0xc6e00bf33da88fc2ull, 0xd5a79147930aa725ull,
    0x06ca6351e003826full, 0x142929670a0e6e70ull, 0x27b70a8546d22ffcull,
    0x2e1b21385c26c926ull, 0x4d2c6dfc5ac42aedull, 0x53380d139d95b3dfull,
    0x650a73548baf63deull, 0x766a0abb3c77b2a8ull, 0x81c2c92e47edaee6ull,
    0x92722c851482353bull, 0xa2bfe8a14cf10364ull, 0xa81a664bbc423001ull,
    0xc24b8b70d0f89791ull, 0xc76c51a30654be30ull, 0xd192e819d6ef5218ull,
    0xd69906245565a910ull, 0xf40e35855771202aull, 0x106aa07032bbd1b8ull,
    0x19a4c116b8d2d0c8ull, 0x1e376c085141ab53ull, 0x2748774cdf8eeb99ull,
    0x34b0bcb5e19b48a8ull, 0x391c0cb3c5c95a63ull, 0x4ed8aa4ae3418acbull,
    0x5b9cca4f7763e373ull, 0x682e6ff3d6b2b8a3ull, 0x748f82ee5defb2fcull,
    0x78a5636f43172f60ull, 0x84c87814a1f0ab72ull, 0x8cc702081a6439ecull,
    0x90befffa23631e28ull, 0xa4506cebde82bde9ull, 0xbef9a3f7b2c67915ull,
    0xc67178f2e372532bull, 0xca273eceea26619cull, 0xd186b8c721c0c207ull,
    0xeada7dd6cde0eb1eull, 0xf57d4f7fee6ed178ull, 0x06f067aa72176fbaull,
    0x0a637dc5a2c898a6ull, 0x113f9804bef90daeull, 0x1b710b35131c471bull,
    0x28db77f523047d84ull, 0x32caab7b40c72493ull, 0x3c9ebe0a15c9bebcull,
    0x431d67c49c100d4cull, 0x4cc5d4becb3e42b6ull, 0x597f299cfc657e2aull,
    0x5fcb6fab3ad6faecull, 0x6c44198c4a475817ull};

constexpr std::uint64_t rotr64(std::uint64_t x, int n) {
  return (x >> n) | (x << (64 - n));
}

std::uint64_t load_be64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | p[i];
  return v;
}

void store_be64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 7; i >= 0; --i) {
    p[i] = static_cast<std::uint8_t>(v & 0xff);
    v >>= 8;
  }
}

}  // namespace

void Sha512::reset() {
  h_ = {0x6a09e667f3bcc908ull, 0xbb67ae8584caa73bull, 0x3c6ef372fe94f82bull,
        0xa54ff53a5f1d36f1ull, 0x510e527fade682d1ull, 0x9b05688c2b3e6c1full,
        0x1f83d9abfb41bd6bull, 0x5be0cd19137e2179ull};
  buffered_ = 0;
  total_bytes_ = 0;
}

void Sha512::process_block(const std::uint8_t* block) {
  std::uint64_t w[80];
  for (int t = 0; t < 16; ++t) w[t] = load_be64(block + 8 * t);
  for (int t = 16; t < 80; ++t) {
    const std::uint64_t s0 = rotr64(w[t - 15], 1) ^ rotr64(w[t - 15], 8) ^
                             (w[t - 15] >> 7);
    const std::uint64_t s1 = rotr64(w[t - 2], 19) ^ rotr64(w[t - 2], 61) ^
                             (w[t - 2] >> 6);
    w[t] = w[t - 16] + s0 + w[t - 7] + s1;
  }

  std::uint64_t a = h_[0], b = h_[1], c = h_[2], d = h_[3];
  std::uint64_t e = h_[4], f = h_[5], g = h_[6], h = h_[7];
  for (int t = 0; t < 80; ++t) {
    const std::uint64_t s1 = rotr64(e, 14) ^ rotr64(e, 18) ^ rotr64(e, 41);
    const std::uint64_t ch = (e & f) ^ (~e & g);
    const std::uint64_t t1 = h + s1 + ch + kSha512K[t] + w[t];
    const std::uint64_t s0 = rotr64(a, 28) ^ rotr64(a, 34) ^ rotr64(a, 39);
    const std::uint64_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint64_t t2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }
  h_[0] += a;
  h_[1] += b;
  h_[2] += c;
  h_[3] += d;
  h_[4] += e;
  h_[5] += f;
  h_[6] += g;
  h_[7] += h;
}

void Sha512::update(std::span<const std::uint8_t> data) {
  // An empty span may carry a null pointer, which memcpy must not see.
  if (data.empty()) return;
  total_bytes_ += data.size();
  std::size_t off = 0;
  if (buffered_ > 0) {
    const std::size_t take = std::min(data.size(), buffer_.size() - buffered_);
    std::memcpy(buffer_.data() + buffered_, data.data(), take);
    buffered_ += take;
    off = take;
    if (buffered_ < buffer_.size()) return;
    process_block(buffer_.data());
    buffered_ = 0;
  }
  while (off + 128 <= data.size()) {
    process_block(data.data() + off);
    off += 128;
  }
  if (off < data.size()) {
    std::memcpy(buffer_.data(), data.data() + off, data.size() - off);
    buffered_ = data.size() - off;
  }
}

Sha512Digest Sha512::finish() {
  // Pad: 0x80, zeros, then the 128-bit bit count (we only track 64 bits
  // of length — plenty for any in-sim message).
  const std::uint64_t bit_count = total_bytes_ * 8;
  std::uint8_t pad[256]{};
  pad[0] = 0x80;
  const std::size_t rem = buffered_;
  // Pad to 112 mod 128 (leaving 16 bytes for the length field).
  const std::size_t pad_len =
      (rem < 112) ? (112 - rem) : (240 - rem);
  std::uint8_t length_field[16]{};
  store_be64(length_field + 8, bit_count);
  update(std::span<const std::uint8_t>(pad, pad_len));
  update(std::span<const std::uint8_t>(length_field, 16));

  Sha512Digest out{};
  for (int i = 0; i < 8; ++i) store_be64(out.data() + 8 * i, h_[i]);
  return out;
}

Sha512Digest sha512(std::span<const std::uint8_t> data) {
  Sha512 ctx;
  ctx.update(data);
  return ctx.finish();
}

// ---------------------------------------------------------------------------
// curve25519 field arithmetic — radix-2^16 limbs, TweetNaCl style.

namespace {

using Fe = std::array<std::int64_t, 16>;  // field element mod 2^255 - 19

constexpr Fe kGf0{};
constexpr Fe kGf1{1};
// Edwards curve constant d, 2d, the base point (X, Y), and sqrt(-1).
constexpr Fe kD{0x78a3, 0x1359, 0x4dca, 0x75eb, 0xd8ab, 0x4141, 0x0a4d,
                0x0070, 0xe898, 0x7779, 0x4079, 0x8cc7, 0xfe73, 0x2b6f,
                0x6cee, 0x5203};
constexpr Fe kD2{0xf159, 0x26b2, 0x9b94, 0xebd6, 0xb156, 0x8283, 0x149a,
                 0x00e0, 0xd130, 0xeef3, 0x80f2, 0x198e, 0xfce7, 0x56df,
                 0xd9dc, 0x2406};
constexpr Fe kBaseX{0xd51a, 0x8f25, 0x2d60, 0xc956, 0xa7b2, 0x9525, 0xc760,
                    0x692c, 0xdc5c, 0xfdd6, 0xe231, 0xc0a4, 0x53fe, 0xcd6e,
                    0x36d3, 0x2169};
constexpr Fe kBaseY{0x6658, 0x6666, 0x6666, 0x6666, 0x6666, 0x6666, 0x6666,
                    0x6666, 0x6666, 0x6666, 0x6666, 0x6666, 0x6666, 0x6666,
                    0x6666, 0x6666};
constexpr Fe kSqrtM1{0xa0b0, 0x4a0e, 0x1b27, 0xc4ee, 0xe478, 0xad2f, 0x1806,
                     0x2f43, 0xd7a7, 0x3dfb, 0x0099, 0x2b4d, 0xdf0b, 0x4fc1,
                     0x2480, 0x2b83};

void carry(Fe& o) {
  for (int i = 0; i < 16; ++i) {
    o[i] += 1ll << 16;
    const std::int64_t c = o[i] >> 16;
    o[(i + 1) * (i < 15)] += c - 1 + 37 * (c - 1) * (i == 15);
    o[i] -= c << 16;
  }
}

/// Constant-time conditional swap of field elements (b in {0,1}).
void cond_swap(Fe& p, Fe& q, std::int64_t b) {
  const std::int64_t mask = ~(b - 1);
  for (int i = 0; i < 16; ++i) {
    const std::int64_t t = mask & (p[i] ^ q[i]);
    p[i] ^= t;
    q[i] ^= t;
  }
}

void add_fe(Fe& o, const Fe& a, const Fe& b) {
  for (int i = 0; i < 16; ++i) o[i] = a[i] + b[i];
}

void sub_fe(Fe& o, const Fe& a, const Fe& b) {
  for (int i = 0; i < 16; ++i) o[i] = a[i] - b[i];
}

void mul_fe(Fe& o, const Fe& a, const Fe& b) {
  std::int64_t t[31]{};
  for (int i = 0; i < 16; ++i)
    for (int j = 0; j < 16; ++j) t[i + j] += a[i] * b[j];
  for (int i = 0; i < 15; ++i) t[i] += 38 * t[i + 16];
  for (int i = 0; i < 16; ++i) o[i] = t[i];
  carry(o);
  carry(o);
}

void sq_fe(Fe& o, const Fe& a) { mul_fe(o, a, a); }

void pack25519(std::uint8_t* o, const Fe& n) {
  Fe t = n;
  carry(t);
  carry(t);
  carry(t);
  for (int j = 0; j < 2; ++j) {
    Fe m{};
    m[0] = t[0] - 0xffed;
    for (int i = 1; i < 15; ++i) {
      m[i] = t[i] - 0xffff - ((m[i - 1] >> 16) & 1);
      m[i - 1] &= 0xffff;
    }
    m[15] = t[15] - 0x7fff - ((m[14] >> 16) & 1);
    const std::int64_t b = (m[15] >> 16) & 1;
    m[14] &= 0xffff;
    cond_swap(t, m, 1 - b);
  }
  for (int i = 0; i < 16; ++i) {
    o[2 * i] = static_cast<std::uint8_t>(t[i] & 0xff);
    o[2 * i + 1] = static_cast<std::uint8_t>(t[i] >> 8);
  }
}

void unpack25519(Fe& o, const std::uint8_t* n) {
  for (int i = 0; i < 16; ++i)
    o[i] = n[2 * i] + (static_cast<std::int64_t>(n[2 * i + 1]) << 8);
  o[15] &= 0x7fff;
}

bool bytes_differ(const std::uint8_t* a, const std::uint8_t* b,
                  std::size_t n) {
  std::uint32_t d = 0;
  for (std::size_t i = 0; i < n; ++i) d |= a[i] ^ b[i];
  return d != 0;
}

bool neq25519(const Fe& a, const Fe& b) {
  std::uint8_t pa[32], pb[32];
  pack25519(pa, a);
  pack25519(pb, b);
  return bytes_differ(pa, pb, 32);
}

std::uint8_t parity25519(const Fe& a) {
  std::uint8_t d[32];
  pack25519(d, a);
  return d[0] & 1;
}

void inv25519(Fe& o, const Fe& in) {
  Fe c = in;
  for (int a = 253; a >= 0; --a) {
    sq_fe(c, c);
    if (a != 2 && a != 4) mul_fe(c, c, in);
  }
  o = c;
}

/// x^((p-5)/8), used to compute square roots when decompressing points.
void pow2523(Fe& o, const Fe& in) {
  Fe c = in;
  for (int a = 250; a >= 0; --a) {
    sq_fe(c, c);
    if (a != 1) mul_fe(c, c, in);
  }
  o = c;
}

// ---------------------------------------------------------------------------
// Edwards point arithmetic (extended coordinates X, Y, Z, T).

using Point = std::array<Fe, 4>;

void point_add(Point& p, const Point& q) {
  Fe a, b, c, d, t, e, f, g, h;
  sub_fe(a, p[1], p[0]);
  sub_fe(t, q[1], q[0]);
  mul_fe(a, a, t);
  add_fe(b, p[0], p[1]);
  add_fe(t, q[0], q[1]);
  mul_fe(b, b, t);
  mul_fe(c, p[3], q[3]);
  mul_fe(c, c, kD2);
  mul_fe(d, p[2], q[2]);
  add_fe(d, d, d);
  sub_fe(e, b, a);
  sub_fe(f, d, c);
  add_fe(g, d, c);
  add_fe(h, b, a);
  mul_fe(p[0], e, f);
  mul_fe(p[1], h, g);
  mul_fe(p[2], g, f);
  mul_fe(p[3], e, h);
}

void point_cswap(Point& p, Point& q, std::uint8_t b) {
  for (int i = 0; i < 4; ++i) cond_swap(p[i], q[i], b);
}

void point_pack(std::uint8_t* r, const Point& p) {
  Fe tx, ty, zi;
  inv25519(zi, p[2]);
  mul_fe(tx, p[0], zi);
  mul_fe(ty, p[1], zi);
  pack25519(r, ty);
  r[31] ^= static_cast<std::uint8_t>(parity25519(tx) << 7);
}

/// p = s * q, constant-time double-and-add ladder.
void point_scalarmult(Point& p, Point& q, const std::uint8_t* s) {
  p = {kGf0, kGf1, kGf1, kGf0};
  for (int i = 255; i >= 0; --i) {
    const std::uint8_t b = (s[i / 8] >> (i & 7)) & 1;
    point_cswap(p, q, b);
    point_add(q, p);
    point_add(p, p);
    point_cswap(p, q, b);
  }
}

void point_scalarbase(Point& p, const std::uint8_t* s) {
  Point q{kBaseX, kBaseY, kGf1, Fe{}};
  mul_fe(q[3], kBaseX, kBaseY);
  point_scalarmult(p, q, s);
}

/// Decompress a public key into -A (negated: exactly what verification
/// wants, and harmless for DH since both sides negate).  False if the
/// bytes are not on the curve.
bool point_unpack_neg(Point& r, const std::uint8_t* p) {
  Fe t, chk, num, den, den2, den4, den6;
  r[2] = kGf1;
  unpack25519(r[1], p);
  sq_fe(num, r[1]);
  mul_fe(den, num, kD);
  sub_fe(num, num, r[2]);
  add_fe(den, r[2], den);

  sq_fe(den2, den);
  sq_fe(den4, den2);
  mul_fe(den6, den4, den2);
  mul_fe(t, den6, num);
  mul_fe(t, t, den);

  pow2523(t, t);
  mul_fe(t, t, num);
  mul_fe(t, t, den);
  mul_fe(t, t, den);
  mul_fe(r[0], t, den);

  sq_fe(chk, r[0]);
  mul_fe(chk, chk, den);
  if (neq25519(chk, num)) mul_fe(r[0], r[0], kSqrtM1);

  sq_fe(chk, r[0]);
  mul_fe(chk, chk, den);
  if (neq25519(chk, num)) return false;

  if (parity25519(r[0]) == (p[31] >> 7)) sub_fe(r[0], kGf0, r[0]);

  mul_fe(r[3], r[0], r[1]);
  return true;
}

// ---------------------------------------------------------------------------
// Scalar arithmetic mod the group order L = 2^252 + 27742...8493.

constexpr std::int64_t kOrder[32] = {
    0xed, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12, 0x58, 0xd6, 0x9c, 0xf7,
    0xa2, 0xde, 0xf9, 0xde, 0x14, 0,    0,    0,    0,    0,    0,
    0,    0,    0,    0,    0,    0,    0,    0,    0,    0x10};

void mod_order(std::uint8_t* r, std::int64_t x[64]) {
  std::int64_t carry_v;
  for (int i = 63; i >= 32; --i) {
    carry_v = 0;
    int j;
    for (j = i - 32; j < i - 12; ++j) {
      x[j] += carry_v - 16 * x[i] * kOrder[j - (i - 32)];
      carry_v = (x[j] + 128) >> 8;
      x[j] -= carry_v << 8;
    }
    x[j] += carry_v;
    x[i] = 0;
  }
  carry_v = 0;
  for (int j = 0; j < 32; ++j) {
    x[j] += carry_v - (x[31] >> 4) * kOrder[j];
    carry_v = x[j] >> 8;
    x[j] &= 255;
  }
  for (int j = 0; j < 32; ++j) x[j] -= carry_v * kOrder[j];
  for (int i = 0; i < 32; ++i) {
    x[i + 1] += x[i] >> 8;
    r[i] = static_cast<std::uint8_t>(x[i] & 255);
  }
}

/// Reduces a 64-byte little-endian value mod L into its first 32 bytes.
void reduce64(std::uint8_t* r) {
  std::int64_t x[64];
  for (int i = 0; i < 64; ++i) x[i] = r[i];
  for (int i = 0; i < 64; ++i) r[i] = 0;
  mod_order(r, x);
}

}  // namespace

// ---------------------------------------------------------------------------
// KeyPair / sign / verify / DH

KeyPair KeyPair::from_seed(std::span<const std::uint8_t> seed) {
  KeyPair kp;
  if (seed.size() != 32) return kp;

  Sha512 ctx;
  ctx.update(seed);
  const Sha512Digest d = ctx.finish();
  std::memcpy(kp.scalar_.data(), d.data(), 32);
  std::memcpy(kp.prefix_.data(), d.data() + 32, 32);
  kp.scalar_[0] &= 248;
  kp.scalar_[31] &= 127;
  kp.scalar_[31] |= 64;

  Point p;
  point_scalarbase(p, kp.scalar_.data());
  point_pack(kp.public_.bytes.data(), p);
  kp.valid_ = true;
  return kp;
}

KeyPair KeyPair::generate(Rng& rng) {
  std::array<std::uint8_t, 32> seed{};
  for (int i = 0; i < 4; ++i) {
    std::uint64_t w = rng();
    for (int j = 0; j < 8; ++j) {
      seed[8 * i + j] = static_cast<std::uint8_t>(w & 0xff);
      w >>= 8;
    }
  }
  return from_seed(seed);
}

Signature KeyPair::sign(std::span<const std::uint8_t> msg) const {
  Signature sig{};
  if (!valid_) return sig;

  // r = H(prefix || msg) mod L;  R = r * G.
  std::uint8_t r[64];
  {
    Sha512 ctx;
    ctx.update(std::span<const std::uint8_t>(prefix_));
    ctx.update(msg);
    const Sha512Digest d = ctx.finish();
    std::memcpy(r, d.data(), 64);
  }
  reduce64(r);
  Point p;
  point_scalarbase(p, r);
  point_pack(sig.bytes.data(), p);

  // h = H(R || A || msg) mod L;  S = r + h * scalar mod L.
  std::uint8_t h[64];
  {
    Sha512 ctx;
    ctx.update(std::span<const std::uint8_t>(sig.bytes.data(), 32));
    ctx.update(std::span<const std::uint8_t>(public_.bytes));
    ctx.update(msg);
    const Sha512Digest d = ctx.finish();
    std::memcpy(h, d.data(), 64);
  }
  reduce64(h);

  std::int64_t x[64]{};
  for (int i = 0; i < 32; ++i) x[i] = r[i];
  for (int i = 0; i < 32; ++i)
    for (int j = 0; j < 32; ++j)
      x[i + j] += static_cast<std::int64_t>(h[i]) * scalar_[j];
  mod_order(sig.bytes.data() + 32, x);
  return sig;
}

bool verify(const PublicKey& pk, std::span<const std::uint8_t> msg,
            const Signature& sig) {
  Point q;
  if (!point_unpack_neg(q, pk.bytes.data())) return false;

  std::uint8_t h[64];
  {
    Sha512 ctx;
    ctx.update(std::span<const std::uint8_t>(sig.bytes.data(), 32));
    ctx.update(std::span<const std::uint8_t>(pk.bytes));
    ctx.update(msg);
    const Sha512Digest d = ctx.finish();
    std::memcpy(h, d.data(), 64);
  }
  reduce64(h);

  // t = S*G - h*A; valid iff t == R.
  Point p;
  point_scalarmult(p, q, h);
  Point base;
  point_scalarbase(base, sig.bytes.data() + 32);
  point_add(p, base);

  std::uint8_t t[32];
  point_pack(t, p);
  return !bytes_differ(t, sig.bytes.data(), 32);
}

SymmetricKey KeyPair::shared_key(const PublicKey& peer) const {
  SymmetricKey key{};
  if (!valid_) return key;
  Point q;
  if (!point_unpack_neg(q, peer.bytes.data())) return key;

  // Both sides compute -(a*b)*G, so the packed point matches.
  Point p;
  point_scalarmult(p, q, scalar_.data());
  std::uint8_t packed[32];
  point_pack(packed, p);

  Sha512 ctx;
  ctx.update(std::span<const std::uint8_t>(packed, 32));
  const Sha512Digest d = ctx.finish();
  std::memcpy(key.data(), d.data(), 32);
  return key;
}

void stream_xor(std::span<std::uint8_t> data, const SymmetricKey& key,
                std::uint64_t nonce) {
  std::uint8_t block_input[48];
  std::memcpy(block_input, key.data(), 32);
  store_be64(block_input + 32, nonce);

  std::uint64_t counter = 0;
  std::size_t off = 0;
  while (off < data.size()) {
    store_be64(block_input + 40, counter++);
    const Sha512Digest ks = sha512(std::span<const std::uint8_t>(block_input, 48));
    const std::size_t n = std::min<std::size_t>(64, data.size() - off);
    for (std::size_t i = 0; i < n; ++i) data[off + i] ^= ks[i];
    off += n;
  }
}

}  // namespace ipop::util::crypto
