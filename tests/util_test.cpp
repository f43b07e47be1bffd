// Unit tests for src/util: SHA-1, crypto primitives, byte codecs,
// statistics, RNG, tables.
#include <gtest/gtest.h>

#include "util/bytes.hpp"
#include "util/crypto.hpp"
#include "util/random.hpp"
#include "util/sha1.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/time.hpp"

namespace ipop::util {
namespace {

// --- SHA-1 (FIPS 180-1 / RFC 3174 vectors) ---------------------------------

TEST(Sha1Test, EmptyString) {
  EXPECT_EQ(to_hex(sha1("")), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

TEST(Sha1Test, Abc) {
  EXPECT_EQ(to_hex(sha1("abc")), "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1Test, LongerVector) {
  EXPECT_EQ(to_hex(sha1(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1Test, MillionA) {
  Sha1 ctx;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) ctx.update(chunk);
  auto digest = ctx.finish();
  EXPECT_EQ(to_hex(std::span<const std::uint8_t>(digest.data(), digest.size())),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1Test, IncrementalMatchesOneShot) {
  const std::string msg = "The quick brown fox jumps over the lazy dog";
  for (std::size_t split = 0; split <= msg.size(); ++split) {
    Sha1 ctx;
    ctx.update(std::string_view(msg).substr(0, split));
    ctx.update(std::string_view(msg).substr(split));
    EXPECT_EQ(ctx.finish(), sha1(msg)) << "split at " << split;
  }
}

TEST(Sha1Test, BlockBoundaryLengths) {
  // Exercise padding across the 55/56/63/64-byte boundaries.
  for (std::size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    std::string msg(len, 'x');
    Sha1 ctx;
    ctx.update(msg);
    EXPECT_EQ(ctx.finish(), sha1(msg)) << "len " << len;
  }
}

TEST(Sha1Test, DistinctInputsDistinctDigests) {
  EXPECT_NE(sha1("172.16.0.2"), sha1("172.16.0.3"));
}

// --- Byte codecs ------------------------------------------------------------

TEST(BytesTest, RoundTripScalars) {
  ByteWriter w;
  w.u8(0xAB);
  w.u16(0x1234);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  ByteReader r(w.data());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(BytesTest, BigEndianLayout) {
  ByteWriter w;
  w.u32(0x01020304);
  EXPECT_EQ(w.data(), (std::vector<std::uint8_t>{1, 2, 3, 4}));
}

TEST(BytesTest, LengthPrefixed) {
  ByteWriter w;
  w.lp_string("hello");
  w.lp_bytes(std::vector<std::uint8_t>{9, 8, 7});
  ByteReader r(w.data());
  EXPECT_EQ(r.lp_string(), "hello");
  EXPECT_EQ(r.lp_bytes(), (std::vector<std::uint8_t>{9, 8, 7}));
}

TEST(BytesTest, TruncatedReadThrows) {
  ByteWriter w;
  w.u16(7);
  ByteReader r(w.data());
  r.u8();
  EXPECT_THROW(r.u16(), ParseError);
}

TEST(BytesTest, LengthPrefixBeyondBufferThrows) {
  ByteWriter w;
  w.u32(100);  // claims 100 bytes follow
  w.u8(1);
  ByteReader r(w.data());
  EXPECT_THROW(r.lp_bytes(), ParseError);
}

TEST(BytesTest, PatchU16) {
  ByteWriter w;
  w.u16(0);
  w.u8(5);
  w.patch_u16(0, 0xBEEF);
  ByteReader r(w.data());
  EXPECT_EQ(r.u16(), 0xBEEF);
}

TEST(BytesTest, ToHex) {
  std::vector<std::uint8_t> data{0x00, 0x7F, 0xFF, 0x12};
  EXPECT_EQ(to_hex(data), "007fff12");
}

TEST(BytesTest, RestAndSkip) {
  ByteWriter w;
  w.u8(1);
  w.u8(2);
  w.u8(3);
  ByteReader r(w.data());
  r.skip(1);
  auto rest = r.rest_copy();
  EXPECT_EQ(rest, (std::vector<std::uint8_t>{2, 3}));
  EXPECT_EQ(r.remaining(), 0u);
}

// --- Statistics --------------------------------------------------------------

TEST(StatsTest, RunningStatsBasics) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(StatsTest, EmptyStatsAreZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.mean(), 0.0);
}

TEST(StatsTest, Percentiles) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_NEAR(s.percentile(0), 1.0, 1e-9);
  EXPECT_NEAR(s.percentile(50), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(100), 100.0, 1e-9);
  EXPECT_NEAR(s.mean(), 50.5, 1e-9);
}

TEST(StatsTest, HistogramBinning) {
  Histogram h(0, 10, 10);
  h.add(-5);    // clamps into first bin
  h.add(0.5);
  h.add(9.5);
  h.add(15);    // clamps into last bin
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.counts()[0], 2u);
  EXPECT_EQ(h.counts()[9], 2u);
  EXPECT_NE(h.render().find('#'), std::string::npos);
  EXPECT_NE(h.to_csv().find("bin_lo"), std::string::npos);
}

// --- RNG ----------------------------------------------------------------------

TEST(RngTest, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    auto v = rng.uniform_int(5, 9);
    EXPECT_GE(v, 5);
    EXPECT_LE(v, 9);
  }
}

TEST(RngTest, ExponentialMean) {
  Rng rng(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(10.0);
  EXPECT_NEAR(sum / n, 10.0, 0.5);
}

TEST(RngTest, ForkIndependentButStable) {
  Rng a(42), b(42);
  Rng fa = a.fork(1);
  Rng fb = b.fork(1);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(fa(), fb());
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

// --- SHA-512 (FIPS 180-4 vectors) ------------------------------------------

std::span<const std::uint8_t> bytes_of(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

TEST(Sha512Test, EmptyString) {
  EXPECT_EQ(to_hex(crypto::sha512(bytes_of(""))),
            "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce"
            "47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e");
}

TEST(Sha512Test, Abc) {
  EXPECT_EQ(to_hex(crypto::sha512(bytes_of("abc"))),
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
            "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f");
}

TEST(Sha512Test, TwoBlockMessage) {
  EXPECT_EQ(to_hex(crypto::sha512(bytes_of(
                "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn"
                "hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"))),
            "8e959b75dae313da8cf4f72814fc143f8f7779c6eb9f7fa17299aeadb6889018"
            "501d289e4900f7e4331b99dec4b5433ac7d329eeb6dd26545e96e55b874be909");
}

TEST(Sha512Test, IncrementalMatchesOneShot) {
  const std::string msg(300, 'q');
  for (std::size_t split : {0u, 1u, 127u, 128u, 129u, 255u, 300u}) {
    crypto::Sha512 ctx;
    ctx.update(bytes_of(std::string_view(msg).substr(0, split)));
    // A default span has a null data pointer; with bytes already buffered
    // it must not reach memcpy (UBSan aborts on that).
    ctx.update(std::span<const std::uint8_t>{});
    ctx.update(bytes_of(std::string_view(msg).substr(split)));
    EXPECT_EQ(ctx.finish(), crypto::sha512(bytes_of(msg)))
        << "split at " << split;
  }
}

// --- Ed25519 (RFC 8032 section 7.1 vectors) --------------------------------

/// Bytes of a well-formed hex test vector.
std::vector<std::uint8_t> from_hex(std::string_view hex) {
  std::vector<std::uint8_t> out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<std::uint8_t>(
        std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
  }
  return out;
}

crypto::KeyPair rfc8032_keypair(const char* seed_hex, const char* pub_hex) {
  const auto seed = from_hex(seed_hex);
  auto kp = crypto::KeyPair::from_seed(seed);
  EXPECT_TRUE(kp.valid());
  EXPECT_EQ(to_hex(kp.public_key().bytes), pub_hex);
  return kp;
}

TEST(Ed25519Test, Rfc8032Test1EmptyMessage) {
  const auto kp = rfc8032_keypair(
      "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
      "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a");
  const auto sig = kp.sign({});
  EXPECT_EQ(to_hex(sig.bytes),
            "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
            "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b");
  EXPECT_TRUE(crypto::verify(kp.public_key(), {}, sig));
}

TEST(Ed25519Test, Rfc8032Test2OneByteMessage) {
  const auto kp = rfc8032_keypair(
      "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
      "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c");
  const std::vector<std::uint8_t> msg{0x72};
  const auto sig = kp.sign(msg);
  EXPECT_EQ(to_hex(sig.bytes),
            "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da"
            "085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00");
  EXPECT_TRUE(crypto::verify(kp.public_key(), msg, sig));
}

TEST(Ed25519Test, TamperedMessageOrSignatureRejected) {
  const auto seed = from_hex(
      "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60");
  const auto kp = crypto::KeyPair::from_seed(seed);
  std::vector<std::uint8_t> msg{1, 2, 3, 4, 5};
  auto sig = kp.sign(msg);
  ASSERT_TRUE(crypto::verify(kp.public_key(), msg, sig));
  msg[2] ^= 0x01;  // flip one payload bit
  EXPECT_FALSE(crypto::verify(kp.public_key(), msg, sig));
  msg[2] ^= 0x01;
  sig.bytes[10] ^= 0x80;  // flip one signature bit
  EXPECT_FALSE(crypto::verify(kp.public_key(), msg, sig));
}

TEST(Ed25519Test, GenerateFromRngIsDeterministic) {
  Rng a(777), b(777), c(778);
  const auto ka = crypto::KeyPair::generate(a);
  const auto kb = crypto::KeyPair::generate(b);
  const auto kc = crypto::KeyPair::generate(c);
  EXPECT_EQ(ka.public_key(), kb.public_key());
  EXPECT_NE(ka.public_key(), kc.public_key());
}

TEST(Ed25519Test, SharedKeyIsSymmetric) {
  Rng rng(31337);
  const auto a = crypto::KeyPair::generate(rng);
  const auto b = crypto::KeyPair::generate(rng);
  const auto ab = a.shared_key(b.public_key());
  const auto ba = b.shared_key(a.public_key());
  EXPECT_EQ(ab, ba);
  const auto c = crypto::KeyPair::generate(rng);
  EXPECT_NE(ab, a.shared_key(c.public_key()));
}

TEST(StreamXorTest, RoundTripsAndNoncesDiverge) {
  Rng rng(9);
  const auto kp = crypto::KeyPair::generate(rng);
  const auto key = kp.shared_key(kp.public_key());
  std::vector<std::uint8_t> data(300);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i);
  }
  const auto original = data;
  crypto::stream_xor(data, key, /*nonce=*/1);
  EXPECT_NE(data, original);
  auto other_nonce = original;
  crypto::stream_xor(other_nonce, key, /*nonce=*/2);
  EXPECT_NE(other_nonce, data) << "nonces must give distinct keystreams";
  crypto::stream_xor(data, key, /*nonce=*/1);  // decrypt = same op
  EXPECT_EQ(data, original);
}

// --- Time helpers ---------------------------------------------------------------

TEST(TimeTest, Conversions) {
  EXPECT_EQ(milliseconds(3).count(), 3'000'000);
  EXPECT_EQ(to_milliseconds(milliseconds(3)), 3.0);
  EXPECT_EQ(to_seconds(seconds(2)), 2.0);
  EXPECT_EQ(milliseconds_f(0.5).count(), 500'000);
}

TEST(TimeTest, FormatDuration) {
  EXPECT_EQ(format_duration(nanoseconds(500)), "500ns");
  EXPECT_EQ(format_duration(milliseconds(2)), "2.000ms");
}

// --- Table ------------------------------------------------------------------------

TEST(TableTest, RendersAlignedCells) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_rule();
  t.add_row({"longer-name", "2.5"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| name"), std::string::npos);
  EXPECT_NE(out.find("longer-name"), std::string::npos);
  // All lines equally wide.
  std::size_t width = out.find('\n');
  for (std::size_t pos = 0; pos < out.size();) {
    std::size_t next = out.find('\n', pos);
    EXPECT_EQ(next - pos, width);
    pos = next + 1;
  }
}

TEST(TableTest, NumberFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::percent(0.295, 0), "30%");
}

}  // namespace
}  // namespace ipop::util
