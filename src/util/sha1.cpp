#include "util/sha1.hpp"

#include <bit>
#include <cstring>

#include "util/bytes.hpp"

namespace ipop::util {

namespace {
constexpr std::uint32_t rotl(std::uint32_t x, int s) {
  return std::rotl(x, s);
}
}  // namespace

void Sha1::reset() {
  h_ = {0x67452301u, 0xEFCDAB89u, 0x98BADCFEu, 0x10325476u, 0xC3D2E1F0u};
  buffered_ = 0;
  total_bytes_ = 0;
}

void Sha1::update(std::string_view data) {
  update(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
}

void Sha1::update(std::span<const std::uint8_t> data) {
  total_bytes_ += data.size();
  std::size_t offset = 0;
  // Fill a partially buffered block first.
  if (buffered_ > 0) {
    std::size_t take = std::min<std::size_t>(64 - buffered_, data.size());
    std::memcpy(buffer_.data() + buffered_, data.data(), take);
    buffered_ += take;
    offset += take;
    if (buffered_ == 64) {
      process_block(buffer_.data());
      buffered_ = 0;
    }
  }
  while (offset + 64 <= data.size()) {
    process_block(data.data() + offset);
    offset += 64;
  }
  if (offset < data.size()) {
    buffered_ = data.size() - offset;
    std::memcpy(buffer_.data(), data.data() + offset, buffered_);
  }
}

Sha1Digest Sha1::finish() {
  const std::uint64_t bit_len = total_bytes_ * 8;
  // Padding: 0x80, zeros up to 56 mod 64, then the 64-bit big-endian
  // length — appended with one update() call.
  std::array<std::uint8_t, 72> pad{};
  pad[0] = 0x80;
  const std::size_t zeros = (buffered_ < 56 ? 55 : 119) - buffered_;
  for (int i = 0; i < 8; ++i) {
    pad[1 + zeros + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  update(std::span<const std::uint8_t>(pad.data(), 1 + zeros + 8));

  Sha1Digest out{};
  for (int i = 0; i < 5; ++i) {
    out[i * 4 + 0] = static_cast<std::uint8_t>(h_[i] >> 24);
    out[i * 4 + 1] = static_cast<std::uint8_t>(h_[i] >> 16);
    out[i * 4 + 2] = static_cast<std::uint8_t>(h_[i] >> 8);
    out[i * 4 + 3] = static_cast<std::uint8_t>(h_[i]);
  }
  return out;
}

void Sha1::process_block(const std::uint8_t* block) {
  std::uint32_t w[80];
  for (int i = 0; i < 16; ++i) {
    // Cast each byte *before* shifting: the integer promotion is to
    // signed int, and a byte >= 0x80 shifted by 24 would land in the
    // sign bit.
    w[i] = (static_cast<std::uint32_t>(block[i * 4]) << 24) |
           (static_cast<std::uint32_t>(block[i * 4 + 1]) << 16) |
           (static_cast<std::uint32_t>(block[i * 4 + 2]) << 8) |
           static_cast<std::uint32_t>(block[i * 4 + 3]);
  }
  for (int i = 16; i < 80; ++i) {
    w[i] = rotl(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1);
  }

  std::uint32_t a = h_[0], b = h_[1], c = h_[2], d = h_[3], e = h_[4];
  for (int i = 0; i < 80; ++i) {
    std::uint32_t f, k;
    if (i < 20) {
      f = (b & c) | (~b & d);
      k = 0x5A827999u;
    } else if (i < 40) {
      f = b ^ c ^ d;
      k = 0x6ED9EBA1u;
    } else if (i < 60) {
      f = (b & c) | (b & d) | (c & d);
      k = 0x8F1BBCDCu;
    } else {
      f = b ^ c ^ d;
      k = 0xCA62C1D6u;
    }
    std::uint32_t tmp = rotl(a, 5) + f + e + k + w[i];
    e = d;
    d = c;
    c = rotl(b, 30);
    b = a;
    a = tmp;
  }
  h_[0] += a;
  h_[1] += b;
  h_[2] += c;
  h_[3] += d;
  h_[4] += e;
}

Sha1Digest sha1(std::span<const std::uint8_t> data) {
  Sha1 ctx;
  ctx.update(data);
  return ctx.finish();
}

Sha1Digest sha1(std::string_view data) {
  Sha1 ctx;
  ctx.update(data);
  return ctx.finish();
}

}  // namespace ipop::util
