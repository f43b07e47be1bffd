// SHA-1 (FIPS 180-1), implemented from scratch.
//
// IPOP's address scheme maps a virtual IP to the P2P node whose 160-bit
// Brunet address is the SHA-1 hash of the IP (paper Section III-B), and the
// Brunet-ARP mapper stores the IP->node binding at SHA1(ip) (Section
// III-E).  SHA-1 being exactly 160 bits is what makes the overlay address
// space line up, so we implement the real algorithm rather than a stand-in.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace ipop::util {

using Sha1Digest = std::array<std::uint8_t, 20>;

/// Incremental SHA-1 context (update in chunks, then finish).
class Sha1 {
 public:
  Sha1() { reset(); }

  void reset();
  void update(std::span<const std::uint8_t> data);
  void update(std::string_view data);
  /// Finalizes and returns the digest; the context must be reset() before
  /// reuse.
  Sha1Digest finish();

 private:
  void process_block(const std::uint8_t* block);

  std::array<std::uint32_t, 5> h_{};
  std::array<std::uint8_t, 64> buffer_{};
  std::size_t buffered_ = 0;
  std::uint64_t total_bytes_ = 0;
};

/// One-shot convenience wrappers.
Sha1Digest sha1(std::span<const std::uint8_t> data);
Sha1Digest sha1(std::string_view data);

}  // namespace ipop::util
