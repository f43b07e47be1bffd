// util::Buffer / util::BufferView: the zero-copy packet pipeline's
// ownership unit.  Covers headroom prepend round-trips, refcount-verified
// in-place forwarding (no reallocation), copy-on-prepend for shared
// storage, and bounds violations throwing util::ParseError.
#include <gtest/gtest.h>

#include <numeric>

#include "brunet/packet.hpp"
#include "util/buffer.hpp"
#include "util/buffer_chain.hpp"

namespace ipop {
namespace {

using util::Buffer;
using util::BufferChain;
using util::BufferView;
using util::ParseError;

/// Byte i of a chain, read through the scatter-gather walk.
std::uint8_t byte_at(const BufferChain& chain, std::size_t i) {
  std::uint8_t b = 0;
  chain.gather(i, {&b, 1});
  return b;
}

std::vector<std::uint8_t> pattern(std::size_t n) {
  std::vector<std::uint8_t> v(n);
  std::iota(v.begin(), v.end(), std::uint8_t{0});
  return v;
}

// ---------------------------------------------------------------------------
// Buffer basics
// ---------------------------------------------------------------------------

TEST(BufferTest, AllocateReservesHeadroom) {
  Buffer b = Buffer::allocate(100, 64);
  EXPECT_EQ(b.size(), 100u);
  EXPECT_EQ(b.headroom(), 64u);
  EXPECT_EQ(b.use_count(), 1);
  EXPECT_TRUE(b.unique());
}

TEST(BufferTest, WrapAdoptsVectorWithoutCopy) {
  auto v = pattern(32);
  const std::uint8_t* raw = v.data();
  Buffer b = Buffer::wrap(std::move(v));
  EXPECT_EQ(b.size(), 32u);
  EXPECT_EQ(b.data(), raw);  // adopted, not copied
  EXPECT_EQ(b[5], 5);
}

TEST(BufferTest, HeadroomPrependRoundTrips) {
  Buffer b = Buffer::copy_of(pattern(40), /*headroom=*/16);
  const std::uint8_t* payload_ptr = b.data();
  const std::uint8_t header[4] = {0xDE, 0xAD, 0xBE, 0xEF};
  std::copy(header, header + 4, b.grow_front(4).begin());
  // In place: the payload bytes did not move, the header landed in front.
  EXPECT_EQ(b.size(), 44u);
  EXPECT_EQ(b.headroom(), 12u);
  EXPECT_EQ(b.data() + 4, payload_ptr);
  EXPECT_EQ(b[0], 0xDE);
  EXPECT_EQ(b[4], 0);
  // Round-trip: dropping the header recovers the original payload view.
  b.drop_front(4);
  EXPECT_EQ(b.data(), payload_ptr);
  EXPECT_EQ(b.view(), BufferView(pattern(40)));
  EXPECT_EQ(b.headroom(), 16u);
}

TEST(BufferTest, PrependOnSharedStorageCopiesInsteadOfCorrupting) {
  Buffer b = Buffer::copy_of(pattern(20), /*headroom=*/16);
  Buffer other = b.share();  // storage now referenced twice
  EXPECT_EQ(b.use_count(), 2);
  const std::uint8_t header[2] = {0xAA, 0xBB};
  std::copy(header, header + 2, b.grow_front(2).begin());
  // The prepend re-allocated: `other` kept its bytes and its storage.
  EXPECT_NE(b.data(), other.data());
  EXPECT_EQ(other.view(), BufferView(pattern(20)));
  EXPECT_EQ(b.size(), 22u);
  EXPECT_EQ(b[0], 0xAA);
  EXPECT_EQ(b.view(2, 20), BufferView(pattern(20)));
}

TEST(BufferTest, GrowFrontWithoutHeadroomReallocatesWithFreshHeadroom) {
  Buffer b = Buffer::wrap(pattern(10));  // no headroom
  b.grow_front(8);
  EXPECT_EQ(b.size(), 18u);
  EXPECT_EQ(b.headroom(), util::kPacketHeadroom);
  EXPECT_EQ(b.view(8, 10), BufferView(pattern(10)));
}

TEST(BufferTest, SubBufferSharesStorage) {
  Buffer b = Buffer::copy_of(pattern(50));
  Buffer mid = b.share(10, 20);
  EXPECT_EQ(b.use_count(), 2);
  EXPECT_EQ(mid.size(), 20u);
  EXPECT_EQ(mid.data(), b.data() + 10);
  EXPECT_EQ(mid[0], 10);
  // Patches through one handle are visible through the other (shared
  // storage is the point) — but writing through a shared handle must be
  // acknowledged explicitly.
  mid.assume_exclusive().patch_u8(0, 0x7F);
  EXPECT_EQ(b[10], 0x7F);
}

TEST(BufferTest, EnsureUniqueClonesSharedStorage) {
  Buffer b = Buffer::copy_of(pattern(16));
  Buffer other = b.share();
  ASSERT_EQ(b.use_count(), 2);
  b.ensure_unique();
  // COW: this handle now owns fresh storage; the other handle's bytes
  // are untouched by subsequent patches.
  EXPECT_EQ(b.use_count(), 1);
  EXPECT_EQ(other.use_count(), 1);
  EXPECT_NE(b.data(), other.data());
  b.patch_u8(3, 0xEE);
  EXPECT_EQ(b[3], 0xEE);
  EXPECT_EQ(other[3], 3);
  // Already-unique handles are left alone (no reallocation).
  const std::uint8_t* ptr = b.data();
  b.ensure_unique();
  EXPECT_EQ(b.data(), ptr);
}

#ifndef NDEBUG
TEST(BufferDeathTest, PatchingSharedStorageWithoutAcknowledgementAsserts) {
  Buffer b = Buffer::copy_of(pattern(8));
  Buffer other = b.share();
  ASSERT_FALSE(b.patchable());
  EXPECT_DEATH(b.patch_u8(0, 0xFF), "ensure_unique|assume_exclusive");
  EXPECT_DEATH(b.patch_u16(0, 0xFFFF), "ensure_unique|assume_exclusive");
  // Either acknowledgement path silences the assertion.
  b.ensure_unique();
  EXPECT_TRUE(b.patchable());
  b.patch_u8(0, 0xFF);
  Buffer c = other.share();
  c.assume_exclusive();
  EXPECT_TRUE(c.patchable());
  c.patch_u16(0, 0xBEEF);
}
#endif

TEST(BufferTest, PatchesAreBoundsChecked) {
  Buffer b = Buffer::copy_of(pattern(4));
  b.patch_u16(2, 0xBEEF);
  EXPECT_EQ(b[2], 0xBE);
  EXPECT_EQ(b[3], 0xEF);
  EXPECT_THROW(b.patch_u8(4, 0), ParseError);
  EXPECT_THROW(b.patch_u16(3, 0), ParseError);
}

TEST(BufferTest, OutOfRangeAccessesThrow) {
  Buffer b = Buffer::copy_of(pattern(8));
  EXPECT_THROW(b[8], ParseError);
  EXPECT_THROW(b.view(4, 5), ParseError);
  EXPECT_THROW(b.share(9, 0), ParseError);
  EXPECT_THROW(b.drop_front(9), ParseError);
  EXPECT_THROW(b.drop_back(9), ParseError);
}

// ---------------------------------------------------------------------------
// BufferView bounds
// ---------------------------------------------------------------------------

TEST(BufferViewTest, BoundsViolationsThrowParseError) {
  auto v = pattern(16);
  BufferView view(v);
  EXPECT_EQ(view.size(), 16u);
  EXPECT_EQ(view[15], 15);
  EXPECT_THROW(view[16], ParseError);
  EXPECT_THROW(view.subview(17), ParseError);
  EXPECT_THROW(view.subview(8, 9), ParseError);
  EXPECT_EQ(view.subview(8, 8)[0], 8);
  EXPECT_EQ(view.subview(16).size(), 0u);
}

TEST(BufferViewTest, EqualityComparesBytes) {
  auto a = pattern(8);
  auto b = pattern(8);
  EXPECT_EQ(BufferView(a), BufferView(b));
  b[3] ^= 1;
  EXPECT_FALSE(BufferView(a) == BufferView(b));
}

// ---------------------------------------------------------------------------
// Zero-copy forwarding (the tentpole's acceptance criterion)
// ---------------------------------------------------------------------------

TEST(PacketZeroCopyTest, ForwardingPatchesTransitFieldsInPlace) {
  brunet::Packet p;
  p.type = brunet::PacketType::kIpTunnel;
  p.ttl = 32;
  util::Rng rng(7);
  p.src = brunet::Address::random(rng);
  p.dst = brunet::Address::random(rng);
  p.set_payload(pattern(1400));

  Buffer wire = p.to_wire();
  const std::uint8_t* storage = wire.data();
  ASSERT_EQ(wire.size(), brunet::Packet::kHeaderSize + 1400);

  // A relay receives the wire buffer: decoding parses the 48-byte header
  // and adopts the buffer — the refcount proves no bytes were copied.
  const long refs_before = wire.use_count();
  brunet::Packet q = brunet::Packet::decode(wire.share());
  EXPECT_EQ(wire.use_count(), refs_before + 1);  // decode added a handle only
  EXPECT_EQ(q.payload().data(), storage + brunet::Packet::kHeaderSize);
  EXPECT_EQ(q.payload(), BufferView(pattern(1400)));

  // Forwarding bumps the hop count and re-emits the *same* buffer.
  ++q.hops;
  Buffer out = q.to_wire();
  EXPECT_EQ(out.data(), storage);  // same storage: zero payload copies
  EXPECT_EQ(out[brunet::Packet::kHopsOffset], 1);
  EXPECT_EQ(wire[brunet::Packet::kHopsOffset], 1);  // in-place patch

  // A second hop repeats the exercise on the already-shared buffer.
  brunet::Packet r = brunet::Packet::decode(out.share());
  EXPECT_EQ(r.hops, 1);
  ++r.hops;
  EXPECT_EQ(r.to_wire().data(), storage);
  EXPECT_EQ(wire[brunet::Packet::kHopsOffset], 2);
}

TEST(PacketZeroCopyTest, HeadroomEncapsulationDoesNotCopyPayload) {
  // A captured tap frame arrives with headroom (as Stack::emit_frame
  // allocates them); encapsulation must prepend the Brunet header into
  // that headroom rather than copying the IP bytes.
  Buffer ip_packet = Buffer::copy_of(pattern(1200), util::kPacketHeadroom);
  const std::uint8_t* payload_ptr = ip_packet.data();

  brunet::Packet p;
  p.type = brunet::PacketType::kIpTunnel;
  p.set_payload(std::move(ip_packet));
  Buffer wire = p.to_wire();
  EXPECT_EQ(wire.data(), payload_ptr - brunet::Packet::kHeaderSize);
  EXPECT_EQ(p.payload().data(), payload_ptr);

  // Unwrapping on delivery is a sub-buffer share, not a copy.
  Buffer unwrapped = p.share_payload();
  EXPECT_EQ(unwrapped.data(), payload_ptr);
  EXPECT_EQ(unwrapped.view(), BufferView(pattern(1200)));
  // ...and it regained the headroom for the next layer's header.
  EXPECT_GE(unwrapped.headroom(), brunet::Packet::kHeaderSize);
}

TEST(PacketZeroCopyTest, TruncatedWireThrows) {
  Buffer junk = Buffer::copy_of(pattern(10));
  EXPECT_THROW(brunet::Packet::decode(junk.share()), ParseError);
}

// ---------------------------------------------------------------------------
// BufferChain: the scatter-gather iovec
// ---------------------------------------------------------------------------

TEST(BufferChainTest, PrependAppendAreHandleTrafficOnly) {
  Buffer payload = Buffer::copy_of(pattern(100));
  const std::uint8_t* payload_ptr = payload.data();
  BufferChain chain;
  chain.append(payload.share());
  Buffer header = Buffer::copy_of(pattern(8));
  const std::uint8_t* header_ptr = header.data();
  chain.prepend(header.share());
  EXPECT_EQ(chain.size(), 108u);
  EXPECT_EQ(chain.segments(), 2u);
  // The segments alias the original storage — nothing moved.
  EXPECT_EQ(chain.segment(0).data(), header_ptr);
  EXPECT_EQ(chain.segment(1).data(), payload_ptr);
  EXPECT_EQ(byte_at(chain, 0), 0);
  EXPECT_EQ(byte_at(chain, 8), 0);    // first payload byte
  EXPECT_EQ(byte_at(chain, 107), 99); // last payload byte
}

TEST(BufferChainTest, EmptyBuffersAreNeverStored) {
  BufferChain chain;
  chain.append(Buffer());
  chain.prepend(Buffer::allocate(0, 16));
  EXPECT_TRUE(chain.empty());
  EXPECT_EQ(chain.segments(), 0u);
  chain.append(Buffer::copy_of(pattern(4)));
  EXPECT_EQ(chain.segments(), 1u);
}

TEST(BufferChainTest, GatherCrossesSegmentBoundaries) {
  BufferChain chain;
  auto bytes = pattern(30);
  chain.append(Buffer::copy_of({bytes.data(), 10}));
  chain.append(Buffer::copy_of({bytes.data() + 10, 10}));
  chain.append(Buffer::copy_of({bytes.data() + 20, 10}));
  std::vector<std::uint8_t> out(18);
  chain.gather(7, out);  // spans all three segments
  EXPECT_EQ(out, std::vector<std::uint8_t>(bytes.begin() + 7,
                                           bytes.begin() + 25));
  std::vector<std::uint8_t> all(chain.size());
  chain.gather(0, all);
  EXPECT_EQ(all, bytes);
}

TEST(BufferChainTest, DropFrontUnlinksAndTrims) {
  BufferChain chain;
  auto bytes = pattern(30);
  chain.append(Buffer::copy_of({bytes.data(), 10}));
  chain.append(Buffer::copy_of({bytes.data() + 10, 20}));
  chain.drop_front(15);  // whole first segment + 5 bytes of the second
  EXPECT_EQ(chain.size(), 15u);
  EXPECT_EQ(chain.segments(), 1u);
  EXPECT_EQ(byte_at(chain, 0), 15);
  chain.drop_front(15);
  EXPECT_TRUE(chain.empty());
}

TEST(BufferChainTest, LazyCoalesceFlattensOnceAndCaches) {
  BufferChain chain;
  auto bytes = pattern(40);
  chain.append(Buffer::copy_of({bytes.data(), 16}));
  chain.append(Buffer::copy_of({bytes.data() + 16, 24}));
  const Buffer& flat = chain.coalesce();
  EXPECT_EQ(flat.view(), BufferView(bytes));
  EXPECT_EQ(chain.segments(), 1u);
  // Cached: coalescing again returns the same storage.
  const std::uint8_t* flat_ptr = flat.data();
  EXPECT_EQ(chain.coalesce().data(), flat_ptr);
  // Flattened storage carries headroom for downstream prepends.
  EXPECT_GE(chain.segment(0).headroom(), util::kPacketHeadroom);
}

TEST(BufferChainTest, SingleSegmentCoalesceIsZeroCopy) {
  Buffer b = Buffer::copy_of(pattern(12));
  const std::uint8_t* ptr = b.data();
  BufferChain chain(b.share());
  EXPECT_EQ(chain.coalesce().data(), ptr);
}

TEST(BufferChainTest, TryShareWithinOneSegmentAliasesStorage) {
  BufferChain chain;
  auto bytes = pattern(20);
  chain.append(Buffer::copy_of({bytes.data(), 10}));
  chain.append(Buffer::copy_of({bytes.data() + 10, 10}));
  auto sub = chain.try_share(12, 6);
  ASSERT_TRUE(sub.has_value());
  EXPECT_EQ(sub->data(), chain.segment(1).data() + 2);
  // A range spanning the boundary cannot be shared.
  EXPECT_FALSE(chain.try_share(8, 6).has_value());
}

TEST(BufferChainTest, BoundsViolationsThrow) {
  BufferChain chain;
  chain.append(Buffer::copy_of(pattern(10)));
  std::vector<std::uint8_t> out(4);
  EXPECT_THROW(chain.gather(8, out), ParseError);
  EXPECT_THROW(chain.drop_front(11), ParseError);
  EXPECT_THROW(byte_at(chain, 10), ParseError);
  EXPECT_THROW(chain.try_share(6, 6), ParseError);
  EXPECT_THROW(chain.segment(1), ParseError);
}

TEST(BufferChainTest, AppendChainSplicesSegments) {
  BufferChain a;
  a.append(Buffer::copy_of(pattern(5)));
  BufferChain b;
  b.append(Buffer::copy_of(pattern(3)));
  b.append(Buffer::copy_of(pattern(2)));
  a.append(std::move(b));
  EXPECT_EQ(a.segments(), 3u);
  EXPECT_EQ(a.size(), 10u);
}

}  // namespace
}  // namespace ipop
