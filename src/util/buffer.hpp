// Reference-counted contiguous byte buffer with reserved headroom.
//
// The ownership unit of the packet pipeline: one Storage block can back a
// tap frame, the Brunet packet encapsulating it and the datagram a
// transport emits — each layer holds a Buffer handle over the same bytes.
// Copying a Buffer shares storage in O(1); drop_front/grow_front move the
// view edges so encapsulation layers strip or prepend headers without
// touching payload bytes (the sk_buff/Serval overlay-frame idiom: relays
// patch the small header in place and forward the enclosed bytes
// untouched).
//
// Ownership rules (see README.md):
//  * A node exclusively owns buffers it allocated or received from a
//    transport; patching header bytes of such a buffer is safe.
//  * grow_front/prepend reuse headroom only when the storage is uniquely
//    referenced; otherwise they reallocate once, so a shared buffer can
//    never be corrupted by a downstream prepend.
//  * BufferViews do not keep storage alive; hold the Buffer alongside.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "util/bytes.hpp"

namespace ipop::util {

/// Headroom reserved in front of freshly allocated packet buffers so the
/// virtual-network encapsulation chain prepends without reallocating.
/// The deepest consumer is a secured tunneled send: 14B Ethernet strip at
/// the tap refunds itself, then a 105B seal header (flags + sender key +
/// nonce + signature), 48B Brunet header, 8B UDP + 20B IPv4 + 14B
/// Ethernet = 195B of prepends before the frame hits the physical link
/// (a relay wrap adds another 48B, covered by the per-path send-headroom
/// derivation on top of this floor).
inline constexpr std::size_t kPacketHeadroom = 256;

class Buffer {
 public:
  Buffer() = default;

  /// Fill-initialized buffer of `size` bytes with no headroom.
  static Buffer filled(std::size_t size, std::uint8_t fill);
  /// Zeroed buffer of `size` data bytes with `headroom` spare bytes in
  /// front of it.
  static Buffer allocate(std::size_t size, std::size_t headroom);
  /// Adopt a vector without copying (no headroom).
  static Buffer wrap(std::vector<std::uint8_t> bytes);
  /// Copy `data` into fresh storage with `headroom` spare front bytes.
  static Buffer copy_of(std::span<const std::uint8_t> data,
                        std::size_t headroom = 0);

  std::size_t size() const { return end_ - begin_; }
  bool empty() const { return begin_ == end_; }
  const std::uint8_t* data() const;
  std::uint8_t* data();
  std::span<const std::uint8_t> as_span() const { return {data(), size()}; }
  std::span<std::uint8_t> writable() { return {data(), size()}; }
  operator std::span<const std::uint8_t>() const { return as_span(); }
  operator BufferView() const { return view(); }

  std::uint8_t operator[](std::size_t i) const;
  std::uint8_t& operator[](std::size_t i);
  const std::uint8_t* begin() const { return data(); }
  const std::uint8_t* end() const { return data() + size(); }

  /// Spare bytes in front of the data region.
  std::size_t headroom() const { return begin_; }
  /// Handles (Buffers) referencing this storage; 0 for a null buffer.
  long use_count() const { return s_ ? s_.use_count() : 0; }
  bool unique() const { return use_count() == 1; }

  /// Extend the data region n bytes to the front and return the writable
  /// header slot.  Zero-copy when the storage is uniquely referenced and
  /// has enough headroom; otherwise reallocates once with
  /// `realloc_headroom` fresh bytes in front.  Callers on a path whose
  /// encapsulation stack is deeper than the default budget (tunneled
  /// relay edges) pass their derived per-path headroom here so the one
  /// reallocation leaves room for every remaining prepend.
  std::span<std::uint8_t> grow_front(std::size_t n,
                                     std::size_t realloc_headroom =
                                         kPacketHeadroom);
  /// Shrink the data region from the front (the bytes become headroom).
  void drop_front(std::size_t n);
  void drop_back(std::size_t n);

  /// In-place single-byte / big-endian 16-bit patch (bounds-checked).
  /// Debug builds additionally assert patchable(): writing through a
  /// shared handle silently mutates every reader, so a patch requires
  /// unique ownership, an explicit ensure_unique() COW, or an
  /// assume_exclusive() ownership claim.
  void patch_u8(std::size_t offset, std::uint8_t v);
  void patch_u16(std::size_t offset, std::uint16_t v);

  /// Explicit copy-on-write: make this handle the sole owner of its
  /// bytes (clones when the storage is shared, no-op when already
  /// unique).  Call before in-place patching a possibly-shared buffer.
  void ensure_unique(std::size_t headroom = 0);
  /// Ownership claim for in-place patches on storage that is refcounted
  /// but exclusively owned per the rules above (e.g. a packet adopted
  /// from a transport whose other handles never read the bytes again).
  /// The claim is handle-local; copies of this handle inherit it.
  Buffer& assume_exclusive() {
    exclusive_ = true;
    return *this;
  }
  /// True when an in-place patch through this handle is sanctioned.
  bool patchable() const { return unique() || exclusive_; }

  /// O(1) handle sharing the same storage.
  Buffer share() const { return *this; }
  /// Sub-buffer [offset, offset+len) sharing the same storage.
  Buffer share(std::size_t offset, std::size_t len) const;
  /// Deep copy into fresh storage with `headroom` spare front bytes.
  Buffer clone(std::size_t headroom = 0) const;

  BufferView view() const { return {data(), size()}; }
  BufferView view(std::size_t offset, std::size_t len) const;
  std::vector<std::uint8_t> to_vector() const;

 private:
  struct Storage {
    std::vector<std::uint8_t> bytes;
  };

  Buffer(std::shared_ptr<Storage> s, std::size_t begin, std::size_t end)
      : s_(std::move(s)), begin_(begin), end_(end) {}

  std::shared_ptr<Storage> s_;
  std::size_t begin_ = 0;  // data region [begin_, end_) within storage
  std::size_t end_ = 0;
  bool exclusive_ = false;  // assume_exclusive() patch-ownership claim
};

}  // namespace ipop::util
