// Scatter-gather chain of Buffer segments (the iovec of the packet
// pipeline).
//
// A BufferChain is an ordered list of shared util::Buffer handles viewed
// as one logical byte string.  Prepending a header or appending a payload
// is O(1) handle traffic — no byte ever moves — so layered senders can
// compose [frame-header | packet-header | shared-payload] without the
// per-layer serialization copies the paper's Section V.2 measures.  The
// bytes come together exactly once, at the simulated NIC's scatter-gather
// walk (gather()), the step real hardware performs with DMA descriptors
// rather than CPU copies.
//
// Ownership follows util::Buffer: segments share storage refcounted, and a
// chain holding a segment keeps that storage alive.  Coalescing is lazy —
// coalesce() flattens multi-segment chains into a single segment only when
// a caller genuinely needs contiguity, and caches the result in place.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <vector>

#include "util/buffer.hpp"

namespace ipop::util {

class BufferChain {
 public:
  BufferChain() = default;
  /// Single-segment chain over an existing buffer (no copy).
  explicit BufferChain(Buffer b) { append(std::move(b)); }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Number of segments (empty buffers are never stored).
  std::size_t segments() const { return segs_.size(); }
  const Buffer& segment(std::size_t i) const;

  /// O(1): link the buffer in front of / behind the chain.  Empty buffers
  /// are dropped (a zero-length iovec entry carries no information).
  void prepend(Buffer b);
  void append(Buffer b);
  /// Splice another chain's segments onto the end (handles move, bytes
  /// do not).
  void append(BufferChain other);
  void clear();

  /// Drop n bytes from the logical front: whole segments are unlinked,
  /// a partially consumed head segment shrinks its view edge in place.
  /// Throws ParseError when n exceeds size().
  void drop_front(std::size_t n);

  /// The scatter-gather walk: copy [offset, offset+out.size()) into
  /// `out`.  This is the single point where chained bytes become
  /// contiguous — the simulated equivalent of the NIC's DMA gather.
  /// Throws ParseError when the range exceeds size().
  void gather(std::size_t offset, std::span<std::uint8_t> out) const;

  /// Visit [offset, offset+len) as a minimal run of contiguous spans
  /// (the readv/writev iteration order).  `f` receives each span once.
  template <typename F>
  void for_each_span(std::size_t offset, std::size_t len, F&& f) const {
    check_range(offset, len);
    for (const Buffer& seg : segs_) {
      if (len == 0) break;
      if (offset >= seg.size()) {
        offset -= seg.size();
        continue;
      }
      const std::size_t take = std::min(len, seg.size() - offset);
      f(std::span<const std::uint8_t>(seg.data() + offset, take));
      offset = 0;
      len -= take;
    }
  }

  /// Zero-copy extraction of [offset, offset+len) when the range lies
  /// inside a single segment: returns a sub-buffer sharing that
  /// segment's storage.  Multi-segment ranges return nullopt (use
  /// gather()).  Throws ParseError on out-of-range.
  std::optional<Buffer> try_share(std::size_t offset, std::size_t len) const;

  /// Lazy coalescing: flatten the chain into one contiguous segment and
  /// return it.  A chain that is already single-segment returns its
  /// segment untouched (zero-copy); otherwise the segments are gathered
  /// once into fresh storage (with kPacketHeadroom in front) and the
  /// flattened segment replaces them, so repeated calls stay O(1).
  const Buffer& coalesce();

 private:
  void check_range(std::size_t offset, std::size_t len) const;

  std::deque<Buffer> segs_;
  std::size_t size_ = 0;
};

}  // namespace ipop::util
