#include "util/buffer_chain.hpp"

#include <cstring>

namespace ipop::util {

const Buffer& BufferChain::segment(std::size_t i) const {
  if (i >= segs_.size()) throw ParseError("BufferChain: segment out of range");
  return segs_[i];
}

void BufferChain::prepend(Buffer b) {
  if (b.empty()) return;
  size_ += b.size();
  segs_.push_front(std::move(b));
}

void BufferChain::append(Buffer b) {
  if (b.empty()) return;
  size_ += b.size();
  segs_.push_back(std::move(b));
}

void BufferChain::append(BufferChain other) {
  for (auto& seg : other.segs_) {
    append(std::move(seg));
  }
  other.clear();
}

void BufferChain::clear() {
  segs_.clear();
  size_ = 0;
}

void BufferChain::drop_front(std::size_t n) {
  if (n > size_) throw ParseError("BufferChain: drop_front past end");
  size_ -= n;
  while (n > 0) {
    Buffer& head = segs_.front();
    if (n >= head.size()) {
      n -= head.size();
      segs_.pop_front();
    } else {
      head.drop_front(n);
      n = 0;
    }
  }
}

void BufferChain::gather(std::size_t offset,
                         std::span<std::uint8_t> out) const {
  std::uint8_t* dst = out.data();
  for_each_span(offset, out.size(),
                [&dst](std::span<const std::uint8_t> span) {
                  std::memcpy(dst, span.data(), span.size());
                  dst += span.size();
                });
}

std::optional<Buffer> BufferChain::try_share(std::size_t offset,
                                             std::size_t len) const {
  check_range(offset, len);
  if (len == 0) return Buffer();
  for (const Buffer& seg : segs_) {
    if (offset < seg.size()) {
      if (len > seg.size() - offset) return std::nullopt;  // spans segments
      return seg.share(offset, len);
    }
    offset -= seg.size();
  }
  return std::nullopt;  // unreachable (checked above)
}

const Buffer& BufferChain::coalesce() {
  static const Buffer kEmpty;
  if (segs_.empty()) return kEmpty;
  if (segs_.size() == 1) return segs_.front();
  Buffer flat = Buffer::allocate(size_, kPacketHeadroom);
  gather(0, flat.writable());
  segs_.clear();
  segs_.push_back(std::move(flat));
  return segs_.front();
}

void BufferChain::check_range(std::size_t offset, std::size_t len) const {
  if (offset > size_ || len > size_ - offset) {
    throw ParseError("BufferChain: range out of bounds");
  }
}

}  // namespace ipop::util
