#include "util/buffer.hpp"

#include <cassert>
#include <cstring>

namespace ipop::util {

Buffer Buffer::filled(std::size_t size, std::uint8_t fill) {
  auto s = std::make_shared<Storage>();
  s->bytes.assign(size, fill);
  return Buffer(std::move(s), 0, size);
}

Buffer Buffer::allocate(std::size_t size, std::size_t headroom) {
  auto s = std::make_shared<Storage>();
  s->bytes.assign(headroom + size, 0);
  return Buffer(std::move(s), headroom, headroom + size);
}

Buffer Buffer::wrap(std::vector<std::uint8_t> bytes) {
  auto s = std::make_shared<Storage>();
  s->bytes = std::move(bytes);
  const std::size_t n = s->bytes.size();
  return Buffer(std::move(s), 0, n);
}

Buffer Buffer::copy_of(std::span<const std::uint8_t> data,
                       std::size_t headroom) {
  Buffer b = allocate(data.size(), headroom);
  if (!data.empty()) std::memcpy(b.data(), data.data(), data.size());
  return b;
}

const std::uint8_t* Buffer::data() const {
  return s_ ? s_->bytes.data() + begin_ : nullptr;
}

std::uint8_t* Buffer::data() {
  return s_ ? s_->bytes.data() + begin_ : nullptr;
}

std::uint8_t Buffer::operator[](std::size_t i) const {
  if (i >= size()) throw ParseError("Buffer: index out of range");
  return data()[i];
}

std::uint8_t& Buffer::operator[](std::size_t i) {
  if (i >= size()) throw ParseError("Buffer: index out of range");
  return data()[i];
}

std::span<std::uint8_t> Buffer::grow_front(std::size_t n,
                                           std::size_t realloc_headroom) {
  if (n == 0) return {data(), 0};
  if (s_ && unique() && headroom() >= n) {
    begin_ -= n;
    return {data(), n};
  }
  // Shared or cramped storage: reallocate once with fresh headroom.  The
  // old storage is left untouched, so other handles never observe the
  // prepend.
  auto s = std::make_shared<Storage>();
  s->bytes.assign(realloc_headroom + n + size(), 0);
  if (size() > 0) {
    std::memcpy(s->bytes.data() + realloc_headroom + n, data(), size());
  }
  const std::size_t new_end = realloc_headroom + n + size();
  s_ = std::move(s);
  begin_ = realloc_headroom;
  end_ = new_end;
  return {data(), n};
}

void Buffer::drop_front(std::size_t n) {
  if (n > size()) throw ParseError("Buffer: drop_front past end");
  begin_ += n;
}

void Buffer::drop_back(std::size_t n) {
  if (n > size()) throw ParseError("Buffer: drop_back past start");
  end_ -= n;
}

void Buffer::patch_u8(std::size_t offset, std::uint8_t v) {
  if (offset >= size()) throw ParseError("Buffer: patch_u8 out of range");
  assert(patchable() &&
         "Buffer: in-place patch of shared storage — call ensure_unique() "
         "(COW) or assume_exclusive() (ownership claim) first");
  data()[offset] = v;
}

void Buffer::patch_u16(std::size_t offset, std::uint16_t v) {
  if (offset + 2 > size()) throw ParseError("Buffer: patch_u16 out of range");
  assert(patchable() &&
         "Buffer: in-place patch of shared storage — call ensure_unique() "
         "(COW) or assume_exclusive() (ownership claim) first");
  data()[offset] = static_cast<std::uint8_t>(v >> 8);
  data()[offset + 1] = static_cast<std::uint8_t>(v);
}

void Buffer::ensure_unique(std::size_t headroom) {
  if (!s_ || unique()) return;
  *this = clone(headroom);
}

Buffer Buffer::share(std::size_t offset, std::size_t len) const {
  if (offset > size() || len > size() - offset) {
    throw ParseError("Buffer: share out of range");
  }
  return Buffer(s_, begin_ + offset, begin_ + offset + len);
}

Buffer Buffer::clone(std::size_t headroom) const {
  return copy_of(as_span(), headroom);
}

BufferView Buffer::view(std::size_t offset, std::size_t len) const {
  if (offset > size() || len > size() - offset) {
    throw ParseError("Buffer: view out of range");
  }
  return {data() + offset, len};
}

std::vector<std::uint8_t> Buffer::to_vector() const {
  return {begin(), end()};
}

}  // namespace ipop::util
