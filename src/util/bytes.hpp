// Bounds-checked big-endian byte serialization.
//
// Every wire format in the repository (Ethernet, IPv4, TCP, Brunet P2P
// packets, DHT records, NFS RPCs) is encoded through these two classes so
// that byte-order and bounds handling live in exactly one place.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace ipop::util {

/// Thrown when a reader runs past the end of its buffer.  Network-facing
/// parsers catch this at the demultiplex boundary and drop the packet, so a
/// malformed or truncated packet can never corrupt simulator state.
class ParseError : public std::runtime_error {
 public:
  explicit ParseError(const std::string& what) : std::runtime_error(what) {}
};

/// Non-owning bounds-checked view of immutable bytes: the zero-copy
/// counterpart of std::span used throughout the packet pipeline.  Every
/// accessor throws ParseError instead of invoking undefined behaviour on
/// out-of-range access, so parsers can slice wire data freely.
///
/// A BufferView does not keep the underlying storage alive; holders must
/// keep the owning util::Buffer (or vector) in scope.  Views handed out by
/// brunet::Packet alias the packet's shared buffer and remain valid for as
/// long as any handle to that buffer exists.
class BufferView {
 public:
  constexpr BufferView() = default;
  constexpr BufferView(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  BufferView(std::span<const std::uint8_t> s)  // NOLINT: intentional implicit
      : data_(s.data()), size_(s.size()) {}
  BufferView(const std::vector<std::uint8_t>& v)  // NOLINT: implicit
      : data_(v.data()), size_(v.size()) {}

  const std::uint8_t* data() const { return data_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  std::uint8_t operator[](std::size_t i) const {
    if (i >= size_) throw ParseError("BufferView: index out of range");
    return data_[i];
  }
  /// Sub-view [offset, offset+len); throws ParseError on out-of-bounds.
  BufferView subview(std::size_t offset, std::size_t len) const {
    if (offset > size_ || len > size_ - offset) {
      throw ParseError("BufferView: subview out of range");
    }
    return {data_ + offset, len};
  }
  /// Sub-view from offset to the end; throws ParseError on out-of-bounds.
  BufferView subview(std::size_t offset) const {
    if (offset > size_) throw ParseError("BufferView: subview out of range");
    return {data_ + offset, size_ - offset};
  }

  std::span<const std::uint8_t> as_span() const { return {data_, size_}; }
  operator std::span<const std::uint8_t>() const { return as_span(); }
  const std::uint8_t* begin() const { return data_; }
  const std::uint8_t* end() const { return data_ + size_; }
  std::vector<std::uint8_t> to_vector() const { return {data_, data_ + size_}; }

  friend bool operator==(BufferView a, BufferView b) {
    return a.size_ == b.size_ &&
           (a.size_ == 0 || std::memcmp(a.data_, b.data_, a.size_) == 0);
  }

 private:
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
};

/// Append-only big-endian encoder.
class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(std::size_t reserve) { buf_.reserve(reserve); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
    buf_.push_back(static_cast<std::uint8_t>(v));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v >> 16));
    u16(static_cast<std::uint16_t>(v));
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v >> 32));
    u32(static_cast<std::uint32_t>(v));
  }
  void bytes(std::span<const std::uint8_t> data) {
    buf_.insert(buf_.end(), data.begin(), data.end());
  }
  /// Length-prefixed (u32) byte string.
  void lp_bytes(std::span<const std::uint8_t> data) {
    u32(static_cast<std::uint32_t>(data.size()));
    bytes(data);
  }
  /// Length-prefixed (u32) UTF-8 string.
  void lp_string(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }
  /// Overwrite a previously written 16-bit field (e.g. a checksum slot).
  void patch_u16(std::size_t offset, std::uint16_t v) {
    if (offset + 2 > buf_.size()) throw ParseError("patch_u16 out of range");
    buf_[offset] = static_cast<std::uint8_t>(v >> 8);
    buf_[offset + 1] = static_cast<std::uint8_t>(v);
  }

  std::size_t size() const { return buf_.size(); }
  const std::vector<std::uint8_t>& data() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked big-endian decoder over a non-owning view.
///
/// Two modes of consuming byte ranges exist side by side: the historical
/// `*_copy` accessors return owning vectors, while the view-backed
/// accessors (`view_bytes`, `rest_view`) return BufferViews aliasing the
/// reader's input — the mode the zero-copy parsers in net/ use.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }
  std::uint16_t u16() {
    need(2);
    std::uint16_t v = static_cast<std::uint16_t>(data_[pos_] << 8) |
                      static_cast<std::uint16_t>(data_[pos_ + 1]);
    pos_ += 2;
    return v;
  }
  std::uint32_t u32() {
    std::uint32_t hi = u16();
    return (hi << 16) | u16();
  }
  std::uint64_t u64() {
    std::uint64_t hi = u32();
    return (hi << 32) | u32();
  }
  std::span<const std::uint8_t> bytes(std::size_t n) {
    need(n);
    auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }
  /// The next N bytes as a fixed-size array (addresses, keys, signatures).
  template <std::size_t N>
  std::array<std::uint8_t, N> array() {
    std::array<std::uint8_t, N> out;
    auto s = bytes(N);
    std::copy(s.begin(), s.end(), out.begin());
    return out;
  }
  std::vector<std::uint8_t> bytes_copy(std::size_t n) {
    auto s = bytes(n);
    return {s.begin(), s.end()};
  }
  std::vector<std::uint8_t> lp_bytes() {
    std::uint32_t n = u32();
    return bytes_copy(n);
  }
  std::string lp_string() {
    std::uint32_t n = u32();
    auto s = bytes(n);
    return {reinterpret_cast<const char*>(s.data()), s.size()};
  }
  /// Zero-copy: the next n bytes as a view aliasing the input.
  BufferView view_bytes(std::size_t n) { return BufferView(bytes(n)); }
  /// Remaining unread bytes as a view.
  std::span<const std::uint8_t> rest() { return data_.subspan(pos_); }
  /// Zero-copy: all remaining bytes as a view aliasing the input
  /// (consumes them, like rest_copy).
  BufferView rest_view() {
    auto s = rest();
    pos_ = data_.size();
    return BufferView(s);
  }
  std::vector<std::uint8_t> rest_copy() {
    auto s = rest();
    pos_ = data_.size();
    return {s.begin(), s.end()};
  }

  std::size_t remaining() const { return data_.size() - pos_; }
  std::size_t position() const { return pos_; }
  void skip(std::size_t n) {
    need(n);
    pos_ += n;
  }

 private:
  void need(std::size_t n) const {
    if (pos_ + n > data_.size()) {
      throw ParseError("ByteReader: truncated input (need " +
                       std::to_string(n) + " at " + std::to_string(pos_) +
                       " of " + std::to_string(data_.size()) + ")");
    }
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// Raw big-endian stores/loads for writing wire fields directly into
/// pre-sized buffer memory (the zero-copy codecs' counterpart of
/// ByteWriter's append API).  Callers are responsible for bounds.
inline void store_u16(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 8);
  p[1] = static_cast<std::uint8_t>(v);
}
inline void store_u32(std::uint8_t* p, std::uint32_t v) {
  store_u16(p, static_cast<std::uint16_t>(v >> 16));
  store_u16(p + 2, static_cast<std::uint16_t>(v));
}
inline std::uint16_t load_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(static_cast<std::uint16_t>(p[0]) << 8 |
                                    p[1]);
}
inline std::uint32_t load_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(load_u16(p)) << 16 | load_u16(p + 2);
}

/// Render bytes as lowercase hex (diagnostics and test assertions).
std::string to_hex(std::span<const std::uint8_t> data);

}  // namespace ipop::util
