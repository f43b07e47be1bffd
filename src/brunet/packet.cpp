#include "brunet/packet.hpp"

#include <algorithm>

namespace ipop::brunet {

util::BufferView Packet::payload() const {
  if (!wire_) return buf_.view();
  return buf_.view(kHeaderSize, buf_.size() - kHeaderSize);
}

util::Buffer Packet::share_payload() const {
  if (!wire_) return buf_.share();
  return buf_.share(kHeaderSize, buf_.size() - kHeaderSize);
}

void Packet::set_payload(std::vector<std::uint8_t> bytes) {
  set_payload(util::Buffer::wrap(std::move(bytes)));
}

void Packet::set_payload(util::Buffer bytes) {
  buf_ = std::move(bytes);
  wire_ = false;
}

void Packet::write_header(std::uint8_t* h) const {
  h[0] = static_cast<std::uint8_t>(type);
  h[1] = static_cast<std::uint8_t>(mode);
  h[2] = ttl;
  h[3] = hops;
  h[4] = static_cast<std::uint8_t>(msg_id >> 24);
  h[5] = static_cast<std::uint8_t>(msg_id >> 16);
  h[6] = static_cast<std::uint8_t>(msg_id >> 8);
  h[7] = static_cast<std::uint8_t>(msg_id);
  std::copy(src.bytes().begin(), src.bytes().end(), h + 8);
  std::copy(dst.bytes().begin(), dst.bytes().end(), h + 8 + Address::kBytes);
}

void Packet::finalize(std::size_t headroom) {
  if (wire_) {
    // Transit only mutates ttl/hops: sync them with two in-place patches.
    buf_.patch_u8(kTtlOffset, ttl);
    buf_.patch_u8(kHopsOffset, hops);
    return;
  }
  // Prepend the header into the payload buffer's headroom (zero-copy when
  // the storage is uniquely owned, one reallocation otherwise — with the
  // caller's per-path headroom budget in front).
  auto h = buf_.grow_front(kHeaderSize, headroom);
  write_header(h.data());
  wire_ = true;
}

util::BufferChain Packet::wire_chain(util::Buffer shared_payload,
                                     std::size_t headroom) const {
  auto hdr = util::Buffer::allocate(kHeaderSize, headroom);
  write_header(hdr.data());
  util::BufferChain chain;
  chain.append(std::move(hdr));
  chain.append(std::move(shared_payload));
  return chain;
}

util::Buffer Packet::to_wire(std::size_t headroom) {
  finalize(headroom);
  return buf_;
}

util::Buffer Packet::take_wire(std::size_t headroom) {
  finalize(headroom);
  wire_ = false;
  return std::move(buf_);
}

Packet Packet::decode(util::Buffer wire) {
  util::ByteReader r(wire.view());
  Packet p;
  p.type = static_cast<PacketType>(r.u8());
  p.mode = static_cast<RoutingMode>(r.u8());
  p.ttl = r.u8();
  p.hops = r.u8();
  p.msg_id = r.u32();
  Address::Bytes src{}, dst{};
  auto s = r.bytes(Address::kBytes);
  std::copy(s.begin(), s.end(), src.begin());
  auto d = r.bytes(Address::kBytes);
  std::copy(d.begin(), d.end(), dst.begin());
  p.src = Address(src);
  p.dst = Address(dst);
  p.buf_ = std::move(wire);
  // Ownership rule (util/buffer.hpp): a packet adopted from a transport
  // is exclusively ours even while the transport briefly holds a second
  // handle, so in-place TTL/hop patches on the forward path are
  // sanctioned against the debug patch-ownership assertion.
  p.buf_.assume_exclusive();
  p.wire_ = true;
  return p;
}

}  // namespace ipop::brunet
