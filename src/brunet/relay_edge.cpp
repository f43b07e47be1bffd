#include "brunet/relay_edge.hpp"

#include "util/bytes.hpp"

namespace ipop::brunet {

util::Buffer RelayEdge::wrap(util::Buffer inner) {
  // Exclusive storage with the full downstream budget in front (wrapper
  // header + the carrying edge's own budget): prepend in place.  Callers
  // guarantee this via send()'s dispatch; anything short of the budget
  // takes exactly one counted copy here, sized so every layer below
  // prepends in place — never a second copy downstream.
  if (!inner.unique() || inner.headroom() < headroom()) {
    *wrap_copies_ += inner.size();
    // lint:allow(zero-copy): cold fallback — counted copy restores the per-path headroom budget
    inner = inner.clone(headroom());
  }
  Packet w;
  w.type = PacketType::kRelayForward;
  w.ttl = kWrapperTtl;
  w.src = local_;
  w.dst = peer_;
  w.set_payload(std::move(inner));
  // grow_front succeeds in place (unique + budget ensured above); the
  // realloc headroom argument is moot but kept honest.
  return w.take_wire(headroom());
}

void RelayEdge::send(util::Buffer bytes) {
  if (!up_ || via_ == nullptr) return;
  // A shared wire image (identity broadcast, departure notice: one
  // buffer fanned out to every edge) must not be grown in place —
  // wrap it scatter-gather style instead, same as send_chain, so the
  // fan-out costs zero copies on tunneled paths too.
  if (!bytes.unique()) {
    util::BufferChain chain;
    chain.append(std::move(bytes));
    send_chain(std::move(chain));
    return;
  }
  via_->send(wrap(std::move(bytes)));
}

void RelayEdge::send_chain(util::BufferChain chain) {
  if (!up_ || via_ == nullptr) return;
  // Scatter-gather wrap: the wrapper header rides its own segment in
  // front and the inner frame's segments (e.g. a per-destination header
  // over a fan-out-shared payload) cross the carrying edge unflattened —
  // zero bytes copied regardless of how the inner chain is shared.
  Packet w;
  w.type = PacketType::kRelayForward;
  w.ttl = kWrapperTtl;
  w.src = local_;
  w.dst = peer_;
  auto img = w.wire_chain(util::Buffer(), via_->headroom());
  chain.prepend(img.segment(0).share());
  via_->send_chain(std::move(chain));
}

void RelayEdge::close() {
  if (!up_) return;
  up_ = false;
  via_.reset();
  notify_closed();
}

TransportAddress RelayEdge::remote() const {
  return {TransportAddress::Proto::kRelay,
          net::Ipv4Address(util::load_u32(relay_.bytes().data())),
          util::load_u16(peer_.bytes().data())};
}

}  // namespace ipop::brunet
