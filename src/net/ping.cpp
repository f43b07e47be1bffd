#include "net/ping.hpp"

#include <algorithm>
#include <map>

#include "util/bytes.hpp"

namespace ipop::net {

namespace {
std::uint16_t g_next_ping_id = 1;
}  // namespace

EchoReplyHandlerChain::EchoReplyHandlerChain(Stack& stack) {
  stack.set_echo_reply_handler(
      [this](Ipv4Address /*src*/, const IcmpView& msg) {
        auto it = handlers_.find(msg.id);
        if (it != handlers_.end()) it->second(msg);
      });
}

EchoReplyHandlerChain& EchoReplyHandlerChain::for_stack(Stack& stack) {
  // One chain per stack *uid* for the lifetime of the process.  Keyed by
  // uid rather than address: a later simulation may allocate a new Stack
  // at a recycled address, and the stale chain would otherwise swallow
  // its echo replies.
  static std::map<std::uint64_t, std::unique_ptr<EchoReplyHandlerChain>>
      chains;
  auto& slot = chains[stack.uid()];
  if (!slot) slot.reset(new EchoReplyHandlerChain(stack));
  return *slot;
}

Pinger::Pinger(Stack& stack) : stack_(stack), id_(g_next_ping_id++) {}

Pinger::~Pinger() { EchoReplyHandlerChain::for_stack(stack_).remove(id_); }

void Pinger::run(Ipv4Address dst, const Options& opts,
                 std::function<void(PingResult)> done) {
  opts_ = opts;
  dst_ = dst;
  done_ = std::move(done);
  result_ = PingResult{};
  next_seq_ = 0;
  EchoReplyHandlerChain::for_stack(stack_).add(
      id_, [this](const IcmpView& msg) { on_reply(msg); });
  send_next();
}

void Pinger::send_next() {
  if (next_seq_ >= opts_.count) {
    stack_.loop().schedule_after(opts_.timeout,
                                 [this, alive = alive_.guard()] {
                                   if (!alive) return;
                                   finish();
                                 });
    return;
  }
  // Payload carries the 8-byte transmit timestamp, like real ping.
  auto body = util::Buffer::allocate(
      std::max<std::size_t>(opts_.payload_size, 8), util::kPacketHeadroom);
  const auto sent_ns = static_cast<std::uint64_t>(stack_.loop().now().count());
  util::store_u32(body.data(), static_cast<std::uint32_t>(sent_ns >> 32));
  util::store_u32(body.data() + 4, static_cast<std::uint32_t>(sent_ns));
  std::fill(body.writable().begin() + 8, body.writable().end(), 0xA5);
  stack_.send_echo_request(dst_, id_, static_cast<std::uint16_t>(next_seq_),
                           std::move(body));
  ++result_.sent;
  ++next_seq_;
  stack_.loop().schedule_after(opts_.interval,
                               [this, alive = alive_.guard()] {
                                 if (!alive) return;
                                 send_next();
                               });
}

void Pinger::on_reply(const IcmpView& msg) {
  if (msg.payload.size() < 8) return;
  util::ByteReader r(msg.payload);
  const auto sent_ns = static_cast<std::int64_t>(r.u64());
  const Duration rtt = stack_.loop().now() - util::TimePoint{sent_ns};
  ++result_.received;
  result_.rtts_ms.add(util::to_milliseconds(rtt));
}

void Pinger::finish() {
  EchoReplyHandlerChain::for_stack(stack_).remove(id_);
  if (done_) {
    auto cb = std::move(done_);
    cb(std::move(result_));
  }
}

}  // namespace ipop::net
