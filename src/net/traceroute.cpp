#include "net/traceroute.hpp"

#include "net/l4_patch.hpp"
#include "net/udp.hpp"

namespace ipop::net {

Traceroute::~Traceroute() {
  if (running_) {
    stack_.set_icmp_error_handler(std::move(saved_handler_));
    if (timeout_timer_ != 0) stack_.loop().cancel(timeout_timer_);
  }
}

void Traceroute::run(Ipv4Address dst, const Options& opts,
                     std::function<void(TracerouteResult)> done) {
  opts_ = opts;
  dst_ = dst;
  done_ = std::move(done);
  result_ = {};
  ttl_ = 0;
  running_ = true;
  saved_handler_ = stack_.icmp_error_handler();
  stack_.set_icmp_error_handler(
      [this](Ipv4Address from, const IcmpView& msg) {
        on_error(from, msg);
      });
  send_probe();
}

void Traceroute::send_probe() {
  ++ttl_;
  auto probe = util::Buffer::allocate(UdpView::kHeaderSize + 2,
                                      util::kPacketHeadroom);
  // Checksum 0 ("not computed", RFC 768): every translated error quote
  // along a NAT'd path must leave it zero.
  UdpView::write_header(probe.data(), opts_.src_port,
                        static_cast<std::uint16_t>(opts_.base_port + ttl_ - 1),
                        2);
  probe[UdpView::kHeaderSize] = 0x74;  // "tr"
  probe[UdpView::kHeaderSize + 1] = 0x72;
  Ipv4Packet pkt;
  pkt.hdr.proto = IpProto::kUdp;
  pkt.hdr.ttl = static_cast<std::uint8_t>(ttl_);
  pkt.hdr.dst = dst_;
  pkt.payload = std::move(probe);
  probe_sent_at_ = stack_.loop().now();
  timeout_timer_ =
      stack_.loop().schedule_after(opts_.probe_timeout, [this] {
        timeout_timer_ = 0;
        advance(TracerouteHop{ttl_, {}, false, /*timed_out=*/true, 0.0},
                /*stop=*/false);
      });
  stack_.send_ip(std::move(pkt));
}

void Traceroute::on_error(Ipv4Address from, const IcmpView& msg) {
  if (!running_ || !msg.is_error()) return;
  // Match the probe through the quoted UDP header (original IP header +
  // 8 payload bytes, RFC 792).
  auto q = parse_ipv4_quote(msg.payload);
  if (!q || q->proto != IpProto::kUdp || q->dst.ip != dst_ ||
      q->src.port != opts_.src_port ||
      q->dst.port != opts_.base_port + ttl_ - 1) {
    return;  // stale or foreign error
  }
  // Only the destination's port-unreachable (code 3) means "reached";
  // a mid-path network/host-unreachable (classic !N/!H) still ends the
  // trace — further TTLs would hit the same wall — but must not claim
  // the destination answered.
  const bool unreachable = msg.type == IcmpType::kDestUnreachable;
  const bool reached = unreachable && msg.code == 3;
  if (timeout_timer_ != 0) {
    stack_.loop().cancel(timeout_timer_);
    timeout_timer_ = 0;
  }
  advance(
      TracerouteHop{ttl_, from, reached, false,
                    util::to_milliseconds(stack_.loop().now() -
                                          probe_sent_at_)},
      /*stop=*/unreachable);
}

void Traceroute::advance(TracerouteHop hop, bool stop) {
  result_.hops.push_back(hop);
  if (hop.reached) result_.reached = true;
  if (stop || ttl_ >= opts_.max_ttl) {
    finish();
    return;
  }
  send_probe();
}

void Traceroute::finish() {
  running_ = false;
  stack_.set_icmp_error_handler(std::move(saved_handler_));
  if (done_) done_(std::move(result_));
}

}  // namespace ipop::net
