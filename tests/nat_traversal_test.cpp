// NAT traversal: the full NAT-type pair matrix (direct / punched /
// relayed asserted per pair), reflexive-address discovery, the
// port-forwarded rendezvous, mixed-transport links, punch-timer lifetime
// under mid-punch node death, the relay path's zero-copy contract, and
// the relay's own trimming keeping the edges that carry a tunnel.
//
// The expectations encode RFC 3489 punchability physics:
//   * a full cone accepts any inbound packet on an established mapping —
//     the peer dials the observed address directly;
//   * cone-cone pairs (restricted / port-restricted) punch: the
//     overlay-coordinated simultaneous open makes each side's probe look
//     like the reply to the other's outbound packet;
//   * restricted-cone <-> symmetric punches because the restricted cone
//     filters on IP only and the symmetric NAT's per-destination mapping
//     still comes from the same IP;
//   * port-restricted <-> symmetric and symmetric <-> symmetric CANNOT
//     punch (the filter wants the exact port the symmetric NAT just
//     rewrote) — the linker must fall back to a relay tunnel through a
//     mutual neighbor.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>

#include "brunet/node.hpp"
#include "brunet/relay_edge.hpp"
#include "net/topology.hpp"

namespace ipop::brunet {
namespace {

using util::milliseconds;
using util::seconds;

net::Ipv4Address ip(const char* s) { return net::Ipv4Address::parse(s); }

/// Expected traversal outcome for a NAT-type pair.
enum class Outcome { kDirect, kPunched, kRelayed };

// seed (public 8.0.0.1) -- switch -- natA -- nodeA (192.168.1.2)
//                                \-- natB -- nodeB (192.168.2.2)
struct TraversalEnv {
  net::Network net{317};
  net::Host* seed_host = nullptr;
  net::Host* host_a = nullptr;
  net::Host* host_b = nullptr;
  net::NatBox* nat_a = nullptr;
  net::NatBox* nat_b = nullptr;
  std::unique_ptr<BrunetNode> seed;
  std::unique_ptr<BrunetNode> pub2;
  std::unique_ptr<BrunetNode> pub3;
  std::unique_ptr<BrunetNode> node_a;
  std::unique_ptr<BrunetNode> node_b;
  /// When set before build(), a second public node joins at 8.0.0.2 —
  /// giving relay-tunnel linkers a runner-up carrier to pre-arm as
  /// backup (the failover test needs two public candidates).
  bool second_public = false;
  /// When set before build(), a third public node joins at 8.0.0.3.
  bool third_public = false;
  /// When non-empty before build(), the overlay addresses of seed, pub2,
  /// pub3, node_a and node_b in that order (absent public nodes take
  /// none); otherwise every address is drawn at random.
  std::vector<Address> fixed_addrs;

  void build(net::NatType type_a, net::NatType type_b,
             TransportAddress::Proto proto_a =
                 TransportAddress::Proto::kUdp,
             TransportAddress::Proto proto_b =
                 TransportAddress::Proto::kUdp) {
    auto& sw = net.add_switch("internet");
    sim::LinkConfig lan;
    lan.delay = milliseconds(2);
    seed_host = &net.add_host("seed");
    net.connect_to_switch(seed_host->stack(), {"eth0", ip("8.0.0.1"), 24},
                          sw, lan);
    auto make_site = [&](const char* name, net::NatType t, const char* priv,
                         const char* gw, const char* pub,
                         net::NatBox** nat_out) -> net::Host* {
      auto& nat = net.add_nat(std::string(name) + "-nat", t);
      auto& h = net.add_host(name);
      net.connect(h.stack(), {"eth0", ip(priv), 24}, nat.stack(),
                  {"in", ip(gw), 24}, lan);
      net.connect_to_switch(nat.stack(), {"out", ip(pub), 24}, sw, lan);
      h.stack().add_route(net::Ipv4Prefix::parse("0.0.0.0/0"), 0, ip(gw));
      nat.stack().add_route(net::Ipv4Prefix::parse("0.0.0.0/0"), 1,
                            ip("8.0.0.1"));
      *nat_out = &nat;
      return &h;
    };
    host_a = make_site("a", type_a, "192.168.1.2", "192.168.1.254",
                       "8.0.0.10", &nat_a);
    host_b = make_site("b", type_b, "192.168.2.2", "192.168.2.254",
                       "8.0.0.20", &nat_b);

    util::Rng rng(55);
    std::size_t fixed = 0;
    auto next_addr = [&] {
      return fixed_addrs.empty() ? Address::random(rng)
                                 : fixed_addrs.at(fixed++);
    };
    NodeConfig cfg;
    cfg.transport = TransportAddress::Proto::kUdp;
    seed = std::make_unique<BrunetNode>(*seed_host, next_addr(), cfg);
    const TransportAddress first_seed_ta{TransportAddress::Proto::kUdp,
                                         ip("8.0.0.1"), 17001};
    auto add_public = [&](const char* name, const char* addr) {
      auto& h = net.add_host(name);
      net.connect_to_switch(h.stack(), {"eth0", ip(addr), 24}, sw, lan);
      auto node = std::make_unique<BrunetNode>(h, next_addr(), cfg);
      node->add_seed(first_seed_ta);
      return node;
    };
    if (second_public) pub2 = add_public("pub2", "8.0.0.2");
    if (third_public) pub3 = add_public("pub3", "8.0.0.3");
    cfg.transport = proto_a;
    node_a = std::make_unique<BrunetNode>(*host_a, next_addr(), cfg);
    cfg.transport = proto_b;
    node_b = std::make_unique<BrunetNode>(*host_b, next_addr(), cfg);
    const TransportAddress seed_ta{TransportAddress::Proto::kUdp,
                                   ip("8.0.0.1"), 17001};
    node_a->add_seed(seed_ta);
    node_b->add_seed(seed_ta);
  }

  void start_and_run(util::Duration d = seconds(60)) {
    seed->start();
    if (pub2) pub2->start();
    if (pub3) pub3->start();
    node_a->start();
    node_b->start();
    net.loop().run_until(d);
  }
};

// --- the 4x4 pair matrix ----------------------------------------------------

struct MatrixCase {
  net::NatType a;
  net::NatType b;
  Outcome expect;
};

std::string case_name(const ::testing::TestParamInfo<MatrixCase>& info) {
  std::string n = std::string(net::nat_type_name(info.param.a)) + "_" +
                  net::nat_type_name(info.param.b);
  for (auto& c : n) {
    if (c == '-') c = '_';
  }
  return n;
}

struct TraversalMatrix : TraversalEnv,
                         ::testing::TestWithParam<MatrixCase> {};

INSTANTIATE_TEST_SUITE_P(
    AllPairs, TraversalMatrix,
    ::testing::Values(
        // Any pair with a full cone side is directly dialable: the other
        // side reaches the advertised reflexive address unassisted.
        MatrixCase{net::NatType::kFullCone, net::NatType::kFullCone,
                   Outcome::kDirect},
        MatrixCase{net::NatType::kFullCone, net::NatType::kRestrictedCone,
                   Outcome::kDirect},
        MatrixCase{net::NatType::kFullCone,
                   net::NatType::kPortRestrictedCone, Outcome::kDirect},
        MatrixCase{net::NatType::kFullCone, net::NatType::kSymmetric,
                   Outcome::kDirect},
        // Filtered-filtered cone pairs need the coordinated punch.
        MatrixCase{net::NatType::kRestrictedCone,
                   net::NatType::kRestrictedCone, Outcome::kPunched},
        MatrixCase{net::NatType::kRestrictedCone,
                   net::NatType::kPortRestrictedCone, Outcome::kPunched},
        MatrixCase{net::NatType::kPortRestrictedCone,
                   net::NatType::kPortRestrictedCone, Outcome::kPunched},
        // IP-only filtering keeps rc-sym punchable...
        MatrixCase{net::NatType::kRestrictedCone, net::NatType::kSymmetric,
                   Outcome::kPunched},
        // ...but port filtering against a per-destination mapping is
        // unpunchable: the linker must tunnel through the seed.
        MatrixCase{net::NatType::kPortRestrictedCone,
                   net::NatType::kSymmetric, Outcome::kRelayed},
        MatrixCase{net::NatType::kSymmetric, net::NatType::kSymmetric,
                   Outcome::kRelayed}),
    case_name);

TEST_P(TraversalMatrix, PairConnectsWithExpectedPath) {
  const MatrixCase& c = GetParam();
  build(c.a, c.b);
  start_and_run();

  const Connection* ab = node_a->table().find(node_b->address());
  const Connection* ba = node_b->table().find(node_a->address());
  ASSERT_NE(ab, nullptr) << "A->B link missing through "
                         << net::nat_type_name(c.a) << " / "
                         << net::nat_type_name(c.b);
  ASSERT_NE(ba, nullptr) << "B->A link missing";
  ASSERT_NE(ab->edge, nullptr);
  ASSERT_NE(ba->edge, nullptr);

  const bool ab_relayed =
      ab->edge->remote().proto == TransportAddress::Proto::kRelay;
  const bool ba_relayed =
      ba->edge->remote().proto == TransportAddress::Proto::kRelay;
  switch (c.expect) {
    case Outcome::kDirect:
    case Outcome::kPunched:
      EXPECT_FALSE(ab_relayed) << "punchable pair fell back to relay";
      EXPECT_FALSE(ba_relayed);
      break;
    case Outcome::kRelayed:
      EXPECT_TRUE(ab_relayed) << "unpunchable pair linked directly?";
      EXPECT_TRUE(ba_relayed);
      EXPECT_GE(node_a->stats().links_relayed +
                    node_b->stats().links_relayed,
                1u);
      break;
  }
  if (c.expect == Outcome::kPunched) {
    // The link needed punch assistance: at least one side established
    // after its first dial round, with a punch exchange in flight.
    EXPECT_GE(node_a->stats().links_punched +
                  node_b->stats().links_punched,
              1u)
        << "filtered pair linked without the punch path";
  }
}

// --- reflexive discovery ----------------------------------------------------

TEST(NatReflexive, HandshakesDiscoverTranslatedAddressAndClass) {
  // fc-sym so the symmetric node holds DIRECT edges to two peers (seed
  // and the full-cone node): classification needs two vantage points to
  // see the per-destination mappings diverge — behind a single edge a
  // symmetric NAT is indistinguishable from a cone, by design.
  TraversalEnv f;
  f.build(net::NatType::kFullCone, net::NatType::kSymmetric);
  f.start_and_run(seconds(30));

  // The decentralized STUN: peers echoed back the translated address, so
  // the cone node advertises its public mapping alongside the private one.
  bool a_advertises_public = false;
  for (const auto& ta : f.node_a->local_addresses()) {
    if (ta.ip == ip("8.0.0.10")) a_advertises_public = true;
    EXPECT_NE(ta.proto, TransportAddress::Proto::kRelay);
  }
  EXPECT_TRUE(a_advertises_public)
      << "cone node never learned its reflexive address";

  // Self-classification: one stable mapping reads cone, per-destination
  // mappings read symmetric, the public seed sees itself untranslated.
  EXPECT_EQ(f.node_a->nat_class(), NatClass::kCone);
  EXPECT_EQ(f.node_b->nat_class(), NatClass::kSymmetric);
  EXPECT_EQ(f.seed->nat_class(), NatClass::kOpen);
}

// --- port-forwarded rendezvous ----------------------------------------------

TEST(NatPortForward, NattedSeedIsJoinableThroughForwardedPort) {
  // The hostile soak's bootstrap shape: even the rendezvous node sits
  // behind a NAT, reachable only through a static port forward.
  TraversalEnv f;
  f.build(net::NatType::kFullCone, net::NatType::kPortRestrictedCone);
  f.nat_a->add_port_forward(net::IpProto::kUdp, 17001,
                            {ip("192.168.1.2"), 17001});
  // B bootstraps off A's forwarded public endpoint, not the public seed.
  f.node_b = std::make_unique<BrunetNode>(*f.host_b, f.node_b->address(),
                                          f.node_b->config());
  f.node_b->add_seed({TransportAddress::Proto::kUdp, ip("8.0.0.10"),
                      17001});
  f.node_a->start();
  f.node_b->start();
  f.net.loop().run_until(seconds(30));
  EXPECT_TRUE(f.node_a->table().contains(f.node_b->address()));
  EXPECT_TRUE(f.node_b->table().contains(f.node_a->address()));
}

// --- mixed transports -------------------------------------------------------

TEST(NatMixedTransport, TcpNodeLinksIntoUdpOverlay) {
  TraversalEnv f;
  f.build(net::NatType::kFullCone, net::NatType::kFullCone,
          TransportAddress::Proto::kUdp, TransportAddress::Proto::kTcp);
  f.start_and_run(seconds(60));
  const Connection* ab = f.node_a->table().find(f.node_b->address());
  ASSERT_NE(ab, nullptr) << "cross-transport link never formed";
  ASSERT_NE(ab->edge, nullptr);
  EXPECT_NE(ab->edge->remote().proto, TransportAddress::Proto::kRelay);
  // The TCP-only node's candidates carry its protocol; somebody had to
  // dial through a lazily created secondary transport.
  EXPECT_GE(f.node_a->stats().links_cross_proto +
                f.node_b->stats().links_cross_proto +
                f.node_b->stats().bootstrap_cross_proto,
            1u);
}

// --- punch-timer lifetime under mid-punch death -----------------------------

TEST(NatPunchLifetime, TargetDiesMidPunchWithoutDanglingTimers) {
  // Both sides port-restricted: the link can only complete via the punch
  // exchange, so killing B the moment A has a punch in flight leaves A's
  // retry/backoff timers pointing at a corpse.  The AliveToken guards on
  // those timers must let them fire into a no-op (ASan/TSan jobs turn a
  // use-after-free here into a hard failure), and A must abandon the
  // attempt rather than retry forever.
  TraversalEnv f;
  f.build(net::NatType::kPortRestrictedCone,
          net::NatType::kPortRestrictedCone);
  f.seed->start();
  f.node_a->start();
  f.node_b->start();
  bool punching = false;
  for (int i = 0; i < 600 && !punching; ++i) {
    f.net.loop().run_until(f.net.loop().now() + milliseconds(100));
    punching = f.node_a->stats().punch_requests_sent > 0 ||
               f.node_b->stats().punch_requests_sent > 0;
  }
  ASSERT_TRUE(punching) << "punch exchange never started";
  f.node_b->stop();  // crash mid-punch: no departure notice
  f.net.loop().run_until(f.net.loop().now() + seconds(90));

  EXPECT_TRUE(f.node_a->started());
  EXPECT_FALSE(f.node_a->table().contains(f.node_b->address()))
      << "dead punch target still in the connection table";
  // The ring with the seed survives the aborted punch.
  EXPECT_TRUE(f.node_a->table().contains(f.seed->address()));
  EXPECT_TRUE(f.seed->table().contains(f.node_a->address()));
}

// --- relay path zero-copy ---------------------------------------------------

TEST(NatRelayZeroCopy, TunneledTrafficCopiesNothingAndGrowsHeadroom) {
  TraversalEnv f;
  f.build(net::NatType::kSymmetric, net::NatType::kSymmetric);
  f.start_and_run();
  const Connection* ab = f.node_a->table().find(f.node_b->address());
  ASSERT_NE(ab, nullptr);
  ASSERT_NE(ab->edge, nullptr);
  ASSERT_EQ(ab->edge->remote().proto, TransportAddress::Proto::kRelay);

  // Push overlay traffic across the tunnel both ways.
  int answered = 0;
  for (int i = 0; i < 8; ++i) {
    f.node_a->request(f.node_b->address(), PacketType::kPing,
                      RoutingMode::kExact, {1, 2, 3},
                      [&](std::optional<Packet> resp) {
                        if (resp.has_value()) ++answered;
                      });
    f.node_b->request(f.node_a->address(), PacketType::kPing,
                      RoutingMode::kExact, {4, 5, 6},
                      [&](std::optional<Packet> resp) {
                        if (resp.has_value()) ++answered;
                      });
    f.net.loop().run_until(f.net.loop().now() + seconds(1));
  }
  EXPECT_GE(answered, 8) << "tunneled overlay traffic not flowing";

  // The seed carried wrapped frames; nobody copied a byte wrapping them.
  EXPECT_GE(f.seed->stats().relay_forwarded, 1u);
  for (BrunetNode* n : {f.seed.get(), f.node_a.get(), f.node_b.get()}) {
    EXPECT_EQ(n->stats().relay_wrap_bytes_copied, 0u)
        << n->address().to_hex().substr(0, 8)
        << ": relay wrap fell off the zero-copy path";
  }
  // Per-path headroom (buffer-ownership rule 6): a node holding a relay
  // tunnel budgets for the extra encapsulation layer up front — its send
  // headroom covers the tunnel edge's full downstream stack (wrapper
  // header + the carrying edge's own budget).
  EXPECT_GE(f.node_a->send_headroom(), ab->edge->headroom());
  EXPECT_GT(ab->edge->headroom(), Packet::kHeaderSize);
  EXPECT_FALSE(f.node_a->relay_edges().empty());
}

// --- relay failover ---------------------------------------------------------

// With two public carrier candidates on the ring, the relay linker
// pre-arms the runner-up as backup.  When the active carrier departs,
// the tunnel must swap onto the backup's direct edge (relay_failovers
// ticks) and keep carrying overlay traffic — not collapse and force a
// full re-link.
TEST(NatRelayFailover, TunnelSwapsToPreArmedBackupWhenCarrierLeaves) {
  TraversalEnv f;
  f.second_public = true;
  f.build(net::NatType::kSymmetric, net::NatType::kSymmetric);
  f.start_and_run();

  const Connection* ab = f.node_a->table().find(f.node_b->address());
  ASSERT_NE(ab, nullptr);
  ASSERT_NE(ab->edge, nullptr);
  ASSERT_EQ(ab->edge->remote().proto, TransportAddress::Proto::kRelay);
  auto it = f.node_a->relay_edges().find(f.node_b->address());
  ASSERT_NE(it, f.node_a->relay_edges().end());
  const std::shared_ptr<RelayEdge> re = it->second;
  ASSERT_NE(re->backup_relay(), Address{})
      << "no backup carrier armed despite two public candidates";
  const Address active = re->relay();
  ASSERT_TRUE(active == f.seed->address() || active == f.pub2->address());

  int answered = 0;
  auto ping_both_ways = [&] {
    f.node_a->request(f.node_b->address(), PacketType::kPing,
                      RoutingMode::kExact, {1, 2, 3},
                      [&](std::optional<Packet> resp) {
                        if (resp.has_value()) ++answered;
                      });
    f.node_b->request(f.node_a->address(), PacketType::kPing,
                      RoutingMode::kExact, {4, 5, 6},
                      [&](std::optional<Packet> resp) {
                        if (resp.has_value()) ++answered;
                      });
    f.net.loop().run_until(f.net.loop().now() + seconds(1));
  };
  for (int i = 0; i < 4; ++i) ping_both_ways();
  ASSERT_GE(answered, 4) << "tunnel not carrying traffic before failover";

  // The active carrier leaves gracefully: its kDeparting notice closes
  // the via edge on both tunnel endpoints while the tunnel itself is
  // still fresh — exactly the window the pre-armed backup exists for.
  BrunetNode* carrier =
      active == f.seed->address() ? f.seed.get() : f.pub2.get();
  BrunetNode* survivor =
      carrier == f.seed.get() ? f.pub2.get() : f.seed.get();
  carrier->leave();
  f.net.loop().run_until(f.net.loop().now() + seconds(10));

  EXPECT_GE(f.node_a->stats().relay_failovers +
                f.node_b->stats().relay_failovers,
            1u)
      << "carrier death did not trigger a via swap";
  ASSERT_TRUE(f.node_a->table().contains(f.node_b->address()))
      << "tunnel died instead of failing over";
  EXPECT_EQ(re->relay(), survivor->address());
  EXPECT_TRUE(re->is_up());

  answered = 0;
  for (int i = 0; i < 6; ++i) ping_both_ways();
  EXPECT_GE(answered, 6) << "failed-over tunnel not carrying traffic";
}

// --- the relay's own trimming -----------------------------------------------

Address ring_position(std::uint8_t top, std::uint8_t bottom) {
  Address::Bytes b{};
  b[0] = top;
  b[Address::kBytes - 1] = bottom;
  return Address(b);
}

// A node relaying someone else's tunnel holds no RelayEdge of its own:
// only its record of recent relay forwards tells trim_connections that
// the two edges carrying the tunnel are load-bearing.  Here the relay
// (the seed) has a saturated near set made of two public nodes, and the
// NATed tunnel endpoints sit across the ring as plain leaf links, so any
// edge to them that does not carry the tunnel is trimmed.
TEST(NatRelayTrim, RelayKeepsEdgesCarryingATunnelThroughIt) {
  TraversalEnv f;
  f.second_public = true;
  f.third_public = true;
  // seed and pub2 adjacent, pub3 just behind them across the wrap, and
  // the symmetric pair half a ring away.  The seed is the lowest address
  // in node_b's neighborhood, so node_a picks it as the relay.
  f.fixed_addrs = {ring_position(0x00, 0x01), ring_position(0x00, 0x02),
                   Address(Address::Bytes{0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
                                          0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
                                          0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
                                          0xFF, 0xFF, 0xFF, 0xFF, 0xFF}),
                   ring_position(0x80, 0x00), ring_position(0x80, 0x01)};
  f.build(net::NatType::kSymmetric, net::NatType::kSymmetric);
  f.start_and_run();

  BrunetNode& relay = *f.seed;
  const Connection* ab = f.node_a->table().find(f.node_b->address());
  ASSERT_NE(ab, nullptr);
  ASSERT_EQ(ab->edge->remote().proto, TransportAddress::Proto::kRelay);
  auto it = f.node_a->relay_edges().find(f.node_b->address());
  ASSERT_NE(it, f.node_a->relay_edges().end());
  const std::shared_ptr<RelayEdge> tunnel = it->second;
  ASSERT_EQ(tunnel->relay(), relay.address());
  ASSERT_TRUE(relay.relay_edges().empty());
  const Connection* ra = relay.table().find(f.node_a->address());
  const Connection* rb = relay.table().find(f.node_b->address());
  ASSERT_NE(ra, nullptr);
  ASSERT_NE(rb, nullptr);
  ASSERT_FALSE(ra->peer_requested_near);
  ASSERT_FALSE(rb->peer_requested_near);
  const std::shared_ptr<Edge> carrier_a = ra->edge;
  const std::shared_ptr<Edge> carrier_b = rb->edge;

  // One near neighbor per side and no shortcut budget: pub2 and pub3
  // now fill the relay's near set, and every other link is trimmable.
  relay.config().near_per_side = 1;
  relay.config().shortcut_target = 0;
  // Keep the tunnel busy for two edge timeouts: dozens of maintenance
  // ticks, each of which runs trim_connections at the relay.
  const auto forwarded0 = relay.stats().relay_forwarded;
  int answered = 0;
  for (int i = 0; i < 30; ++i) {
    f.node_a->request(f.node_b->address(), PacketType::kPing,
                      RoutingMode::kExact, {1, 2, 3},
                      [&](std::optional<Packet> resp) {
                        if (resp.has_value()) ++answered;
                      });
    f.net.loop().run_until(f.net.loop().now() + seconds(1));
  }
  EXPECT_GE(answered, 28) << "tunneled overlay traffic not flowing";
  EXPECT_GT(relay.stats().relay_forwarded, forwarded0);
  EXPECT_EQ(relay.table().count(ConnectionType::kStructuredNear), 2u);
  ra = relay.table().find(f.node_a->address());
  rb = relay.table().find(f.node_b->address());
  ASSERT_NE(ra, nullptr) << "relay trimmed its edge to a tunnel endpoint";
  ASSERT_NE(rb, nullptr) << "relay trimmed its edge to a tunnel endpoint";
  EXPECT_NE(ra->type, ConnectionType::kStructuredNear);
  EXPECT_NE(rb->type, ConnectionType::kStructuredNear);
  EXPECT_EQ(ra->edge, carrier_a);
  EXPECT_EQ(rb->edge, carrier_b);
  EXPECT_EQ(tunnel->relay(), relay.address()) << "tunnel moved off the relay";
  EXPECT_EQ(f.node_a->stats().relay_failovers, 0u);
}

}  // namespace
}  // namespace ipop::brunet
