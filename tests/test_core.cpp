// Tests for vns::core — the VNS overlay itself: topology construction,
// route feeding, hot-potato "before" behaviour, geo-based cold-potato
// "after" behaviour, the management interface (force-exit, exempt, static
// more-specifics with no-export), anycast ingress selection, and the
// internal data plane.
#include <gtest/gtest.h>

#include <set>

#include "core/vns_network.hpp"
#include "geo/cities.hpp"

namespace vns::core {
namespace {

struct World {
  topo::Internet internet;
  geo::GeoIpDatabase geoip;
  VnsNetwork vns;

  World()
      : internet(topo::Internet::generate(config())),
        geoip(internet.build_geoip(geo::GeoIpErrorModel{}, 99)),
        vns(internet, geoip, vns_config()) {
    vns.feed_routes();
  }

  static topo::InternetConfig config() {
    topo::InternetConfig c;
    c.seed = 2024;
    c.ltp_count = 6;
    c.stp_count = 40;
    c.cahp_count = 80;
    c.ec_count = 160;
    return c;
  }
  static VnsConfig vns_config() {
    VnsConfig c;
    c.seed = 7;
    return c;
  }
};

World& world() {
  static World instance;
  return instance;
}

// Convenience: the first-host address of a prefix info.
net::Ipv4Address host_of(const topo::PrefixInfo& info) { return info.prefix.first_host(); }

// ------------------------------------------------------------ topology -----

TEST(VnsTopology, ElevenPopsWithPaperLayout) {
  auto& w = world();
  ASSERT_EQ(w.vns.pops().size(), 11u);
  // Display ids: 3 and 5 are US east coast, 7 is AP, 9 is EU, 10 is London.
  EXPECT_EQ(w.vns.pop(2).name, "ASH");
  EXPECT_EQ(w.vns.pop(4).name, "NYC");
  EXPECT_EQ(w.vns.pop(6).region, geo::PopRegion::kAP);
  EXPECT_EQ(w.vns.pop(8).region, geo::PopRegion::kEU);
  EXPECT_EQ(w.vns.pop(9).name, "LON");
  int per_region[geo::kPopRegionCount] = {0, 0, 0, 0};
  for (const auto& pop : w.vns.pops()) per_region[static_cast<int>(pop.region)]++;
  EXPECT_EQ(per_region[static_cast<int>(geo::PopRegion::kEU)], 4);
  EXPECT_EQ(per_region[static_cast<int>(geo::PopRegion::kUS)], 4);
  EXPECT_EQ(per_region[static_cast<int>(geo::PopRegion::kAP)], 2);
  EXPECT_EQ(per_region[static_cast<int>(geo::PopRegion::kOC)], 1);
}

TEST(VnsTopology, OverTwentyRoutersPlusReflector) {
  auto& w = world();
  // 11 PoPs x 2 routers + 1 RR (the paper: "over 20 routers in 11 PoPs").
  EXPECT_EQ(w.vns.fabric().router_count(), 23u);
  EXPECT_TRUE(w.vns.fabric().router(w.vns.reflector()).is_route_reflector());
}

TEST(VnsTopology, ClustersAreMeshedAndNotFullMeshGlobally) {
  auto& w = world();
  // EU cluster: 4 PoPs -> 6 intra links; US: 6; AP: 1; OC: 0; + 7 long-haul.
  int regional = 0, long_haul = 0;
  for (const auto& link : w.vns.links()) (link.long_haul ? long_haul : regional)++;
  EXPECT_EQ(regional, 13);
  EXPECT_EQ(long_haul, 7);
  // Far fewer than a full 11-PoP mesh (55 links): the cost argument of §3.1.
  EXPECT_LT(regional + long_haul, 30);
}

TEST(VnsTopology, AllPopPairsInternallyConnected) {
  auto& w = world();
  for (PopId a = 0; a < 11; ++a) {
    for (PopId b = 0; b < 11; ++b) {
      if (a == b) continue;
      const auto path = w.vns.internal_path(a, b);
      ASSERT_GE(path.size(), 2u) << w.vns.pop(a).name << "->" << w.vns.pop(b).name;
      EXPECT_EQ(path.front(), a);
      EXPECT_EQ(path.back(), b);
    }
  }
}

TEST(VnsTopology, InternalRttsAreGeographicallySane) {
  auto& w = world();
  const auto ams = *w.vns.find_pop("AMS");
  const auto fra = *w.vns.find_pop("FRA");
  const auto syd = *w.vns.find_pop("SYD");
  EXPECT_LT(w.vns.internal_rtt_ms(ams, fra), 10.0);
  EXPECT_GT(w.vns.internal_rtt_ms(ams, syd), 80.0);
  // Symmetry.
  EXPECT_DOUBLE_EQ(w.vns.internal_rtt_ms(ams, syd), w.vns.internal_rtt_ms(syd, ams));
}

TEST(VnsTopology, EveryPopHasUpstreamsAndMostHavePeers) {
  auto& w = world();
  int with_peers = 0;
  for (const auto& pop : w.vns.pops()) {
    EXPECT_EQ(pop.upstream_sessions.size(), 2u) << pop.name;
    with_peers += !pop.peer_sessions.empty();
  }
  EXPECT_GE(with_peers, 6);
}

TEST(VnsTopology, FindPop) {
  auto& w = world();
  EXPECT_TRUE(w.vns.find_pop("SIN").has_value());
  EXPECT_FALSE(w.vns.find_pop("XXX").has_value());
}

TEST(VnsTopology, GeoClosestPop) {
  auto& w = world();
  EXPECT_EQ(w.vns.pop(w.vns.geo_closest_pop(geo::city("Paris").location)).name, "LON");
  EXPECT_EQ(w.vns.pop(w.vns.geo_closest_pop(geo::city("Tokyo").location)).name, "HKG");
  EXPECT_EQ(w.vns.pop(w.vns.geo_closest_pop(geo::city("Melbourne").location)).name, "SYD");
  EXPECT_EQ(w.vns.pop(w.vns.geo_closest_pop(geo::city("Chicago").location)).name, "ASH");
}

// --------------------------------------------------------------- routes ----

TEST(VnsRoutes, FullTableEverywhere) {
  auto& w = world();
  // Upstream transit covers (nearly) the whole prefix space at every PoP.
  std::size_t missing = 0, total = 0;
  for (std::size_t i = 0; i < w.internet.prefixes().size(); i += 7) {
    ++total;
    if (w.vns.route_at(0, host_of(w.internet.prefix(i))) == nullptr) ++missing;
  }
  EXPECT_LT(missing, total / 50);
}

TEST(VnsRoutes, LocalExitExistsAtEveryPop) {
  auto& w = world();
  const auto& info = w.internet.prefix(3);
  for (const auto& pop : w.vns.pops()) {
    const auto route = w.vns.local_exit_route(pop.id, host_of(info));
    ASSERT_NE(route, nullptr) << pop.name;
    EXPECT_TRUE(route->learned_via_ebgp);
    EXPECT_EQ(w.vns.pop_of_router(route->egress), pop.id);
  }
}

TEST(VnsRoutes, HotPotatoBeforeGeoRouting) {
  auto& w = world();
  w.vns.set_geo_routing(false);
  // From London, a healthy share of routes must exit locally (§4.2.1:
  // "PoP 10 exited traffic locally in 70% of the cases").
  const auto lon = *w.vns.find_pop("LON");
  std::size_t local = 0, counted = 0;
  for (std::size_t i = 0; i < w.internet.prefixes().size(); i += 3) {
    const auto egress = w.vns.egress_pop(lon, host_of(w.internet.prefix(i)));
    if (!egress) continue;
    ++counted;
    local += *egress == lon;
  }
  ASSERT_GT(counted, 100u);
  EXPECT_GT(static_cast<double>(local) / counted, 0.25);  // paper-scale world reaches ~60% (see bench_fig4)
  EXPECT_LT(static_cast<double>(local) / counted, 0.95);
}

TEST(VnsRoutes, GeoRoutingPicksGeoClosestPop) {
  auto& w = world();
  w.vns.set_geo_routing(true);
  const auto lon = *w.vns.find_pop("LON");
  std::size_t agree = 0, counted = 0;
  for (std::size_t i = 0; i < w.internet.prefixes().size(); i += 3) {
    const auto& info = w.internet.prefix(i);
    const auto reported = w.geoip.lookup(info.prefix);
    if (!reported) continue;
    const auto egress = w.vns.egress_pop(lon, host_of(info));
    if (!egress) continue;
    ++counted;
    agree += *egress == w.vns.geo_closest_pop(*reported);
  }
  ASSERT_GT(counted, 100u);
  // The geographically closest PoP wins almost always; the residue is
  // peer-vs-upstream ties at equal distance quantization.
  EXPECT_GT(static_cast<double>(agree) / counted, 0.90);
  w.vns.set_geo_routing(false);
}

TEST(VnsRoutes, GeoRoutingRaisesLocalPrefAboveDefault) {
  auto& w = world();
  w.vns.set_geo_routing(true);
  const auto& info = w.internet.prefix(10);
  const auto* route = w.vns.route_at(0, host_of(info));
  ASSERT_NE(route, nullptr);
  EXPECT_GE(route->attrs().local_pref, w.vns.config().lp_floor);
  w.vns.set_geo_routing(false);
  const auto* before = w.vns.route_at(0, host_of(info));
  ASSERT_NE(before, nullptr);
  EXPECT_LE(before->attrs().local_pref, 300u);
}

TEST(VnsRoutes, GeoRoutingIsReversible) {
  auto& w = world();
  const auto lon = *w.vns.find_pop("LON");
  std::vector<std::optional<PopId>> before;
  for (std::size_t i = 0; i < 200; ++i) {
    before.push_back(w.vns.egress_pop(lon, host_of(w.internet.prefix(i))));
  }
  w.vns.set_geo_routing(true);
  w.vns.set_geo_routing(false);
  for (std::size_t i = 0; i < 200; ++i) {
    EXPECT_EQ(w.vns.egress_pop(lon, host_of(w.internet.prefix(i))), before[i]) << i;
  }
}

TEST(VnsRoutes, EgressConsistentAcrossViewpointsUnderGeo) {
  auto& w = world();
  w.vns.set_geo_routing(true);
  // Cold potato: every PoP should agree on the egress for a prefix.
  for (std::size_t i = 0; i < 60; i += 5) {
    const auto addr = host_of(w.internet.prefix(i));
    const auto reference = w.vns.egress_pop(0, addr);
    if (!reference) continue;
    for (PopId viewpoint = 1; viewpoint < 11; ++viewpoint) {
      const auto egress = w.vns.egress_pop(viewpoint, addr);
      ASSERT_TRUE(egress.has_value());
      EXPECT_EQ(*egress, *reference) << "prefix " << i << " viewpoint " << viewpoint;
    }
  }
  w.vns.set_geo_routing(false);
}

// ----------------------------------------------------------- management ----

TEST(VnsManagement, ForceExitOverridesGeo) {
  auto& w = world();
  w.vns.set_geo_routing(true);
  const auto& info = w.internet.prefix(20);
  const auto syd = *w.vns.find_pop("SYD");
  w.vns.force_exit(info.prefix, syd);
  for (PopId viewpoint = 0; viewpoint < 11; ++viewpoint) {
    const auto egress = w.vns.egress_pop(viewpoint, host_of(info));
    ASSERT_TRUE(egress.has_value());
    EXPECT_EQ(*egress, syd);
  }
  w.vns.clear_overrides();
  w.vns.set_geo_routing(false);
}

TEST(VnsManagement, ExemptPrefixFallsBackToDefaultPolicy) {
  auto& w = world();
  w.vns.set_geo_routing(true);
  const auto& info = w.internet.prefix(30);
  w.vns.exempt_prefix(info.prefix);
  const auto* route = w.vns.route_at(0, host_of(info));
  ASSERT_NE(route, nullptr);
  // Exempted: local-pref stays at the relationship tier (<= 300).
  EXPECT_LE(route->attrs().local_pref, 300u);
  w.vns.clear_overrides();
  w.vns.set_geo_routing(false);
}

TEST(VnsManagement, StaticMoreSpecificWinsByLongestMatch) {
  auto& w = world();
  w.vns.set_geo_routing(true);
  const auto& info = w.internet.prefix(40);
  // Carve a /24 out of the /16 and pin it to Singapore.
  const net::Ipv4Prefix more_specific{
      net::Ipv4Address{info.prefix.address().value() + (7u << 8)}, 24};
  const auto sin = *w.vns.find_pop("SIN");
  w.vns.add_static_more_specific(more_specific, sin);

  const auto inside = w.vns.egress_pop(0, more_specific.first_host());
  ASSERT_TRUE(inside.has_value());
  EXPECT_EQ(*inside, sin);
  // Addresses outside the /24 still follow the covering route.
  const auto outside = w.vns.egress_pop(0, info.prefix.first_host());
  ASSERT_TRUE(outside.has_value());

  // And the no-export tag keeps the static route inside the AS.
  for (const auto& attachment : w.vns.attachments()) {
    EXPECT_FALSE(w.vns.fabric().exported_to(attachment.session).contains(more_specific));
  }
  w.vns.set_geo_routing(false);
}

TEST(VnsManagement, StaticMoreSpecificNeverLeaksToAnyEbgpNeighbor) {
  auto& w = world();
  w.vns.set_geo_routing(true);
  const auto& info = w.internet.prefix(55);
  const net::Ipv4Prefix more_specific{
      net::Ipv4Address{info.prefix.address().value() + (11u << 8)}, 24};
  const auto lon = *w.vns.find_pop("LON");
  w.vns.add_static_more_specific(more_specific, lon);

  // Stronger than the attachments check: walk EVERY external session the
  // fabric knows about (upstreams, peers, anything added later) — the
  // no-export tag must keep the override out of all Adj-RIB-Out tables.
  ASSERT_GT(w.vns.fabric().neighbor_count(), 0u);
  for (bgp::NeighborId n = 0; n < w.vns.fabric().neighbor_count(); ++n) {
    EXPECT_FALSE(w.vns.fabric().exported_to(n).contains(more_specific)) << "neighbor " << n;
  }
  // But it does steer the internal exit.
  const auto inside = w.vns.egress_pop(0, more_specific.first_host());
  ASSERT_TRUE(inside.has_value());
  EXPECT_EQ(*inside, lon);
  w.vns.set_geo_routing(false);
}

// -------------------------------------------------------------- anycast ----

TEST(VnsAnycast, ServicePrefixExportedToNeighbors) {
  auto& w = world();
  std::size_t exporting = 0;
  for (const auto& attachment : w.vns.attachments()) {
    exporting +=
        w.vns.fabric().exported_to(attachment.session).contains(w.vns.config().anycast_prefix);
  }
  // Own prefix: exported on every session.
  EXPECT_EQ(exporting, w.vns.attachments().size());
}

TEST(VnsAnycast, IngressFollowsGeography) {
  auto& w = world();
  int matches = 0, total = 0;
  for (topo::AsIndex as = 0; as < w.internet.as_count(); as += 5) {
    const auto& node = w.internet.as_at(as);
    const auto expected = geo::expected_pop_region(node.region);
    const auto pop = w.vns.select_ingress(as, node.home.location);
    ASSERT_LT(pop, w.vns.pops().size());
    ++total;
    matches += w.vns.pop(pop).region == expected;
  }
  ASSERT_GT(total, 50);
  EXPECT_GT(static_cast<double>(matches) / total, 0.7);
}

TEST(VnsAnycast, WithoutStrategiesIngressDegrades) {
  auto& w = world();
  int with = 0, without = 0, total = 0;
  for (topo::AsIndex as = 0; as < w.internet.as_count(); as += 9) {
    const auto& node = w.internet.as_at(as);
    const auto expected = geo::expected_pop_region(node.region);
    ++total;
    with += w.vns.pop(w.vns.select_ingress(as, node.home.location, true)).region == expected;
    without +=
        w.vns.pop(w.vns.select_ingress(as, node.home.location, false)).region == expected;
  }
  EXPECT_GT(with, without);
}

}  // namespace
}  // namespace vns::core
