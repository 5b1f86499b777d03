// Cross-module integration and parameterized property tests:
//   - end-to-end pipeline smoke over multiple seeds (TEST_P),
//   - BGP decision coherence under random candidate sets (TEST_P),
//   - failure injection: session withdrawal and failover at overlay scale,
//   - determinism of campaigns and sessions,
//   - control-plane quiescence (refresh with no changes is a no-op).
#include <gtest/gtest.h>

#include "bgp/decision.hpp"
#include "measure/prober.hpp"
#include "measure/workbench.hpp"
#include "media/session.hpp"
#include "sim/path_model.hpp"

namespace vns {
namespace {

// ------------------------------------------------ pipeline smoke (TEST_P) --

class PipelineSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PipelineSeeds, WorldBuildsAndGeoRoutingWorks) {
  auto world = measure::Workbench::build(measure::WorkbenchConfig::small(GetParam()));
  auto& w = *world;
  w.vns().set_geo_routing(true);

  std::size_t counted = 0, agree = 0, routed = 0;
  for (std::size_t id = 0; id < w.internet().prefixes().size(); id += 5) {
    const auto& info = w.internet().prefix(id);
    const auto egress = w.vns().egress_pop(0, info.prefix.first_host());
    routed += egress.has_value();
    const auto reported = w.geoip().lookup(info.prefix);
    if (!egress || !reported) continue;
    ++counted;
    agree += *egress == w.vns().geo_closest_pop(*reported);
  }
  ASSERT_GT(counted, 100u);
  // The geo policy must dominate regardless of seed.
  EXPECT_GT(static_cast<double>(agree) / counted, 0.85) << "seed " << GetParam();
  EXPECT_GT(routed, counted * 9 / 10);
}

TEST_P(PipelineSeeds, GeoPrecisionHoldsAcrossSeeds) {
  auto world = measure::Workbench::build(measure::WorkbenchConfig::small(GetParam()));
  auto& w = *world;
  std::size_t counted = 0, within_20ms = 0;
  for (std::size_t id = 0; id < w.internet().prefixes().size(); id += 7) {
    const auto& info = w.internet().prefix(id);
    const auto reported = w.geoip().lookup(info.prefix);
    if (!reported) continue;
    const auto geo_pop = w.vns().geo_closest_pop(*reported);
    double best = 1e18, chosen = 0;
    for (core::PopId pop = 0; pop < 11; ++pop) {
      const double rtt = w.probe_base_rtt_ms(pop, id);
      if (pop == geo_pop) chosen = rtt;
      best = std::min(best, rtt);
    }
    ++counted;
    within_20ms += (chosen - best) <= 20.0;
  }
  ASSERT_GT(counted, 50u);
  // Fig. 3's headline (90% within 20 ms) should be seed-robust to +-10 pts.
  EXPECT_GT(static_cast<double>(within_20ms) / counted, 0.80) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineSeeds, ::testing::Values(3u, 5u, 8u, 13u));

// -------------------------------------------- decision coherence (TEST_P) --

class DecisionSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DecisionSeeds, SelectBestIsCoherentWithPairwisePreference) {
  util::Rng rng{GetParam()};
  bgp::IgpTopology igp{8};
  for (bgp::RouterId a = 0; a < 8; ++a) {
    for (bgp::RouterId b = a + 1; b < 8; ++b) {
      if (rng.bernoulli(0.5)) {
        igp.add_link(a, b, static_cast<bgp::IgpMetric>(rng.uniform_int(1, 100)));
      }
    }
  }
  const bgp::DecisionContext ctx{0, &igp};

  for (int round = 0; round < 200; ++round) {
    std::vector<bgp::Route> candidates;
    const int n = static_cast<int>(rng.uniform_int(1, 12));
    for (int i = 0; i < n; ++i) {
      bgp::Route route;
      route.prefix = net::Ipv4Prefix{net::Ipv4Address{0x0A000000}, 8};
      bgp::Attributes attrs;
      attrs.local_pref = static_cast<std::uint32_t>(rng.uniform_int(100, 103));
      std::vector<net::Asn> path;
      for (int h = 0; h < static_cast<int>(rng.uniform_int(1, 4)); ++h) {
        path.push_back(static_cast<net::Asn>(rng.uniform_int(100, 104)));
      }
      attrs.as_path = bgp::AsPath{std::move(path)};
      attrs.med = static_cast<std::uint32_t>(rng.uniform_int(0, 2));
      attrs.origin = static_cast<bgp::Origin>(rng.uniform_int(0, 2));
      route.set_attrs(std::move(attrs));
      route.learned_via_ebgp = rng.bernoulli(0.5);
      route.egress = static_cast<bgp::RouterId>(rng.uniform_int(0, 7));
      route.advertiser = static_cast<bgp::RouterId>(rng.uniform_int(0, 7));
      route.neighbor = static_cast<bgp::NeighborId>(rng.uniform_int(0, 5));
      candidates.push_back(std::move(route));
    }
    const auto best = bgp::select_best(candidates, ctx);
    ASSERT_LT(best, candidates.size());
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      // Nothing is strictly preferred over the selected best.
      EXPECT_FALSE(bgp::prefer(candidates[i], candidates[best], ctx) && i != best)
          << "round " << round << " candidate " << i;
      // And preference is antisymmetric.
      if (i != best && bgp::prefer(candidates[best], candidates[i], ctx)) {
        EXPECT_FALSE(bgp::prefer(candidates[i], candidates[best], ctx));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecisionSeeds, ::testing::Values(21u, 22u, 23u, 24u, 25u));

// ----------------------------------------- path-model properties (TEST_P) --

class PathSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PathSeeds, LossProbabilityIsMonotoneInSegments) {
  util::Rng rng{GetParam()};
  const auto catalog = topo::SegmentCatalog::paper_calibrated();
  std::vector<sim::SegmentProfile> segments;
  double previous = 0.0;
  for (int i = 0; i < 6; ++i) {
    const geo::GeoPoint a{rng.uniform(-50, 50), rng.uniform(-180, 180)};
    const geo::GeoPoint b{rng.uniform(-50, 50), rng.uniform(-180, 180)};
    segments.push_back(catalog.transit_hop(
        a, b, static_cast<topo::RegionClass>(rng.uniform_int(0, 2)),
        static_cast<topo::RegionClass>(rng.uniform_int(0, 2))));
    const sim::PathModel path{segments, 0.0, util::Rng{1}};
    for (double t : {0.0, 3600.0 * 9, 3600.0 * 20}) {
      const double p = path.loss_probability(t);
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.0);
    }
    // Adding a segment can only increase instantaneous loss probability.
    const double now = path.loss_probability(12 * 3600.0);
    EXPECT_GE(now, previous - 1e-12);
    previous = now;
  }
}

TEST_P(PathSeeds, RttSamplesNeverBelowBase) {
  util::Rng seed_rng{GetParam()};
  const auto catalog = topo::SegmentCatalog::paper_calibrated();
  const geo::GeoPoint a{52.4, 4.9}, b{1.35, 103.8};
  std::vector<sim::SegmentProfile> segments{
      catalog.transit_hop(a, b, topo::RegionClass::kEU, topo::RegionClass::kAP),
      catalog.last_mile(topo::AsType::kEC, geo::WorldRegion::kAsiaPacific, b)};
  segments[0].rtt_ms = 120.0;
  const sim::PathModel path{segments, 86400.0, util::Rng{GetParam()}};
  util::Rng rng = seed_rng.fork("rtt");
  for (int i = 0; i < 2000; ++i) {
    const double t = rng.uniform(0.0, 86400.0);
    EXPECT_GE(path.sample_rtt_ms(t, rng), path.base_rtt_ms());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PathSeeds, ::testing::Values(31u, 37u, 41u));

// --------------------------------------------------- failure injection -----

TEST(FailureInjection, UpstreamSessionWithdrawalFailsOver) {
  auto world = measure::Workbench::build(measure::WorkbenchConfig::small(9));
  auto& w = *world;
  w.vns().set_geo_routing(true);

  // Pick a prefix and find which neighbor currently carries it at PoP 0.
  const auto& info = w.internet().prefix(50);
  const auto address = info.prefix.first_host();
  const auto* route = w.vns().route_at(0, address);
  ASSERT_NE(route, nullptr);
  const auto session = route->neighbor;
  ASSERT_NE(session, bgp::kNoNeighbor);

  // The neighbor withdraws the route (session failure for this prefix).
  w.vns().fabric().withdraw(session, info.prefix);
  w.vns().converge();

  const auto* after = w.vns().route_at(0, address);
  ASSERT_NE(after, nullptr) << "no failover route";
  EXPECT_NE(after->neighbor, session);

  // Re-announce: the network heals (converges back to a steady state).
  bgp::Attributes attrs;
  attrs.as_path = route->attrs().as_path;
  w.vns().fabric().announce(session, info.prefix, attrs);
  w.vns().converge();
  EXPECT_NE(w.vns().route_at(0, address), nullptr);
}

TEST(FailureInjection, WithdrawEverywhereLeavesPrefixUnrouted) {
  auto world = measure::Workbench::build(measure::WorkbenchConfig::small(10));
  auto& w = *world;
  const auto& info = w.internet().prefix(7);
  for (const auto& attachment : w.vns().attachments()) {
    w.vns().fabric().withdraw(attachment.session, info.prefix);
  }
  w.vns().converge();
  EXPECT_EQ(w.vns().route_at(0, info.prefix.first_host()), nullptr);
}

// --------------------------------------------------------- determinism -----

TEST(Determinism, RefreshWithoutChangesIsQuiescent) {
  auto world = measure::Workbench::build(measure::WorkbenchConfig::small(12));
  auto& w = *world;
  w.vns().set_geo_routing(true);
  const auto delivered = w.vns().fabric().messages_delivered();
  // A second refresh with identical policies must not emit any update.
  w.vns().fabric().refresh_policies();
  w.vns().fabric().run_to_convergence();
  EXPECT_EQ(w.vns().fabric().messages_delivered(), delivered);
}

TEST(Determinism, IdenticalWorldsProduceIdenticalRibs) {
  auto a = measure::Workbench::build(measure::WorkbenchConfig::small(14));
  auto b = measure::Workbench::build(measure::WorkbenchConfig::small(14));
  a->vns().set_geo_routing(true);
  b->vns().set_geo_routing(true);
  for (std::size_t id = 0; id < a->internet().prefixes().size(); id += 11) {
    const auto addr = a->internet().prefix(id).prefix.first_host();
    const auto ea = a->vns().egress_pop(3, addr);
    const auto eb = b->vns().egress_pop(3, addr);
    EXPECT_EQ(ea, eb) << "prefix id " << id;
  }
}

TEST(Determinism, SessionsReproducePerSeed) {
  sim::SegmentProfile seg;
  seg.rtt_ms = 80.0;
  seg.random_loss = 0.003;
  seg.jitter_base_ms = 1.0;
  seg.jitter_peak_ms = 1.0;
  const sim::PathModel path{{seg}, 0.0, util::Rng{1}};
  util::Rng rng1{777}, rng2{777};
  const auto s1 = media::run_session(path, media::VideoProfile::hd1080(), 0.0, {}, rng1);
  const auto s2 = media::run_session(path, media::VideoProfile::hd1080(), 0.0, {}, rng2);
  EXPECT_EQ(s1.packets_sent, s2.packets_sent);
  EXPECT_EQ(s1.packets_lost, s2.packets_lost);
  EXPECT_EQ(s1.slot_losses, s2.slot_losses);
  EXPECT_DOUBLE_EQ(s1.jitter_ms, s2.jitter_ms);
}

}  // namespace
}  // namespace vns
