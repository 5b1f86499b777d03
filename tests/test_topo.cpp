// Tests for vns::topo — topology generation invariants (types, geography,
// hierarchy, prefixes), Gao–Rexford routing properties (valley-freeness,
// class preference, reachability), PoP-level delay expansion, and the
// segment catalog's calibration ordering.
#include <gtest/gtest.h>

#include <set>
#include <span>
#include <vector>

#include "topo/delay.hpp"
#include "topo/internet.hpp"
#include "topo/segments.hpp"
#include "util/rng.hpp"

namespace vns::topo {
namespace {

InternetConfig small_config(std::uint64_t seed = 42) {
  InternetConfig config;
  config.seed = seed;
  config.ltp_count = 6;
  config.stp_count = 40;
  config.cahp_count = 80;
  config.ec_count = 160;
  return config;
}

const Internet& small_internet() {
  static const Internet internet = Internet::generate(small_config());
  return internet;
}

// ----------------------------------------------------------- generation ----

TEST(Generation, CountsMatchConfig) {
  const auto& internet = small_internet();
  EXPECT_EQ(internet.as_count(), 6u + 40u + 80u + 160u);
  int counts[kAsTypeCount] = {0, 0, 0, 0};
  for (const auto& node : internet.ases()) counts[static_cast<int>(node.type)]++;
  EXPECT_EQ(counts[static_cast<int>(AsType::kLTP)], 6);
  EXPECT_EQ(counts[static_cast<int>(AsType::kSTP)], 40);
  EXPECT_EQ(counts[static_cast<int>(AsType::kCAHP)], 80);
  EXPECT_EQ(counts[static_cast<int>(AsType::kEC)], 160);
}

TEST(Generation, DeterministicForSameSeed) {
  const auto a = Internet::generate(small_config(7));
  const auto b = Internet::generate(small_config(7));
  ASSERT_EQ(a.as_count(), b.as_count());
  ASSERT_EQ(a.prefixes().size(), b.prefixes().size());
  for (std::size_t i = 0; i < a.as_count(); ++i) {
    EXPECT_EQ(a.as_at(static_cast<AsIndex>(i)).home.name,
              b.as_at(static_cast<AsIndex>(i)).home.name);
    EXPECT_EQ(a.as_at(static_cast<AsIndex>(i)).providers,
              b.as_at(static_cast<AsIndex>(i)).providers);
  }
  for (std::size_t i = 0; i < a.prefixes().size(); ++i) {
    EXPECT_EQ(a.prefix(i).prefix, b.prefix(i).prefix);
  }
}

TEST(Generation, DifferentSeedsDiffer) {
  const auto a = Internet::generate(small_config(1));
  const auto b = Internet::generate(small_config(2));
  int same_home = 0;
  for (std::size_t i = 0; i < a.as_count(); ++i) {
    same_home += a.as_at(static_cast<AsIndex>(i)).home.name ==
                 b.as_at(static_cast<AsIndex>(i)).home.name;
  }
  EXPECT_LT(same_home, static_cast<int>(a.as_count()));
}

TEST(Generation, LtpsFormPeeringClique) {
  const auto& internet = small_internet();
  for (AsIndex a = 0; a < 6; ++a) {
    for (AsIndex b = 0; b < 6; ++b) {
      if (a == b) continue;
      const auto& peers = internet.as_at(a).peers;
      EXPECT_NE(std::find(peers.begin(), peers.end(), b), peers.end())
          << "LTP " << a << " not peered with " << b;
    }
  }
}

TEST(Generation, LtpsHaveGlobalFootprint) {
  const auto& internet = small_internet();
  for (AsIndex a = 0; a < 6; ++a) {
    std::set<geo::WorldRegion> regions;
    for (const auto& pop : internet.as_at(a).pops) regions.insert(pop.region);
    EXPECT_TRUE(regions.contains(geo::WorldRegion::kEurope));
    EXPECT_TRUE(regions.contains(geo::WorldRegion::kNorthCentralAmerica));
    EXPECT_TRUE(regions.contains(geo::WorldRegion::kAsiaPacific));
  }
}

TEST(Generation, EveryNonLtpHasAProvider) {
  const auto& internet = small_internet();
  for (AsIndex i = 6; i < internet.as_count(); ++i) {
    EXPECT_FALSE(internet.as_at(i).providers.empty()) << "AS index " << i;
  }
}

TEST(Generation, ProviderCustomerEdgesAreSymmetric) {
  const auto& internet = small_internet();
  for (AsIndex i = 0; i < internet.as_count(); ++i) {
    for (AsIndex p : internet.as_at(i).providers) {
      const auto& customers = internet.as_at(p).customers;
      EXPECT_NE(std::find(customers.begin(), customers.end(), i), customers.end());
    }
    for (AsIndex q : internet.as_at(i).peers) {
      const auto& back = internet.as_at(q).peers;
      EXPECT_NE(std::find(back.begin(), back.end(), i), back.end());
    }
  }
}

TEST(Generation, EcsAreStubs) {
  const auto& internet = small_internet();
  for (const auto& node : internet.ases()) {
    if (node.type == AsType::kEC) {
      EXPECT_TRUE(node.customers.empty());
    }
  }
}

TEST(Generation, PrefixesAreUniqueAndOwned) {
  const auto& internet = small_internet();
  std::set<net::Ipv4Prefix> seen;
  for (std::size_t i = 0; i < internet.prefixes().size(); ++i) {
    const auto& info = internet.prefix(i);
    EXPECT_TRUE(seen.insert(info.prefix).second) << info.prefix.to_string();
    ASSERT_LT(info.origin, internet.as_count());
    const auto& ids = internet.as_at(info.origin).prefix_ids;
    EXPECT_NE(std::find(ids.begin(), ids.end(), i), ids.end());
  }
  EXPECT_GT(internet.prefixes().size(), 400u);
}

TEST(Generation, StaleBlockExistsAndPointsAway) {
  const auto& internet = small_internet();
  int stale = 0;
  for (const auto& info : internet.prefixes()) {
    if (!info.stale_geoip) continue;
    ++stale;
    // Truth near India, registration near Toronto: > 8000 km apart.
    EXPECT_GT(geo::great_circle_km(info.location, info.registered_location), 8000.0);
  }
  EXPECT_GE(stale, small_config().stale_block_prefixes);
}

TEST(Generation, GeoSpreadPrefixesCrossRegions) {
  const auto& internet = small_internet();
  int spread = 0;
  for (const auto& info : internet.prefixes()) {
    if (!info.geo_spread) continue;
    ++spread;
    EXPECT_GT(geo::great_circle_km(info.location, info.registered_location), 1200.0);
  }
  EXPECT_GT(spread, 0);
}

TEST(Generation, IndexOfFindsAsn) {
  const auto& internet = small_internet();
  const auto& node = internet.as_at(10);
  const auto found = internet.index_of(node.asn);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, 10u);
  EXPECT_FALSE(internet.index_of(9).has_value());
}

// -------------------------------------------------------------- routing ----

/// Checks a path is valley-free: up* peer? down*.
void expect_valley_free(const Internet& internet, const std::vector<AsIndex>& path) {
  enum Phase { kUp, kPeered, kDown } phase = kUp;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const auto& current = internet.as_at(path[i]);
    const AsIndex next = path[i + 1];
    const bool up = std::find(current.providers.begin(), current.providers.end(), next) !=
                    current.providers.end();
    const bool peer =
        std::find(current.peers.begin(), current.peers.end(), next) != current.peers.end();
    const bool down = std::find(current.customers.begin(), current.customers.end(), next) !=
                      current.customers.end();
    ASSERT_TRUE(up || peer || down) << "non-adjacent hop in path";
    if (up) {
      EXPECT_EQ(phase, kUp) << "uphill after peering/downhill";
    } else if (peer) {
      EXPECT_EQ(phase, kUp) << "second peer edge or peer after downhill";
      phase = kPeered;
    } else {
      phase = kDown;
    }
  }
}

TEST(Routing, EveryAsReachesEveryOther) {
  const auto& internet = small_internet();
  // Spot-check a grid of sources against a handful of destinations.
  for (AsIndex dest : {0u, 7u, 50u, 130u, 280u}) {
    const auto table = internet.routes_to(dest);
    for (AsIndex src = 0; src < internet.as_count(); src += 17) {
      EXPECT_TRUE(table.reachable(src)) << "src " << src << " dest " << dest;
    }
  }
}

TEST(Routing, PathsAreValleyFree) {
  const auto& internet = small_internet();
  for (AsIndex dest : {3u, 60u, 150u, 270u}) {
    const auto table = internet.routes_to(dest);
    for (AsIndex src = 1; src < internet.as_count(); src += 23) {
      const auto path = table.path_from(src);
      if (path.empty()) continue;
      EXPECT_EQ(path.front(), src);
      EXPECT_EQ(path.back(), dest);
      expect_valley_free(internet, path);
    }
  }
}

TEST(Routing, SelfPathIsTrivial) {
  const auto& internet = small_internet();
  const auto table = internet.routes_to(5);
  const auto path = table.path_from(5);
  ASSERT_EQ(path.size(), 1u);
  EXPECT_EQ(path[0], 5u);
  EXPECT_EQ(table.at(5).hops, 0);
}

TEST(Routing, CustomerRoutePreferredOverShorterProviderRoute) {
  // Build a tiny custom graph through the generator? Instead verify the
  // class-preference property globally: on any computed table, an AS with a
  // customer-class route never routes via a provider or peer.
  const auto& internet = small_internet();
  const auto table = internet.routes_to(200);
  for (AsIndex src = 0; src < internet.as_count(); ++src) {
    if (!table.reachable(src) || src == 200) continue;
    const auto& entry = table.at(src);
    const auto& node = internet.as_at(src);
    const AsIndex nh = entry.next_hop;
    if (entry.cls == PathClass::kCustomer) {
      EXPECT_NE(std::find(node.customers.begin(), node.customers.end(), nh),
                node.customers.end());
    } else if (entry.cls == PathClass::kPeer) {
      EXPECT_NE(std::find(node.peers.begin(), node.peers.end(), nh), node.peers.end());
    } else {
      EXPECT_NE(std::find(node.providers.begin(), node.providers.end(), nh),
                node.providers.end());
    }
  }
}

TEST(Routing, HopCountsAreConsistentAlongPath) {
  const auto& internet = small_internet();
  const auto table = internet.routes_to(100);
  for (AsIndex src = 0; src < internet.as_count(); src += 11) {
    const auto path = table.path_from(src);
    if (path.empty()) continue;
    EXPECT_EQ(path.size(), static_cast<std::size_t>(table.at(src).hops) + 1);
  }
}

TEST(Routing, PeerRoutesUseExactlyOnePeerEdge) {
  const auto& internet = small_internet();
  const auto table = internet.routes_to(20);
  for (AsIndex src = 0; src < internet.as_count(); ++src) {
    if (table.at(src).cls != PathClass::kPeer) continue;
    const auto path = table.path_from(src);
    int peer_edges = 0;
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      const auto& peers = internet.as_at(path[i]).peers;
      peer_edges += std::find(peers.begin(), peers.end(), path[i + 1]) != peers.end();
    }
    EXPECT_EQ(peer_edges, 1) << "src " << src;
  }
}

// ---------------------------------------------------------------- delay ----

TEST(Delay, NearestPopPicksClosest) {
  const auto& internet = small_internet();
  const auto& ltp = internet.as_at(0);
  const auto from = geo::city("Amsterdam").location;
  const auto& pop = nearest_pop(ltp, from);
  for (const auto& other : ltp.pops) {
    EXPECT_LE(geo::great_circle_km(pop.location, from),
              geo::great_circle_km(other.location, from) + 1e-9);
  }
}

/// Sum of the RTT legs of a transit path (no last mile).
double transit_rtt_ms(const Internet& internet, const geo::City& source,
                      std::span<const AsIndex> as_path, const geo::City& destination,
                      const DelayModel& model = {}) {
  double rtt = 0.0;
  for (const auto& seg : transit_path_segments(
           internet, source.location, source.region, as_path, destination.location,
           AsType::kLTP, destination.region, SegmentCatalog::paper_calibrated(), model,
           /*include_last_mile=*/false)) {
    rtt += seg.rtt_ms;
  }
  return rtt;
}

TEST(Delay, TransitPathAccumulatesDistance) {
  const auto& internet = small_internet();
  const auto src = geo::city("Amsterdam");
  const auto dst = geo::city("Singapore");
  const auto path = internet.best_path(250, 0);
  ASSERT_FALSE(path.empty());
  const DelayModel model;
  const auto segments = transit_path_segments(
      internet, src.location, src.region, path, dst.location, AsType::kLTP, dst.region,
      SegmentCatalog::paper_calibrated(), model, /*include_last_mile=*/false);
  // One leg per hand-off plus the edge leg.
  EXPECT_EQ(segments.size(), path.size());
  // The legs cannot be shorter than the great circle, and every leg pays at
  // least the base fibre inflation and the per-hop cost.
  const double floor = geo::great_circle_km(src.location, dst.location) * model.rtt_ms_per_km *
                           model.path_inflation +
                       static_cast<double>(path.size()) * model.per_hop_rtt_ms;
  double rtt = 0.0;
  for (const auto& seg : segments) rtt += seg.rtt_ms;
  EXPECT_GE(rtt, floor * 0.99);
}

TEST(Delay, LongerPathsCostMore) {
  const auto& internet = small_internet();
  const auto ams = geo::city("Amsterdam");
  const double near = transit_rtt_ms(internet, ams, {}, geo::city("Frankfurt"));
  const double far = transit_rtt_ms(internet, ams, {}, geo::city("Sydney"));
  EXPECT_GT(far, near * 5.0);
}

TEST(Delay, RttScalesWithModelParameters) {
  const auto& internet = small_internet();
  const auto ams = geo::city("Amsterdam");
  const auto syd = geo::city("Sydney");
  DelayModel base_model;
  DelayModel inflated = base_model;
  inflated.path_inflation = base_model.path_inflation * 2.0;
  inflated.ap_transit_inflation = base_model.ap_transit_inflation * 2.0;
  const double base = transit_rtt_ms(internet, ams, {}, syd, base_model);
  const double doubled = transit_rtt_ms(internet, ams, {}, syd, inflated);
  EXPECT_GT(doubled, base * 1.5);
}

/// The hand-off choice written out directly: two haversines per
/// interconnect city, first strictly cheapest wins.  Reference for the
/// table- and memo-backed handoff_pop.
const geo::City& reference_handoff_pop(const AsNode& node, const geo::GeoPoint& from,
                                       const geo::GeoPoint& destination) {
  const auto pops = node.interconnect_pops();
  const geo::City* best = &pops.front();
  double best_cost = geo::great_circle_km(best->location, from) +
                     geo::great_circle_km(best->location, destination);
  for (const auto& pop : pops) {
    const double cost = geo::great_circle_km(pop.location, from) +
                        geo::great_circle_km(pop.location, destination);
    if (cost < best_cost) {
      best_cost = cost;
      best = &pop;
    }
  }
  return *best;
}

TEST(Delay, HandoffPopMatchesReferenceLoop) {
  const auto internet =
      Internet::generate_topology(InternetConfig::preset(InternetScale::kSmall, 7));
  // Both implementations are pure functions of the interconnect sequence,
  // so one AS per distinct sequence covers every AS.
  std::set<std::vector<int>> seen;
  std::vector<const AsNode*> nodes;
  for (const auto& node : internet.ases()) {
    std::vector<int> ids;
    for (const auto& pop : node.interconnect_pops()) ids.push_back(pop.id);
    if (seen.insert(std::move(ids)).second) nodes.push_back(&node);
  }
  // Awkward destinations: catalog cities themselves (coincident with a
  // candidate) and their antipodes, both poles, the antimeridian from both
  // sides, then seeded random points.
  std::vector<geo::GeoPoint> destinations;
  for (std::size_t i = 0; i < geo::kCityCount; i += 3) {
    const auto& c = geo::all_cities()[i];
    destinations.push_back(c.location);
    const double lon = c.location.longitude_deg;
    destinations.push_back({-c.location.latitude_deg, lon > 0.0 ? lon - 180.0 : lon + 180.0});
  }
  for (const double lon : {0.0, 180.0, -180.0, 104.0}) {
    destinations.push_back({90.0, lon});
    destinations.push_back({-90.0, lon});
  }
  for (const double lat : {-60.0, 0.0, 35.0, 64.0}) {
    for (const double lon : {180.0, -180.0, 179.999999, -179.999999}) {
      destinations.push_back({lat, lon});
    }
  }
  util::Rng rng{2013};
  for (int i = 0; i < 40; ++i) {
    destinations.push_back({rng.uniform(-90.0, 90.0), rng.uniform(-180.0, 180.0)});
  }
  // Sources: every catalog city, plus two points off the catalog (the
  // haversine fallback).
  std::vector<geo::City> sources{geo::all_cities().begin(), geo::all_cities().end()};
  sources.push_back({"", "", {10.0, -30.0}, geo::WorldRegion::kAfrica});
  sources.push_back({"", "", {-89.5, 179.9}, geo::WorldRegion::kOceania});

  std::size_t checked = 0;
  for (const auto& destination : destinations) {
    // One memo per destination, shared across every source and AS, as a
    // path walk shares it across its hand-offs.
    DestinationDistances memo{destination};
    for (const auto& from : sources) {
      for (const AsNode* node : nodes) {
        const geo::City& expected = reference_handoff_pop(*node, from.location, destination);
        const geo::City& actual = handoff_pop(*node, from, memo);
        ASSERT_EQ(&actual, &expected)
            << "AS " << node->asn << " from " << from.name << " (" << from.location.latitude_deg
            << ", " << from.location.longitude_deg << ") to (" << destination.latitude_deg
            << ", " << destination.longitude_deg << ")";
        ++checked;
      }
    }
  }
  EXPECT_EQ(checked, destinations.size() * sources.size() * nodes.size());
  EXPECT_GT(nodes.size(), 100u);
}

// -------------------------------------------------------------- segments ---

TEST(Segments, RegionClassMapping) {
  EXPECT_EQ(region_class(geo::WorldRegion::kEurope), RegionClass::kEU);
  EXPECT_EQ(region_class(geo::WorldRegion::kNorthCentralAmerica), RegionClass::kNA);
  EXPECT_EQ(region_class(geo::WorldRegion::kAsiaPacific), RegionClass::kAP);
  EXPECT_EQ(region_class(geo::WorldRegion::kAfrica), RegionClass::kAP);
}

TEST(Segments, LastMileLossOrderingMatchesTable1) {
  const auto catalog = SegmentCatalog::paper_calibrated();
  const auto host = geo::city("Singapore").location;
  // In AP and EU, CAHP must be the worst and LTP the best (Table 1).
  for (geo::WorldRegion region : {geo::WorldRegion::kAsiaPacific, geo::WorldRegion::kEurope}) {
    const auto ltp = catalog.last_mile(AsType::kLTP, region, host);
    const auto cahp = catalog.last_mile(AsType::kCAHP, region, host);
    const double mean_ltp = ltp.random_loss + ltp.congestion_loss * ltp.diurnal.daily_mean();
    const double mean_cahp =
        cahp.random_loss + cahp.congestion_loss * cahp.diurnal.daily_mean();
    EXPECT_GT(mean_cahp, mean_ltp * 3.0);
  }
}

TEST(Segments, NaFlattensTheTypeHierarchy) {
  const auto catalog = SegmentCatalog::paper_calibrated();
  const auto host = geo::city("Chicago").location;
  double means[kAsTypeCount];
  for (int t = 0; t < kAsTypeCount; ++t) {
    const auto seg = catalog.last_mile(static_cast<AsType>(t),
                                       geo::WorldRegion::kNorthCentralAmerica, host);
    means[t] = seg.random_loss + seg.congestion_loss * seg.diurnal.daily_mean();
  }
  // Max/min ratio in NA stays small (paper: "more blurred").
  const auto [lo, hi] = std::minmax_element(std::begin(means), std::end(means));
  EXPECT_LT(*hi / *lo, 2.0);
}

TEST(Segments, ApTransitMoreCongestedThanEu) {
  const auto catalog = SegmentCatalog::paper_calibrated();
  const auto a = geo::city("HongKong").location;
  const auto b = geo::city("Singapore").location;
  const auto eu_a = geo::city("Amsterdam").location;
  const auto eu_b = geo::city("Frankfurt").location;
  const auto ap_hop = catalog.transit_hop(a, b, RegionClass::kAP, RegionClass::kAP);
  const auto eu_hop = catalog.transit_hop(eu_a, eu_b, RegionClass::kEU, RegionClass::kEU);
  EXPECT_GT(ap_hop.congestion_loss, eu_hop.congestion_loss * 3.0);
}

TEST(Segments, TransPacificDiscountAndIntraApSurcharge) {
  const auto catalog = SegmentCatalog::paper_calibrated();
  const auto sjs = geo::city("SanJose").location;
  const auto hk = geo::city("HongKong").location;
  const auto syd = geo::city("Sydney").location;
  // NA->AP hop (trans-Pacific) is discounted relative to an equal-length
  // AP->AP hop (intra-AP surcharge): Fig. 9's SJS 5% vs SYD 43%.
  const auto trans_pacific = catalog.transit_hop(sjs, hk, RegionClass::kNA, RegionClass::kAP);
  const auto intra_ap = catalog.transit_hop(syd, hk, RegionClass::kAP, RegionClass::kAP);
  const double tp_per_km = trans_pacific.congestion_loss / geo::great_circle_km(sjs, hk);
  const double ap_per_km = intra_ap.congestion_loss / geo::great_circle_km(syd, hk);
  EXPECT_GT(ap_per_km, tp_per_km * 2.0);
}

TEST(Segments, LongHaulHopsBurstMoreOften) {
  const auto catalog = SegmentCatalog::paper_calibrated();
  const auto short_hop = catalog.transit_hop(geo::city("Amsterdam").location,
                                             geo::city("Frankfurt").location,
                                             RegionClass::kEU, RegionClass::kEU);
  const auto long_hop = catalog.transit_hop(geo::city("Amsterdam").location,
                                            geo::city("NewYork").location,
                                            RegionClass::kEU, RegionClass::kNA);
  EXPECT_GT(long_hop.burst_rate_per_day, short_hop.burst_rate_per_day * 1.2);
}

TEST(Segments, VnsLinksAreNearlyLossless) {
  const auto catalog = SegmentCatalog::paper_calibrated();
  const auto link = catalog.vns_link(geo::city("Amsterdam").location,
                                     geo::city("Frankfurt").location, /*long_haul=*/false);
  EXPECT_LT(link.random_loss, 1e-5);
  EXPECT_DOUBLE_EQ(link.congestion_loss, 0.0);
  EXPECT_DOUBLE_EQ(link.burst_rate_per_day, 0.0);
  const auto long_haul = catalog.vns_link(geo::city("Amsterdam").location,
                                          geo::city("Singapore").location, /*long_haul=*/true);
  EXPECT_GT(long_haul.burst_rate_per_day, 0.0);
  EXPECT_LT(long_haul.random_loss, 2e-4);
}

TEST(Segments, TransitPathSegmentsCoverPathAndLastMile) {
  const auto& internet = small_internet();
  const auto src = geo::city("Amsterdam").location;
  // Find an EC in AP for a long path.
  AsIndex dest = kNoAs;
  for (AsIndex i = 0; i < internet.as_count(); ++i) {
    if (internet.as_at(i).type == AsType::kEC &&
        internet.as_at(i).region == geo::WorldRegion::kAsiaPacific) {
      dest = i;
      break;
    }
  }
  ASSERT_NE(dest, kNoAs);
  const auto path = internet.best_path(0, dest);
  ASSERT_GE(path.size(), 2u);
  const auto host = internet.as_at(dest).home.location;
  const auto segments = transit_path_segments(
      internet, src, geo::WorldRegion::kEurope, path, host, AsType::kEC,
      geo::WorldRegion::kAsiaPacific, SegmentCatalog::paper_calibrated(), DelayModel{}, true);
  // One segment per AS hand-off, one edge leg, two gateways (EU out, AP in)
  // for the region crossing, one last mile.
  EXPECT_EQ(segments.size(), path.size() + 3);
  EXPECT_EQ(segments.back().label, "last-mile-EC");
  EXPECT_EQ(segments[segments.size() - 3].label, "gateway-out-EU");
  EXPECT_EQ(segments[segments.size() - 2].label, "gateway-in-AP");
  double rtt = 0;
  for (const auto& seg : segments) rtt += seg.rtt_ms;
  EXPECT_GT(rtt, 50.0);  // Amsterdam to AP cannot be fast
}

}  // namespace
}  // namespace vns::topo
