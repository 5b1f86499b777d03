// Tests for vns::geo — great-circle distance against known city pairs,
// destination-point inversion, region taxonomy, the city catalog, and the
// GeoIP database's lookup semantics and error-model calibration.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "geo/cities.hpp"
#include "geo/geo.hpp"
#include "geo/geoip.hpp"
#include "util/rng.hpp"

namespace vns::geo {
namespace {

TEST(GreatCircle, ZeroForCoincidentPoints) {
  const GeoPoint oslo{59.91, 10.75};
  EXPECT_DOUBLE_EQ(great_circle_km(oslo, oslo), 0.0);
}

TEST(GreatCircle, KnownCityPairs) {
  // Reference distances (city-center great circle, ±1%).
  const auto ams = city("Amsterdam").location;
  const auto lon = city("London").location;
  const auto syd = city("Sydney").location;
  const auto sjc = city("SanJose").location;
  const auto sin = city("Singapore").location;
  EXPECT_NEAR(great_circle_km(ams, lon), 358.0, 10.0);
  EXPECT_NEAR(great_circle_km(sin, syd), 6300.0, 70.0);
  EXPECT_NEAR(great_circle_km(sjc, ams), 8780.0, 100.0);
}

TEST(GreatCircle, SymmetricAndTriangleInequality) {
  const auto a = city("Tokyo").location;
  const auto b = city("Frankfurt").location;
  const auto c = city("Atlanta").location;
  EXPECT_DOUBLE_EQ(great_circle_km(a, b), great_circle_km(b, a));
  EXPECT_LE(great_circle_km(a, c), great_circle_km(a, b) + great_circle_km(b, c) + 1e-9);
}

TEST(GreatCircle, AntipodalIsHalfCircumference) {
  const GeoPoint p{0.0, 0.0};
  const GeoPoint q{0.0, 180.0};
  EXPECT_NEAR(great_circle_km(p, q), M_PI * kEarthRadiusKm, 1.0);
}

TEST(GreatCircle, LowerBoundNeverExceedsHaversine) {
  std::vector<GeoPoint> points;
  for (const auto& c : all_cities()) {
    points.push_back(c.location);
    const double lon = c.location.longitude_deg;
    points.push_back({-c.location.latitude_deg, lon > 0.0 ? lon - 180.0 : lon + 180.0});
  }
  for (const double lon : {-180.0, 0.0, 180.0}) {
    points.push_back({90.0, lon});
    points.push_back({-90.0, lon});
    points.push_back({0.0, lon});
  }
  util::Rng rng{77};
  for (int i = 0; i < 200; ++i) {
    points.push_back({rng.uniform(-90.0, 90.0), rng.uniform(-180.0, 180.0)});
  }
  for (const auto& a : points) {
    for (const auto& b : points) {
      const double bound = great_circle_lower_bound_km(unit_vector(a), unit_vector(b));
      const double km = great_circle_km(a, b);
      ASSERT_LE(bound, km) << a.latitude_deg << "," << a.longitude_deg << " -> "
                           << b.latitude_deg << "," << b.longitude_deg;
      // Tight enough to prune with: within 5 % (plus the slack) up to a
      // quarter of the globe.
      if (km < 10000.0) EXPECT_GE(bound, km * 0.95 - 1e-3);
    }
  }
}

TEST(DestinationPoint, RoundTripDistance) {
  util::Rng rng{5};
  for (int i = 0; i < 200; ++i) {
    const GeoPoint origin{rng.uniform(-60.0, 60.0), rng.uniform(-180.0, 180.0)};
    const double bearing = rng.uniform(0.0, 360.0);
    const double distance = rng.uniform(1.0, 5000.0);
    const GeoPoint moved = destination_point(origin, bearing, distance);
    EXPECT_NEAR(great_circle_km(origin, moved), distance, distance * 0.01 + 0.1);
  }
}

TEST(DestinationPoint, NorthFromEquator) {
  const GeoPoint moved = destination_point({0.0, 10.0}, 0.0, 111.2);  // ~1 degree
  EXPECT_NEAR(moved.latitude_deg, 1.0, 0.01);
  EXPECT_NEAR(moved.longitude_deg, 10.0, 0.01);
}

TEST(Regions, NamesAreStable) {
  EXPECT_EQ(to_string(WorldRegion::kEurope), "Europe");
  EXPECT_EQ(to_string(WorldRegion::kAsiaPacific), "AsiaPacific");
  EXPECT_EQ(to_string(PopRegion::kOC), "OC");
}

TEST(Regions, ExpectedPopRegionDiagonal) {
  EXPECT_EQ(expected_pop_region(WorldRegion::kEurope), PopRegion::kEU);
  EXPECT_EQ(expected_pop_region(WorldRegion::kOceania), PopRegion::kOC);
  EXPECT_EQ(expected_pop_region(WorldRegion::kAsiaPacific), PopRegion::kAP);
  EXPECT_EQ(expected_pop_region(WorldRegion::kNorthCentralAmerica), PopRegion::kUS);
  EXPECT_EQ(expected_pop_region(WorldRegion::kMiddleEast), PopRegion::kEU);
}

TEST(Cities, CatalogCoversAllRegionsAndVnsPops) {
  for (int r = 0; r < kWorldRegionCount; ++r) {
    EXPECT_FALSE(cities_in(static_cast<WorldRegion>(r)).empty()) << "region " << r;
  }
  // All eleven VNS PoP cities must exist.
  for (const char* name : {"Atlanta", "Ashburn", "NewYork", "SanJose", "Amsterdam",
                           "Frankfurt", "London", "Oslo", "HongKong", "Singapore", "Sydney"}) {
    EXPECT_TRUE(find_city(name).has_value()) << name;
  }
}

TEST(Cities, NamesAreUnique) {
  const auto cities = all_cities();
  for (std::size_t i = 0; i < cities.size(); ++i) {
    for (std::size_t j = i + 1; j < cities.size(); ++j) {
      EXPECT_NE(cities[i].name, cities[j].name);
    }
  }
}

TEST(Cities, RegionBlocksAreContiguous) {
  // cities_in depends on region-grouped ordering; verify the invariant.
  const auto cities = all_cities();
  std::size_t total = 0;
  for (int r = 0; r < kWorldRegionCount; ++r) {
    total += cities_in(static_cast<WorldRegion>(r)).size();
  }
  EXPECT_EQ(total, cities.size());
}

TEST(Cities, IdsAreCatalogPositions) {
  const auto cities = all_cities();
  ASSERT_EQ(cities.size(), kCityCount);
  for (std::size_t i = 0; i < cities.size(); ++i) {
    EXPECT_EQ(cities[i].id, i);
    EXPECT_EQ(catalog_city_at(cities[i].location), &cities[i]);
  }
  EXPECT_EQ(city("Tokyo").id, find_city("Tokyo")->id);
  EXPECT_EQ(City{}.id, kNoCityId);
  EXPECT_EQ(catalog_city_at({1.0, 2.0}), nullptr);
}

TEST(Cities, DistanceTableIsBitIdenticalToHaversine) {
  for (const auto& a : all_cities()) {
    for (const auto& b : all_cities()) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(city_distance_km(a, b)),
                std::bit_cast<std::uint64_t>(great_circle_km(a.location, b.location)))
          << a.name << " -> " << b.name;
    }
  }
  // Off-catalog cities fall back to the haversine.
  const City sea{"", "", {0.0, -30.0}, WorldRegion::kAfrica};
  const City lagos = city("Lagos");
  EXPECT_EQ(city_distance_km(sea, lagos), great_circle_km(sea.location, lagos.location));
  EXPECT_EQ(city_distance_km(lagos, sea), great_circle_km(lagos.location, sea.location));
}

TEST(Cities, UnknownLookupFails) { EXPECT_FALSE(find_city("Atlantis").has_value()); }

TEST(GeoIp, ExplicitReportLookup) {
  GeoIpDatabase db;
  const auto prefix = net::Ipv4Prefix::parse("203.0.113.0/24").value();
  const GeoPoint truth = city("Mumbai").location;
  const GeoPoint reported = city("Toronto").location;
  db.add_with_report(prefix, truth, reported, GeoIpErrorClass::kStaleRecord);

  const auto hit = db.lookup(net::Ipv4Address(203, 0, 113, 77));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, reported);
  ASSERT_NE(db.entry(prefix), nullptr);
  EXPECT_EQ(db.entry(prefix)->truth, truth);
  EXPECT_EQ(db.count(GeoIpErrorClass::kStaleRecord), 1u);
}

TEST(GeoIp, LongestPrefixWins) {
  GeoIpDatabase db;
  db.add_with_report(net::Ipv4Prefix::parse("10.0.0.0/8").value(), {1, 1}, {1, 1},
                     GeoIpErrorClass::kAccurate);
  db.add_with_report(net::Ipv4Prefix::parse("10.1.0.0/16").value(), {2, 2}, {2, 2},
                     GeoIpErrorClass::kAccurate);
  const auto hit = db.lookup(net::Ipv4Address(10, 1, 0, 5));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->latitude_deg, 2.0);
}

TEST(GeoIp, MissingLookupIsEmpty) {
  GeoIpDatabase db;
  EXPECT_FALSE(db.lookup(net::Ipv4Address(8, 8, 8, 8)).has_value());
}

TEST(GeoIp, ErrorModelAccuracyCalibration) {
  // With the default model, ~60% of prefixes must land within 100 km of the
  // truth (Poese et al. benchmark quoted in §3.2).
  GeoIpDatabase db;
  GeoIpErrorModel model;
  util::Rng rng{77};
  const GeoPoint truth = city("Frankfurt").location;
  const int total = 4000;
  for (int i = 0; i < total; ++i) {
    const net::Ipv4Prefix prefix{net::Ipv4Address{static_cast<std::uint32_t>(i << 12)}, 20};
    db.add(prefix, truth, "DE", model, rng);
  }
  int within_100km = 0;
  for (int i = 0; i < total; ++i) {
    const net::Ipv4Prefix prefix{net::Ipv4Address{static_cast<std::uint32_t>(i << 12)}, 20};
    const auto* entry = db.entry(prefix);
    ASSERT_NE(entry, nullptr);
    if (great_circle_km(entry->reported, entry->truth) < 100.0) ++within_100km;
  }
  EXPECT_NEAR(within_100km / double(total), model.accurate_fraction, 0.05);
}

TEST(GeoIp, CentroidCountryCollapses) {
  GeoIpDatabase db;
  GeoIpErrorModel model;
  model.centroid_probability = 1.0;
  util::Rng rng{78};
  const GeoPoint truth = city("Moscow").location;
  const auto prefix = net::Ipv4Prefix::parse("95.24.0.0/16").value();
  db.add(prefix, truth, "RU", model, rng);
  const auto* entry = db.entry(prefix);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->error_class, GeoIpErrorClass::kCountryCentroid);
  EXPECT_EQ(entry->reported, model.centroid_location);
}

TEST(GeoIp, NonCentroidCountryNeverCollapses) {
  GeoIpDatabase db;
  GeoIpErrorModel model;
  model.centroid_probability = 1.0;
  util::Rng rng{79};
  for (int i = 0; i < 200; ++i) {
    const net::Ipv4Prefix prefix{net::Ipv4Address{static_cast<std::uint32_t>((i + 1) << 16)}, 16};
    db.add(prefix, city("Paris").location, "FR", model, rng);
  }
  EXPECT_EQ(db.count(GeoIpErrorClass::kCountryCentroid), 0u);
}

TEST(GeoIp, PrefixLookupUsesFirstHost) {
  GeoIpDatabase db;
  const auto prefix = net::Ipv4Prefix::parse("198.51.100.0/24").value();
  db.add_with_report(prefix, {3, 3}, {3, 3}, GeoIpErrorClass::kAccurate);
  EXPECT_TRUE(db.lookup(prefix).has_value());
}

}  // namespace
}  // namespace vns::geo
