// Geographic primitives: coordinates, great-circle distance, and the region
// taxonomies used by the paper.
//
// The paper's routing contribution reduces to one computation — the
// great-circle distance between an egress PoP and a destination prefix's
// GeoIP location (§3.2) — plus a region vocabulary for reporting: seven world
// regions for traffic origins (Fig. 7) and four PoP regions (EU/US/AP/OC).
#pragma once

#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>

namespace vns::geo {

/// Mean Earth radius in kilometres (IUGG).
inline constexpr double kEarthRadiusKm = 6371.0;

/// A point on the Earth's surface, degrees latitude/longitude.
struct GeoPoint {
  double latitude_deg = 0.0;   ///< [-90, 90], north positive
  double longitude_deg = 0.0;  ///< [-180, 180], east positive

  friend bool operator==(const GeoPoint&, const GeoPoint&) = default;
};

/// Great-circle distance via the haversine formula (§3.2, [34]).
/// Numerically stable for antipodal and coincident points.
[[nodiscard]] double great_circle_km(const GeoPoint& a, const GeoPoint& b) noexcept;

/// A point as an Earth-centred unit vector.
struct UnitVector {
  double x = 0.0, y = 0.0, z = 0.0;
};
[[nodiscard]] UnitVector unit_vector(const GeoPoint& point) noexcept;

/// A trig-free lower bound on great_circle_km: the arc is 2R asin(chord / 2),
/// and a truncation of asin's all-positive Taylor series never exceeds it.
/// The 1 m slack keeps the bound below the haversine's rounded value too.
[[nodiscard]] inline double great_circle_lower_bound_km(const UnitVector& a,
                                                        const UnitVector& b) noexcept {
  const double dx = a.x - b.x, dy = a.y - b.y, dz = a.z - b.z;
  const double s = 0.5 * std::sqrt(dx * dx + dy * dy + dz * dz);
  const double s2 = s * s;
  return 2.0 * kEarthRadiusKm * s * (1.0 + s2 * (1.0 / 6.0 + s2 * (3.0 / 40.0))) - 1e-3;
}

/// Moves a point `distance_km` towards `bearing_deg` (0 = north, 90 = east)
/// along a great circle; used to scatter prefixes around their AS home city.
[[nodiscard]] GeoPoint destination_point(const GeoPoint& origin, double bearing_deg,
                                         double distance_km) noexcept;

/// The seven world regions of Fig. 7 (traffic origins).
enum class WorldRegion : std::uint8_t {
  kOceania,
  kAsiaPacific,
  kMiddleEast,
  kAfrica,
  kEurope,
  kNorthCentralAmerica,
  kSouthAmerica,
};
inline constexpr int kWorldRegionCount = 7;

/// The four VNS PoP regions of §4.4 / Fig. 7.
enum class PopRegion : std::uint8_t { kEU, kUS, kAP, kOC };
inline constexpr int kPopRegionCount = 4;

[[nodiscard]] std::string_view to_string(WorldRegion region) noexcept;
[[nodiscard]] std::string_view to_string(PopRegion region) noexcept;

/// The PoP region that serves a given world region "by geography" —
/// the expected diagonal of Fig. 7.
[[nodiscard]] PopRegion expected_pop_region(WorldRegion region) noexcept;

}  // namespace vns::geo
