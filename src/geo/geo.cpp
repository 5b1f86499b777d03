#include "geo/geo.hpp"

#include <algorithm>

namespace vns::geo {
namespace {

constexpr double kDegToRad = M_PI / 180.0;
constexpr double kRadToDeg = 180.0 / M_PI;

}  // namespace

double great_circle_km(const GeoPoint& a, const GeoPoint& b) noexcept {
  const double lat1 = a.latitude_deg * kDegToRad;
  const double lat2 = b.latitude_deg * kDegToRad;
  const double dlat = (b.latitude_deg - a.latitude_deg) * kDegToRad;
  const double dlon = (b.longitude_deg - a.longitude_deg) * kDegToRad;
  const double sin_dlat = std::sin(dlat / 2.0);
  const double sin_dlon = std::sin(dlon / 2.0);
  const double h = sin_dlat * sin_dlat + std::cos(lat1) * std::cos(lat2) * sin_dlon * sin_dlon;
  const double clamped = std::clamp(h, 0.0, 1.0);
  return 2.0 * kEarthRadiusKm * std::asin(std::sqrt(clamped));
}

UnitVector unit_vector(const GeoPoint& point) noexcept {
  const double lat = point.latitude_deg * kDegToRad;
  const double lon = point.longitude_deg * kDegToRad;
  return {std::cos(lat) * std::cos(lon), std::cos(lat) * std::sin(lon), std::sin(lat)};
}

GeoPoint destination_point(const GeoPoint& origin, double bearing_deg,
                           double distance_km) noexcept {
  const double angular = distance_km / kEarthRadiusKm;
  const double bearing = bearing_deg * kDegToRad;
  const double lat1 = origin.latitude_deg * kDegToRad;
  const double lon1 = origin.longitude_deg * kDegToRad;
  const double lat2 = std::asin(std::sin(lat1) * std::cos(angular) +
                                std::cos(lat1) * std::sin(angular) * std::cos(bearing));
  const double lon2 =
      lon1 + std::atan2(std::sin(bearing) * std::sin(angular) * std::cos(lat1),
                        std::cos(angular) - std::sin(lat1) * std::sin(lat2));
  double lon_deg = lon2 * kRadToDeg;
  // Normalize longitude to [-180, 180].
  while (lon_deg > 180.0) lon_deg -= 360.0;
  while (lon_deg < -180.0) lon_deg += 360.0;
  return GeoPoint{lat2 * kRadToDeg, lon_deg};
}

std::string_view to_string(WorldRegion region) noexcept {
  switch (region) {
    case WorldRegion::kOceania: return "Oceania";
    case WorldRegion::kAsiaPacific: return "AsiaPacific";
    case WorldRegion::kMiddleEast: return "MiddleEast";
    case WorldRegion::kAfrica: return "Africa";
    case WorldRegion::kEurope: return "Europe";
    case WorldRegion::kNorthCentralAmerica: return "NorthCentralAmerica";
    case WorldRegion::kSouthAmerica: return "SouthAmerica";
  }
  return "Unknown";
}

std::string_view to_string(PopRegion region) noexcept {
  switch (region) {
    case PopRegion::kEU: return "EU";
    case PopRegion::kUS: return "US";
    case PopRegion::kAP: return "AP";
    case PopRegion::kOC: return "OC";
  }
  return "Unknown";
}

PopRegion expected_pop_region(WorldRegion region) noexcept {
  switch (region) {
    case WorldRegion::kOceania: return PopRegion::kOC;
    case WorldRegion::kAsiaPacific: return PopRegion::kAP;
    case WorldRegion::kMiddleEast: return PopRegion::kEU;  // nearest VNS PoPs are European
    case WorldRegion::kAfrica: return PopRegion::kEU;
    case WorldRegion::kEurope: return PopRegion::kEU;
    case WorldRegion::kNorthCentralAmerica: return PopRegion::kUS;
    case WorldRegion::kSouthAmerica: return PopRegion::kUS;
  }
  return PopRegion::kEU;
}

}  // namespace vns::geo
