// A small world-city catalog used to place ASes, PoPs, prefixes, and users.
//
// The catalog is intentionally static and versioned with the code: topology
// generation must be deterministic, and the paper's geography (four
// continents, three measured regions, a handful of named PoP cities) is fully
// covered by ~70 major Internet cities.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>

#include "geo/geo.hpp"

namespace vns::geo {

/// Dense catalog index of a city: its position in all_cities().
using CityId = std::uint8_t;
/// The id of a City that did not come from the catalog.
inline constexpr CityId kNoCityId = 0xff;
/// Number of catalog cities (the size of all_cities()).
inline constexpr std::size_t kCityCount = 76;

struct City {
  std::string_view name;        ///< unique slug, e.g. "Amsterdam"
  std::string_view country;     ///< ISO-3166 alpha-2
  GeoPoint location;
  WorldRegion region;
  CityId id = kNoCityId;        ///< assigned by the catalog
};

/// The full catalog, ordered by region then name; all_cities()[i].id == i.
[[nodiscard]] std::span<const City> all_cities() noexcept;

/// Cities belonging to one world region.
[[nodiscard]] std::span<const City> cities_in(WorldRegion region) noexcept;

/// Case-sensitive lookup by slug; nullopt when unknown.
[[nodiscard]] std::optional<City> find_city(std::string_view name) noexcept;

/// Lookup that must succeed (used for the fixed VNS PoP cities);
/// terminates via assert in debug builds if the slug is unknown.
[[nodiscard]] City city(std::string_view name) noexcept;

/// Per-catalog-city tables, filled by great_circle_km and unit_vector
/// themselves so every entry is bit-identical to computing it afresh.
struct CityTables {
  std::array<std::array<double, kCityCount>, kCityCount> km;  ///< [a.id][b.id]
  std::array<UnitVector, kCityCount> unit;
};
[[nodiscard]] CityTables build_city_tables() noexcept;
/// The tables, built once on first use and never written again.
[[nodiscard]] inline const CityTables& city_tables() noexcept {
  static const CityTables tables = build_city_tables();
  return tables;
}

/// great_circle_km(a.location, b.location), bit for bit: a table read for
/// two catalog cities, the haversine otherwise.
[[nodiscard]] inline double city_distance_km(const City& a, const City& b) noexcept {
  if (a.id >= kCityCount || b.id >= kCityCount) return great_circle_km(a.location, b.location);
  return city_tables().km[a.id][b.id];
}

/// The catalog city located exactly at `point`, or null.
[[nodiscard]] const City* catalog_city_at(const GeoPoint& point) noexcept;

/// World region of an arbitrary point: the region of the nearest catalog
/// city (used to classify hosts that are not at a catalog city).
[[nodiscard]] WorldRegion region_of(const GeoPoint& point) noexcept;

}  // namespace vns::geo
