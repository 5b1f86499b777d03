#include "geo/cities.hpp"

#include <algorithm>
#include <array>
#include <cassert>

namespace vns::geo {
namespace {

// Catalog grouped by WorldRegion (contiguous blocks; see cities_in()).
constexpr City kCatalog[] = {
    // --- Oceania ---
    {"Sydney", "AU", {-33.87, 151.21}, WorldRegion::kOceania},
    {"Melbourne", "AU", {-37.81, 144.96}, WorldRegion::kOceania},
    {"Brisbane", "AU", {-27.47, 153.03}, WorldRegion::kOceania},
    {"Perth", "AU", {-31.95, 115.86}, WorldRegion::kOceania},
    {"Auckland", "NZ", {-36.85, 174.76}, WorldRegion::kOceania},
    {"Wellington", "NZ", {-41.29, 174.78}, WorldRegion::kOceania},
    // --- Asia Pacific ---
    {"Singapore", "SG", {1.35, 103.82}, WorldRegion::kAsiaPacific},
    {"HongKong", "HK", {22.32, 114.17}, WorldRegion::kAsiaPacific},
    {"Tokyo", "JP", {35.68, 139.69}, WorldRegion::kAsiaPacific},
    {"Osaka", "JP", {34.69, 135.50}, WorldRegion::kAsiaPacific},
    {"Seoul", "KR", {37.57, 126.98}, WorldRegion::kAsiaPacific},
    {"Taipei", "TW", {25.03, 121.57}, WorldRegion::kAsiaPacific},
    {"Shanghai", "CN", {31.23, 121.47}, WorldRegion::kAsiaPacific},
    {"Beijing", "CN", {39.90, 116.41}, WorldRegion::kAsiaPacific},
    {"Shenzhen", "CN", {22.54, 114.06}, WorldRegion::kAsiaPacific},
    {"Mumbai", "IN", {19.08, 72.88}, WorldRegion::kAsiaPacific},
    {"Delhi", "IN", {28.70, 77.10}, WorldRegion::kAsiaPacific},
    {"Chennai", "IN", {13.08, 80.27}, WorldRegion::kAsiaPacific},
    {"Bangalore", "IN", {12.97, 77.59}, WorldRegion::kAsiaPacific},
    {"Bangkok", "TH", {13.76, 100.50}, WorldRegion::kAsiaPacific},
    {"KualaLumpur", "MY", {3.14, 101.69}, WorldRegion::kAsiaPacific},
    {"Jakarta", "ID", {-6.21, 106.85}, WorldRegion::kAsiaPacific},
    {"Manila", "PH", {14.60, 120.98}, WorldRegion::kAsiaPacific},
    {"Hanoi", "VN", {21.03, 105.85}, WorldRegion::kAsiaPacific},
    // --- Middle East ---
    {"Dubai", "AE", {25.20, 55.27}, WorldRegion::kMiddleEast},
    {"TelAviv", "IL", {32.09, 34.78}, WorldRegion::kMiddleEast},
    {"Riyadh", "SA", {24.71, 46.68}, WorldRegion::kMiddleEast},
    {"Istanbul", "TR", {41.01, 28.98}, WorldRegion::kMiddleEast},
    {"Doha", "QA", {25.29, 51.53}, WorldRegion::kMiddleEast},
    // --- Africa ---
    {"Johannesburg", "ZA", {-26.20, 28.05}, WorldRegion::kAfrica},
    {"CapeTown", "ZA", {-33.92, 18.42}, WorldRegion::kAfrica},
    {"Cairo", "EG", {30.04, 31.24}, WorldRegion::kAfrica},
    {"Lagos", "NG", {6.52, 3.38}, WorldRegion::kAfrica},
    {"Nairobi", "KE", {-1.29, 36.82}, WorldRegion::kAfrica},
    // --- Europe ---
    {"Amsterdam", "NL", {52.37, 4.90}, WorldRegion::kEurope},
    {"Frankfurt", "DE", {50.11, 8.68}, WorldRegion::kEurope},
    {"London", "GB", {51.51, -0.13}, WorldRegion::kEurope},
    {"Oslo", "NO", {59.91, 10.75}, WorldRegion::kEurope},
    {"Paris", "FR", {48.86, 2.35}, WorldRegion::kEurope},
    {"Madrid", "ES", {40.42, -3.70}, WorldRegion::kEurope},
    {"Milan", "IT", {45.46, 9.19}, WorldRegion::kEurope},
    {"Stockholm", "SE", {59.33, 18.07}, WorldRegion::kEurope},
    {"Copenhagen", "DK", {55.68, 12.57}, WorldRegion::kEurope},
    {"Helsinki", "FI", {60.17, 24.94}, WorldRegion::kEurope},
    {"Warsaw", "PL", {52.23, 21.01}, WorldRegion::kEurope},
    {"Prague", "CZ", {50.08, 14.44}, WorldRegion::kEurope},
    {"Vienna", "AT", {48.21, 16.37}, WorldRegion::kEurope},
    {"Zurich", "CH", {47.38, 8.54}, WorldRegion::kEurope},
    {"Brussels", "BE", {50.85, 4.35}, WorldRegion::kEurope},
    {"Dublin", "IE", {53.35, -6.26}, WorldRegion::kEurope},
    {"Lisbon", "PT", {38.72, -9.14}, WorldRegion::kEurope},
    {"Bucharest", "RO", {44.43, 26.10}, WorldRegion::kEurope},
    {"Athens", "GR", {37.98, 23.73}, WorldRegion::kEurope},
    {"Moscow", "RU", {55.76, 37.62}, WorldRegion::kEurope},
    {"SaintPetersburg", "RU", {59.93, 30.34}, WorldRegion::kEurope},
    // The single mid-Russia centroid that commercial GeoIP databases collapse
    // many Russian prefixes to (§4.1's first outlier cluster).
    {"RussiaCentroid", "RU", {61.50, 104.00}, WorldRegion::kEurope},
    // --- North & Central America ---
    {"Ashburn", "US", {39.04, -77.49}, WorldRegion::kNorthCentralAmerica},
    {"Atlanta", "US", {33.75, -84.39}, WorldRegion::kNorthCentralAmerica},
    {"NewYork", "US", {40.71, -74.01}, WorldRegion::kNorthCentralAmerica},
    {"SanJose", "US", {37.34, -121.89}, WorldRegion::kNorthCentralAmerica},
    {"LosAngeles", "US", {34.05, -118.24}, WorldRegion::kNorthCentralAmerica},
    {"Seattle", "US", {47.61, -122.33}, WorldRegion::kNorthCentralAmerica},
    {"Chicago", "US", {41.88, -87.63}, WorldRegion::kNorthCentralAmerica},
    {"Dallas", "US", {32.78, -96.80}, WorldRegion::kNorthCentralAmerica},
    {"Miami", "US", {25.76, -80.19}, WorldRegion::kNorthCentralAmerica},
    {"Denver", "US", {39.74, -104.99}, WorldRegion::kNorthCentralAmerica},
    {"Toronto", "CA", {43.65, -79.38}, WorldRegion::kNorthCentralAmerica},
    {"Montreal", "CA", {45.50, -73.57}, WorldRegion::kNorthCentralAmerica},
    {"Vancouver", "CA", {49.28, -123.12}, WorldRegion::kNorthCentralAmerica},
    {"MexicoCity", "MX", {19.43, -99.13}, WorldRegion::kNorthCentralAmerica},
    // --- South America ---
    {"SaoPaulo", "BR", {-23.55, -46.63}, WorldRegion::kSouthAmerica},
    {"RioDeJaneiro", "BR", {-22.91, -43.17}, WorldRegion::kSouthAmerica},
    {"BuenosAires", "AR", {-34.60, -58.38}, WorldRegion::kSouthAmerica},
    {"Santiago", "CL", {-33.45, -70.67}, WorldRegion::kSouthAmerica},
    {"Bogota", "CO", {4.71, -74.07}, WorldRegion::kSouthAmerica},
    {"Lima", "PE", {-12.05, -77.04}, WorldRegion::kSouthAmerica},
};

// The catalog with each city's id set to its index.
constexpr auto kCities = [] {
  auto cities = std::to_array(kCatalog);
  for (std::size_t i = 0; i < cities.size(); ++i) cities[i].id = static_cast<CityId>(i);
  return cities;
}();
static_assert(kCities.size() == kCityCount && kCityCount < kNoCityId);

}  // namespace

std::span<const City> all_cities() noexcept { return kCities; }

CityTables build_city_tables() noexcept {
  CityTables tables;
  for (const auto& a : kCities) {
    for (const auto& b : kCities) tables.km[a.id][b.id] = great_circle_km(a.location, b.location);
    tables.unit[a.id] = unit_vector(a.location);
  }
  return tables;
}

const City* catalog_city_at(const GeoPoint& point) noexcept {
  for (const auto& c : kCities) {
    if (c.location == point) return &c;
  }
  return nullptr;
}

std::span<const City> cities_in(WorldRegion region) noexcept {
  const auto first = std::find_if(kCities.begin(), kCities.end(),
                                  [&](const City& c) { return c.region == region; });
  auto last = first;
  while (last != kCities.end() && last->region == region) ++last;
  return {first, last};
}

std::optional<City> find_city(std::string_view name) noexcept {
  const auto it = std::find_if(kCities.begin(), kCities.end(),
                               [&](const City& c) { return c.name == name; });
  if (it == kCities.end()) return std::nullopt;
  return *it;
}

City city(std::string_view name) noexcept {
  const auto found = find_city(name);
  assert(found.has_value() && "unknown city slug");
  return found.value_or(kCities[0]);
}

WorldRegion region_of(const GeoPoint& point) noexcept {
  const City* nearest = &kCities[0];
  double best = great_circle_km(nearest->location, point);
  for (const auto& c : kCities) {
    const double km = great_circle_km(c.location, point);
    if (km < best) {
      best = km;
      nearest = &c;
    }
  }
  return nearest->region;
}

}  // namespace vns::geo
