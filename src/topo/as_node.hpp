// AS-level entities of the synthetic Internet.
//
// ASes are classified per Dhamdhere & Dovrolis [14], the taxonomy §5.2 uses
// for its last-mile analysis: Large Transit Providers (the tier-1-ish core),
// Small Transit Providers (regional carriers), Content/Access/Hosting
// Providers (residential + hosting edge), and Enterprise Customers (stubs).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "geo/cities.hpp"
#include "geo/geo.hpp"
#include "net/ip.hpp"

namespace vns::topo {

/// Index of an AS inside an Internet instance (dense, 0-based).
using AsIndex = std::uint32_t;
inline constexpr AsIndex kNoAs = ~AsIndex{0};

enum class AsType : std::uint8_t { kLTP, kSTP, kCAHP, kEC };
inline constexpr int kAsTypeCount = 4;

[[nodiscard]] constexpr std::string_view to_string(AsType type) noexcept {
  switch (type) {
    case AsType::kLTP: return "LTP";
    case AsType::kSTP: return "STP";
    case AsType::kCAHP: return "CAHP";
    case AsType::kEC: return "EC";
  }
  return "?";
}

/// A prefix originated somewhere in the synthetic Internet.
struct PrefixInfo {
  net::Ipv4Prefix prefix;
  AsIndex origin = kNoAs;
  geo::GeoPoint location;    ///< ground-truth location of the covered hosts
  /// The location a GeoIP registry would associate with the block: equals
  /// `location` for ordinary prefixes, the origin AS's home for geo-spread
  /// blocks, and the stale pre-acquisition site for M&A blocks.
  geo::GeoPoint registered_location;
  std::string country;       ///< ISO code (drives GeoIP centroid collapse)
  /// True for prefixes whose sub-blocks are spread into another region
  /// (§3.2's second geo-routing failure case; override candidates).
  bool geo_spread = false;
  /// True for prefixes with deliberately stale GeoIP records (M&A class).
  bool stale_geoip = false;
};

/// One autonomous system.
struct AsNode {
  net::Asn asn = 0;
  AsType type = AsType::kEC;
  geo::WorldRegion region = geo::WorldRegion::kEurope;
  geo::City home;                  ///< primary city
  std::vector<geo::City> pops;     ///< all cities with a PoP (home included)
  /// Cities where this AS *interconnects* with other networks.  Usually the
  /// PoP set, but some Asian providers land their transit in the US and
  /// haul traffic home over their own trans-Pacific capacity (§4.1), so
  /// their interconnects sit an ocean away from their service footprint.
  std::vector<geo::City> interconnects;

  [[nodiscard]] std::span<const geo::City> interconnect_pops() const noexcept {
    return interconnects.empty() ? std::span<const geo::City>{pops}
                                 : std::span<const geo::City>{interconnects};
  }

  // Adjacency (indices into Internet::ases()).
  std::vector<AsIndex> providers;
  std::vector<AsIndex> customers;
  std::vector<AsIndex> peers;

  /// Indices into Internet::prefixes().
  std::vector<std::size_t> prefix_ids;
};

}  // namespace vns::topo
