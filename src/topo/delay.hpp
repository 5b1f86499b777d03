// PoP-level delay model of AS paths.
//
// AS-level hops say nothing about propagation delay; what matters is *where*
// the traffic is handed between networks.  Transit providers hand traffic
// off hot-potato — at the interconnection point nearest the traffic's
// current position (§3.2) — so a path becomes a sequence of geographic
// waypoints: starting at the source, each next AS is entered at its PoP
// city chosen by handoff_pop, and the final hop runs to the destination
// host (transit_path_segments walks it).  RTT follows from great-circle
// distance, a fibre inflation factor, and per-hop processing.
#pragma once

#include <array>

#include "geo/cities.hpp"
#include "geo/geo.hpp"
#include "topo/internet.hpp"

namespace vns::topo {

struct DelayModel {
  /// Round-trip milliseconds per kilometre of great-circle path
  /// (light in fibre: ~100 km one-way per ms -> 0.01 ms/km RTT per km).
  double rtt_ms_per_km = 0.01;
  /// Fibre paths are not great circles; observed inflation ~1.2-1.5.
  double path_inflation = 1.3;
  /// Transit hops touching AP-class regions ride more circuitous submarine
  /// routes; VNS's leased circuits do not (this is why Singapore wins the
  /// Fig. 6 comparison: "direct dedicated links to Australia, USA, Europe").
  double ap_transit_inflation = 1.55;
  /// Router/queueing processing per AS-level hop (RTT ms).
  double per_hop_rtt_ms = 0.7;
  /// Fixed last-mile access latency (RTT ms) at the destination edge.
  double last_mile_rtt_ms = 3.0;
};

/// Great-circle distances from catalog cities to one destination point,
/// each computed at most once: the per-path memo behind handoff_pop.  Make
/// one per path; it holds nothing beyond the destination it was made for.
class DestinationDistances {
 public:
  explicit DestinationDistances(const geo::GeoPoint& destination) noexcept
      : destination_(destination), unit_(geo::unit_vector(destination)) {
    km_.fill(-1.0);
  }

  /// great_circle_km(city.location, destination), bit for bit.
  [[nodiscard]] double from(const geo::City& city) noexcept {
    if (city.id >= geo::kCityCount) return geo::great_circle_km(city.location, destination_);
    double& km = km_[city.id];
    if (km < 0.0) km = geo::great_circle_km(city.location, destination_);
    return km;
  }

  /// A trig-free lower bound on from(city); from(city) itself once known.
  [[nodiscard]] double lower_bound(const geo::City& city) noexcept {
    if (city.id >= geo::kCityCount) return from(city);
    const double km = km_[city.id];
    if (km >= 0.0) return km;
    return geo::great_circle_lower_bound_km(geo::city_tables().unit[city.id], unit_);
  }

 private:
  geo::GeoPoint destination_;
  geo::UnitVector unit_;
  std::array<double, geo::kCityCount> km_;  ///< < 0: not computed yet
};

/// The PoP city of `as_node` nearest to `from` (hot-potato entry point).
[[nodiscard]] const geo::City& nearest_pop(const AsNode& as_node,
                                           const geo::GeoPoint& from) noexcept;

/// The interconnect city of `as_node` minimizing detour on the way from
/// `from` toward the destination: the first with the least
/// city_distance_km(pop, from) + destination.from(pop) (hot-potato among
/// forward-progress interconnects: real providers interconnect densely
/// enough that hand-offs do not backtrack away from the destination).
[[nodiscard]] const geo::City& handoff_pop(const AsNode& as_node, const geo::City& from,
                                           DestinationDistances& destination) noexcept;

}  // namespace vns::topo
