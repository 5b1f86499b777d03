#include "topo/delay.hpp"

#include <cassert>
#include <limits>

namespace vns::topo {

const geo::City& nearest_pop(const AsNode& as_node, const geo::GeoPoint& from) noexcept {
  assert(!as_node.pops.empty());
  const geo::City* best = &as_node.pops.front();
  double best_km = geo::great_circle_km(best->location, from);
  for (const auto& pop : as_node.pops) {
    const double km = geo::great_circle_km(pop.location, from);
    if (km < best_km) {
      best_km = km;
      best = &pop;
    }
  }
  return *best;
}

const geo::City& handoff_pop(const AsNode& as_node, const geo::City& from,
                             DestinationDistances& destination) noexcept {
  const auto pops = as_node.interconnect_pops();
  assert(!pops.empty());
  // Seed with the city of least lower-bound cost: likely the answer, and its
  // exact cost caps the least cost from above.
  const geo::City* best = &pops.front();
  double best_bound = std::numeric_limits<double>::infinity();
  for (const auto& pop : pops) {
    const double bound = geo::city_distance_km(pop, from) + destination.lower_bound(pop);
    if (bound < best_bound) {
      best_bound = bound;
      best = &pop;
    }
  }
  double best_cost = geo::city_distance_km(*best, from) + destination.from(*best);
  // Then the first cheapest city.  One whose lower bound exceeds the best
  // cost so far cannot be it, so its destination haversine is skipped.
  for (const auto& pop : pops) {
    const double from_km = geo::city_distance_km(pop, from);
    if (from_km + destination.lower_bound(pop) > best_cost) continue;
    const double cost = from_km + destination.from(pop);
    if (cost < best_cost || (cost == best_cost && &pop < best)) {
      best_cost = cost;
      best = &pop;
    }
  }
  return *best;
}

}  // namespace vns::topo
