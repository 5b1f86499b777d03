#include "topo/segments.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <string>

#include "sim/time.hpp"

namespace vns::topo {

RegionClass region_class(geo::WorldRegion region) noexcept {
  switch (region) {
    case geo::WorldRegion::kEurope:
      return RegionClass::kEU;
    case geo::WorldRegion::kNorthCentralAmerica:
    case geo::WorldRegion::kOceania:
      return RegionClass::kNA;
    case geo::WorldRegion::kAsiaPacific:
    case geo::WorldRegion::kMiddleEast:
    case geo::WorldRegion::kAfrica:
    case geo::WorldRegion::kSouthAmerica:
      return RegionClass::kAP;
  }
  return RegionClass::kEU;
}

RegionClass transit_region_class(geo::WorldRegion region) noexcept {
  if (region == geo::WorldRegion::kOceania) return RegionClass::kAP;
  return region_class(region);
}

namespace {

/// Diurnal profile of a last-mile network by AS type and region class.
/// §5.2.3: CAHPs are residential-evening driven; LTPs in NA and AP carry
/// home traffic too; ECs follow business hours.
sim::DiurnalProfile last_mile_profile(AsType type, RegionClass cls) {
  switch (type) {
    case AsType::kLTP:
      return cls == RegionClass::kEU ? sim::DiurnalProfile::business(0.008, 0.5)
                                     : sim::DiurnalProfile::residential(0.008, 0.55);
    case AsType::kSTP:
      return sim::DiurnalProfile{0.008, 0.45, 0.35};
    case AsType::kCAHP:
      // Content/Access/Hosting: hosting load through the working day plus
      // the residential evening peak (the paper's 8x working-hours jump for
      // AP CAHPs plus the residential-congestion conclusion).
      return sim::DiurnalProfile{0.008, 0.55, 0.60};
    case AsType::kEC:
      return sim::DiurnalProfile::business(0.008, 0.6);
  }
  return sim::DiurnalProfile::flat(0.2);
}

/// daily_mean() of last_mile_profile(type, cls), computed once per pair.
double last_mile_daily_mean(AsType type, RegionClass cls) {
  static const auto means = [] {
    std::array<double, kAsTypeCount * 3> table{};
    for (std::size_t i = 0; i < table.size(); ++i) {
      table[i] = last_mile_profile(AsType(i / 3), RegionClass(i % 3)).daily_mean();
    }
    return table;
  }();
  return means[static_cast<std::size_t>(type) * 3 + static_cast<std::size_t>(cls)];
}

}  // namespace

sim::SegmentProfile SegmentCatalog::last_mile(AsType type, geo::WorldRegion region,
                                              const geo::GeoPoint& host) const {
  const RegionClass cls = region_class(region);
  const auto profile = last_mile_profile(type, cls);
  const double mean_loss =
      last_mile_mean_pct[static_cast<int>(cls)][static_cast<int>(type)] / 100.0;

  sim::SegmentProfile seg;
  seg.label.append("last-mile-").append(to_string(type));
  seg.rtt_ms = 0.0;  // access latency is part of DelayModel::last_mile_rtt_ms
  // Last-mile loss is congestion: almost all of the mean follows the
  // diurnal profile, with only a small time-uniform residue — quiet hours
  // are nearly loss-free, which is what gives Fig. 12 its strong contrast.
  seg.random_loss = 0.015 * mean_loss;
  const double daily_mean = std::max(last_mile_daily_mean(type, cls), 1e-6);
  seg.congestion_loss = 0.985 * mean_loss / daily_mean;
  seg.diurnal = profile;
  seg.tz_offset_hours = sim::tz_from_longitude(host.longitude_deg);
  seg.burst_rate_per_day = last_mile_burst_per_day[static_cast<int>(cls)];
  seg.burst_duration_mean_s = 4.0;
  seg.burst_duration_sigma = 1.2;
  seg.burst_loss = 0.35;
  seg.jitter_base_ms = 0.3;
  seg.jitter_peak_ms = 3.0;
  return seg;
}

sim::SegmentProfile SegmentCatalog::transit_hop(const geo::GeoPoint& from,
                                                const geo::GeoPoint& to, double km,
                                                RegionClass from_class,
                                                RegionClass to_class) const {
  const RegionClass hop_class = std::max(from_class, to_class);
  const bool intra_ap = from_class == RegionClass::kAP && to_class == RegionClass::kAP;
  const bool trans_pacific =
      (from_class == RegionClass::kNA && to_class == RegionClass::kAP) ||
      (from_class == RegionClass::kAP && to_class == RegionClass::kNA);

  sim::SegmentProfile seg;
  seg.label = "transit-hop";
  seg.rtt_ms = 0.0;  // set by transit_path_segments from the delay model
  seg.capacity_mbps = transit_capacity_mbps;
  seg.random_loss = transit_random_loss;
  const double factor = transit_region_factor[static_cast<int>(hop_class)] *
                        (intra_ap ? intra_ap_factor : 1.0) *
                        (trans_pacific ? na_ap_discount : 1.0);
  // Long links traverse more multiplexed infrastructure: congestion scales
  // with length, with a floor so even metro hops feel peak hours a little.
  seg.congestion_loss =
      transit_congestion_per_1000km * std::clamp(km, 250.0, congestion_km_cap) / 1000.0 * factor;
  // Transit backbones congest with business-day load of the hop's locale.
  seg.diurnal = sim::DiurnalProfile{0.04, 0.55, 0.30};
  // Circular mean of the longitudes: a plain average puts the midpoint of
  // a trans-Pacific hop in the Atlantic and keys congestion to the wrong
  // clock.
  const double lon_a = from.longitude_deg * M_PI / 180.0;
  const double lon_b = to.longitude_deg * M_PI / 180.0;
  const double mid_longitude =
      std::atan2(std::sin(lon_a) + std::sin(lon_b), std::cos(lon_a) + std::cos(lon_b)) *
      180.0 / M_PI;
  seg.tz_offset_hours = sim::tz_from_longitude(mid_longitude);
  seg.burst_rate_per_day =
      transit_burst_per_day * std::max(1.0, km / transit_burst_km_scale);
  seg.burst_duration_mean_s = 6.0;
  seg.burst_duration_sigma = 1.5;  // heavy tail: some events span sessions
  seg.burst_loss = transit_burst_loss;
  seg.jitter_base_ms = 0.15;
  seg.jitter_peak_ms = transit_jitter_peak_ms;
  return seg;
}

sim::SegmentProfile SegmentCatalog::vns_link(const geo::GeoPoint& from, const geo::GeoPoint& to,
                                             bool long_haul) const {
  const double km = geo::great_circle_km(from, to);
  sim::SegmentProfile seg;
  seg.label = long_haul ? "vns-l2-long-haul" : "vns-l2-regional";
  seg.rtt_ms = 0.0;  // set by the caller from the delay model
  seg.random_loss = vns_random_loss_per_1000km * km / 1000.0;
  // Guaranteed bandwidth means no provider-side diurnal congestion at all —
  // but the circuit is not infinite.  Its size lives in capacity_mbps, so
  // overload surfaces as utilization-driven loss instead of being hidden
  // behind a zero here.
  seg.congestion_loss = 0.0;
  seg.capacity_mbps = long_haul ? vns_long_haul_capacity_mbps : vns_regional_capacity_mbps;
  seg.diurnal = sim::DiurnalProfile::flat(0.0);
  if (long_haul) {
    // Leased circuits are multiplexed at a lower layer (§5.1.1): rare,
    // short loss events remain possible, scaling with circuit length.
    seg.burst_rate_per_day = vns_burst_per_10000km_day * km / 10000.0;
    seg.burst_duration_mean_s = 1.5;
    seg.burst_duration_sigma = 0.8;
    seg.burst_loss = vns_burst_loss;
  }
  seg.jitter_base_ms = 0.1;
  seg.jitter_peak_ms = vns_jitter_peak_ms;
  return seg;
}

sim::SegmentProfile SegmentCatalog::gateway(RegionClass region, bool inbound, AsType dest_type,
                                            double tz_offset_hours, double discount) const {
  sim::SegmentProfile seg;
  seg.label = std::string{inbound ? "gateway-in-" : "gateway-out-"} +
              (region == RegionClass::kAP ? "AP" : region == RegionClass::kNA ? "NA" : "EU");
  seg.rtt_ms = 0.0;  // interconnect latency is folded into the hop legs
  const double peak = inbound
                          ? gateway_in_peak[static_cast<int>(region)] *
                                gateway_type_factor[static_cast<int>(dest_type)]
                          : gateway_out_peak[static_cast<int>(region)];
  seg.congestion_loss = peak * discount;
  // Gateways congest with the region's own usage (business + evening);
  // nearly idle at night, which drives the Fig. 12 contrast.
  seg.diurnal = sim::DiurnalProfile{0.004, 0.60, 0.25};
  seg.tz_offset_hours = tz_offset_hours;
  seg.jitter_base_ms = 0.1;
  seg.jitter_peak_ms = 1.2;
  return seg;
}

std::vector<sim::SegmentProfile> transit_path_segments(
    const Internet& internet, const geo::GeoPoint& source, geo::WorldRegion source_region,
    std::span<const AsIndex> as_path, const geo::GeoPoint& destination, AsType dest_type,
    geo::WorldRegion dest_region, const SegmentCatalog& catalog, const DelayModel& delay,
    bool include_last_mile) {
  std::vector<sim::SegmentProfile> segments;
  segments.reserve(as_path.size() + (include_last_mile ? 3 : 0) + 1);
  // Waypoints are catalog cities (the source too, when it is a PoP), so leg
  // lengths are table reads and each destination distance is computed once.
  const geo::City* source_city = geo::catalog_city_at(source);
  const geo::City source_point{"", "", source, source_region};
  const geo::City* current = source_city != nullptr ? source_city : &source_point;
  geo::WorldRegion current_region = source_region;
  DestinationDistances to_destination{destination};

  auto leg_rtt = [&](double km, RegionClass hop_class) {
    const double inflation =
        hop_class == RegionClass::kAP ? delay.ap_transit_inflation : delay.path_inflation;
    return km * delay.rtt_ms_per_km * inflation + delay.per_hop_rtt_ms;
  };

  // Hand-offs through each AS on the path (forward-progress hot potato).
  for (std::size_t i = 1; i < as_path.size(); ++i) {
    const AsNode& node = internet.as_at(as_path[i]);
    const geo::City& entry = handoff_pop(node, *current, to_destination);
    const RegionClass from_class = transit_region_class(current_region);
    const RegionClass to_class = transit_region_class(entry.region);
    const double km = geo::city_distance_km(*current, entry);
    auto seg = catalog.transit_hop(current->location, entry.location, km, from_class, to_class);
    seg.rtt_ms = leg_rtt(km, std::max(from_class, to_class));
    seg.label.append("-").append(to_string(node.type));
    segments.push_back(std::move(seg));
    current = &entry;
    current_region = entry.region;
  }

  // Final leg to the destination edge.
  {
    const RegionClass from_class = transit_region_class(current_region);
    const RegionClass to_class = transit_region_class(dest_region);
    const double km = to_destination.from(*current);
    auto seg = catalog.transit_hop(current->location, destination, km, from_class, to_class);
    seg.rtt_ms = leg_rtt(km, std::max(from_class, to_class));
    seg.label += "-edge";
    segments.push_back(std::move(seg));
  }

  if (include_last_mile) {
    // Region-boundary crossings toward an edge host traverse international
    // gateways (see the catalog's gateway block).
    const RegionClass src_class = transit_region_class(source_region);
    const RegionClass dst_class = transit_region_class(dest_region);
    if (src_class != dst_class) {
      // Outbound gateway of the source region.
      segments.push_back(catalog.gateway(src_class, /*inbound=*/false, dest_type,
                                         sim::tz_from_longitude(source.longitude_deg), 1.0));
      // Inbound gateway of the destination region; probes from the US west
      // coast toward AP largely bypass it (west-coast IXP presence).
      const bool west_coast_bypass = dst_class == RegionClass::kAP &&
                                     src_class == RegionClass::kNA &&
                                     source.longitude_deg < -100.0;
      segments.push_back(catalog.gateway(
          dst_class, /*inbound=*/true, dest_type,
          sim::tz_from_longitude(destination.longitude_deg),
          west_coast_bypass ? catalog.west_coast_gateway_discount : 1.0));
    }
    auto seg = catalog.last_mile(dest_type, dest_region, destination);
    seg.rtt_ms = delay.last_mile_rtt_ms;
    segments.push_back(std::move(seg));
  }
  return segments;
}

}  // namespace vns::topo
