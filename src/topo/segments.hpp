// Turning routes into data-plane path models.
//
// The SegmentCatalog holds the loss/jitter parameterization of the three
// path constituents the paper separates (§5): transit hops through provider
// networks, the destination last mile (whose quality depends on AS type and
// region, Table 1), and VNS's own dedicated L2 links (near-lossless, §5.1.1).
// `paper_calibrated()` encodes the paper's qualitative claims — AP transit
// most congested, CAHP last miles worst, NA flattening the type hierarchy,
// VNS links clean except for low-layer multiplexing residue — with
// magnitudes chosen so the benches land near the reported numbers.
#pragma once

#include <span>
#include <vector>

#include "sim/path_model.hpp"
#include "topo/delay.hpp"
#include "topo/internet.hpp"

namespace vns::topo {

/// Congestion class of a world region (the paper measures AP >> NA > EU).
enum class RegionClass : std::uint8_t { kEU = 0, kNA = 1, kAP = 2 };

[[nodiscard]] RegionClass region_class(geo::WorldRegion region) noexcept;

/// Region class used for *transit* hops: like region_class, except Oceania
/// counts as AP — §5.1 measures severe congestion on trans-Pacific/AP
/// transit from Sydney even though Australian access networks are healthy.
[[nodiscard]] RegionClass transit_region_class(geo::WorldRegion region) noexcept;

struct SegmentCatalog {
  // --- last mile ------------------------------------------------------------
  /// Target mean last-mile loss (percent) by [RegionClass][AsType].
  /// Calibrated against Table 1 minus the typical transit contribution.
  double last_mile_mean_pct[3][kAsTypeCount] = {
      /*EU*/ {0.10, 0.60, 1.55, 0.50},
      /*NA*/ {0.52, 0.45, 0.42, 0.50},
      /*AP*/ {0.30, 0.60, 1.20, 0.90},
  };
  /// Last-mile burst events per day by region class.
  double last_mile_burst_per_day[3] = {0.4, 0.6, 1.6};

  // --- international gateways --------------------------------------------------
  // Reaching an *edge host* across a region boundary crosses that region's
  // international gateway infrastructure, which in AP is congested enough to
  // dominate the end-to-end loss (§5.2.2: long-haul loss rivals the last
  // mile; §5.2.3: AP congestion masks remote peaks).  Hub-to-hub paths
  // (the Fig. 9 PoP-to-PoP streams over premium transit) do not cross them.
  /// Peak congestion loss entering a region's edge from outside [EU,NA,AP].
  double gateway_in_peak[3] = {0.0005, 0.0020, 0.0150};
  /// Destination-type multiplier: tier-1-homed hosts sit behind clean
  /// interconnects; access-provider cones sit behind the hot ones.
  double gateway_type_factor[kAsTypeCount] = {/*LTP*/ 0.15, /*STP*/ 1.8,
                                              /*CAHP*/ 4.5, /*EC*/ 2.8};
  /// Peak congestion loss leaving a region's edge toward outside [EU,NA,AP].
  double gateway_out_peak[3] = {0.0003, 0.0010, 0.0400};
  /// AP operators interconnect richly at US west-coast IXPs, so probes from
  /// there bypass most of the AP ingress gateway (SJS's ~1x in Fig. 11).
  double west_coast_gateway_discount = 0.12;

  // --- transit hops -----------------------------------------------------------
  /// Baseline per-hop random loss (fraction, not percent).
  double transit_random_loss = 2e-5;
  /// Congestion loss at full diurnal level per 1000 km of hop length,
  /// saturating at `congestion_km_cap` (providers provision ultra-long
  /// trunks accordingly, so loss does not grow without bound).
  double transit_congestion_per_1000km = 8.5e-5;
  double congestion_km_cap = 11000.0;
  /// Regional multiplier on transit congestion [EU, NA, AP].
  double transit_region_factor[3] = {1.0, 1.7, 3.4};
  /// Additional multiplier when BOTH hop endpoints are AP-class: intra-AP
  /// transit is disproportionately congested (Sydney's 43 % in Fig. 9).
  double intra_ap_factor = 2.6;
  /// Discount for NA<->AP hops: trans-Pacific trunks from the US are better
  /// provisioned than Europe-Asia routes (San Jose's 5 % vs Amsterdam's
  /// 10 % in Fig. 9).
  double na_ap_discount = 0.65;
  /// Convergence/congestion burst events per day per hop, scaled up for
  /// long-haul hops (more underlying infrastructure to fail/congest).
  double transit_burst_per_day = 4.0;
  double transit_burst_km_scale = 4000.0;  ///< rate *= max(1, km/this)
  double transit_burst_loss = 0.45;
  /// Jitter scale at peak congestion per hop (ms).
  double transit_jitter_peak_ms = 1.6;

  // --- link capacities (DESIGN §14) -------------------------------------------
  /// Capacity of one transit hop through a provider network (Mbps).  Transit
  /// is shared infrastructure, so hops are markedly smaller than VNS's own
  /// leased circuits.
  double transit_capacity_mbps = 40000.0;

  // --- VNS dedicated L2 links --------------------------------------------------
  /// Residual random loss per 1000 km (low-layer multiplexing, §5.1.1).
  double vns_random_loss_per_1000km = 1.2e-5;
  /// Rare events on long-haul leased links, per 10000 km of circuit.
  double vns_burst_per_10000km_day = 2.5;
  double vns_burst_loss = 0.25;
  double vns_jitter_peak_ms = 0.8;
  /// Leased-circuit capacities (Mbps).  Long-hauls are the expensive, scarce
  /// resource the offload policy protects; regional rings are overbuilt.
  double vns_long_haul_capacity_mbps = 100000.0;
  double vns_regional_capacity_mbps = 400000.0;

  [[nodiscard]] static SegmentCatalog paper_calibrated() { return {}; }

  /// Last-mile segment for a host in an AS of the given type and region.
  [[nodiscard]] sim::SegmentProfile last_mile(AsType type, geo::WorldRegion region,
                                              const geo::GeoPoint& host) const;

  /// One transit hop between two points; congestion keys to the more
  /// congested endpoint's region class and the hop's local clock, with the
  /// intra-AP surcharge and the NA<->AP trans-Pacific discount applied.
  [[nodiscard]] sim::SegmentProfile transit_hop(const geo::GeoPoint& from,
                                                const geo::GeoPoint& to, RegionClass from_class,
                                                RegionClass to_class) const {
    return transit_hop(from, to, geo::great_circle_km(from, to), from_class, to_class);
  }
  /// The same hop when its length `km` (great_circle_km(from, to)) is known.
  [[nodiscard]] sim::SegmentProfile transit_hop(const geo::GeoPoint& from, const geo::GeoPoint& to,
                                                double km, RegionClass from_class,
                                                RegionClass to_class) const;

  /// A VNS internal L2 link of length `km`.
  [[nodiscard]] sim::SegmentProfile vns_link(const geo::GeoPoint& from,
                                             const geo::GeoPoint& to,
                                             bool long_haul) const;

  /// International gateway segment for `region`'s edge: `inbound` when
  /// entering from another region class toward a `dest_type` host, outbound
  /// when leaving.  `discount` scales the peak (west-coast bypass).
  [[nodiscard]] sim::SegmentProfile gateway(RegionClass region, bool inbound, AsType dest_type,
                                            double tz_offset_hours, double discount) const;
};

/// Builds the segment list for traffic leaving `source` and following
/// `as_path` (indices; first element is the source-side network) to a
/// destination host.  When `include_last_mile` is false the path stops at
/// the destination network's edge (the B–C long-haul of Fig. 8).
[[nodiscard]] std::vector<sim::SegmentProfile> transit_path_segments(
    const Internet& internet, const geo::GeoPoint& source, geo::WorldRegion source_region,
    std::span<const AsIndex> as_path, const geo::GeoPoint& destination, AsType dest_type,
    geo::WorldRegion dest_region, const SegmentCatalog& catalog, const DelayModel& delay,
    bool include_last_mile);

}  // namespace vns::topo
