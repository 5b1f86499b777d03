#include "traffic/matrix.hpp"

#include <algorithm>
#include <limits>

#include "sim/time.hpp"
#include "util/thread_pool.hpp"

namespace vns::traffic {

namespace {

constexpr std::size_t kNoPrefix = std::numeric_limits<std::size_t>::max();

}  // namespace

Matrix Matrix::build(const core::VnsNetwork& vns, const topo::Internet& internet,
                     const MatrixConfig& config) {
  Matrix m;
  m.config_ = config;
  const auto pops = vns.pops();
  const std::size_t P = pops.size();
  m.pop_count_ = P;
  m.tz_.reserve(P);
  for (const auto& pop : pops) {
    m.tz_.push_back(sim::tz_from_longitude(pop.city.location.longitude_deg));
  }
  // Daily maximum of the diurnal profile, sampled at 5-minute resolution —
  // the normalizer that makes `offered_load_mbps` the actual peak.
  for (double h = 0.0; h < 24.0; h += 1.0 / 12.0) {
    m.peak_level_ = std::max(m.peak_level_, config.diurnal.level(h));
  }
  m.ingress_users_.assign(P, 0.0);
  m.share_.assign(P * P, 0.0);
  m.rep_.assign(P * P, kNoPrefix);

  const auto prefixes = internet.prefixes();
  const std::size_t chunks = (prefixes.size() + kMatrixChunk - 1) / kMatrixChunk;
  // Chunk i draws exclusively from seed's substream i (i+1 jumps past the
  // base), laid out serially up front, and partials merge in chunk order, so
  // neither the draw sequence nor the FP sums depend on worker scheduling.
  std::vector<util::Rng> streams;
  streams.reserve(chunks);
  util::Rng cursor{config.seed};
  for (std::size_t i = 0; i < chunks; ++i) {
    cursor.jump();
    streams.push_back(cursor);
  }
  struct Partial {
    std::vector<double> users;
    std::vector<double> mass;
    std::vector<std::size_t> rep;
  };
  std::vector<Partial> partials(chunks);
  const double sigma = config.user_jitter_sigma;
  const double mu = -sigma * sigma / 2.0;  // lognormal with mean 1
  util::parallel_for(chunks, config.threads, [&](std::size_t c) {
    auto& part = partials[c];
    part.users.assign(P, 0.0);
    part.mass.assign(P * P, 0.0);
    part.rep.assign(P * P, kNoPrefix);
    util::Rng rng = streams[c].fork("users");
    const std::size_t begin = c * kMatrixChunk;
    const std::size_t end = std::min(prefixes.size(), begin + kMatrixChunk);
    for (std::size_t p = begin; p < end; ++p) {
      const auto& info = prefixes[p];
      // Draw unconditionally so a prefix's jitter never depends on its type
      // weight (keeps draws aligned across config sweeps).
      const double jitter = rng.lognormal(mu, sigma);
      const auto type = internet.as_at(info.origin).type;
      const double u = config.users_per_prefix[static_cast<int>(type)] * jitter;
      if (u <= 0.0) continue;
      // Users connect to the geographically closest PoP of their *true*
      // location; their traffic leaves wherever the control plane routes
      // the prefix from that viewpoint (the compiled-FIB ride).
      const core::PopId ingress = vns.geo_closest_pop(info.location);
      const auto egress = vns.egress_pop(ingress, info.prefix.first_host());
      const core::PopId e = egress.value_or(ingress);
      const std::size_t cell = static_cast<std::size_t>(ingress) * P + e;
      part.users[ingress] += u;
      part.mass[cell] += u;
      if (part.rep[cell] == kNoPrefix) part.rep[cell] = p;
    }
  });
  // Merge in chunk order: fixed-order FP accumulation, and the first chunk
  // holding a cell's representative wins (= lowest prefix id overall).
  for (const auto& part : partials) {
    for (std::size_t i = 0; i < P; ++i) m.ingress_users_[i] += part.users[i];
    for (std::size_t k = 0; k < P * P; ++k) {
      m.share_[k] += part.mass[k];
      if (m.rep_[k] == kNoPrefix) m.rep_[k] = part.rep[k];
    }
  }
  double mass_total = 0.0;
  for (const double users : m.ingress_users_) m.total_users_ += users;
  for (const double mass : m.share_) mass_total += mass;
  if (mass_total > 0.0) {
    for (auto& share : m.share_) share /= mass_total;
  }
  return m;
}

double Matrix::users(core::PopId ingress) const { return ingress_users_.at(ingress); }

double Matrix::peak_demand_mbps(core::PopId ingress, core::PopId egress) const {
  return config_.offered_load_mbps *
         share_.at(static_cast<std::size_t>(ingress) * pop_count_ + egress);
}

double Matrix::modulation(core::PopId ingress, core::PopId egress, double t) const {
  const double level_in = config_.diurnal.level(sim::local_hour(t, tz_.at(ingress)));
  const double level_out = config_.diurnal.level(sim::local_hour(t, tz_.at(egress)));
  return peak_level_ > 0.0 ? 0.5 * (level_in + level_out) / peak_level_ : 0.0;
}

double Matrix::demand_mbps(core::PopId ingress, core::PopId egress, double t) const {
  return peak_demand_mbps(ingress, egress) * modulation(ingress, egress, t);
}

std::optional<std::size_t> Matrix::representative_prefix(core::PopId ingress,
                                                         core::PopId egress) const {
  const std::size_t rep = rep_.at(static_cast<std::size_t>(ingress) * pop_count_ + egress);
  if (rep == kNoPrefix) return std::nullopt;
  return rep;
}

}  // namespace vns::traffic
