// Active-measurement primitives matching the paper's campaigns:
//   - §4.1: 5 ICMP pings per target, minimum RTT recorded;
//   - §4.3: 20 pings per day per address for a week;
//   - §5.2: 100 back-to-back packets every 10 minutes for three weeks.
// Plus the hourly loss-frequency aggregation behind Fig. 12.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "sim/path_model.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace vns::measure {

/// Result of one ping burst.
struct PingResult {
  int sent = 0;
  int lost = 0;
  /// Minimum RTT over the answered probes; nullopt when all were lost.
  std::optional<double> min_rtt_ms;
};

/// Result of one back-to-back packet train.
struct TrainResult {
  int sent = 0;
  int lost = 0;
  [[nodiscard]] double loss_fraction() const noexcept {
    return sent ? static_cast<double>(lost) / sent : 0.0;
  }
};

class Prober {
 public:
  explicit Prober(util::Rng rng) : rng_(rng) {}

  /// `count` pings at time t; echo replies share the path's loss (a probe
  /// counts as lost when either direction drops it).
  [[nodiscard]] PingResult ping(const sim::PathModel& path, double t, int count = 5);

  /// `count` packets sent back-to-back at time t (the §5.2 train).
  [[nodiscard]] TrainResult train(const sim::PathModel& path, double t, int count = 100);

 private:
  util::Rng rng_;
  /// All probes of one burst evaluate the path at the same t; the memo keeps
  /// the per-segment diurnal math out of that loop (bit-identical results).
  sim::DiurnalLevelCache cache_;
};

/// One shard of a §5.2-style probing campaign: a path, realized from the
/// shard's own RNG substream, probed with `packets`-packet trains on a
/// fixed schedule.
struct TrainTask {
  std::vector<sim::SegmentProfile> segments;
  double horizon_s = 0.0;     ///< burst timelines drawn over [0, horizon)
  double start_s = 0.0;
  double end_s = 0.0;         ///< 0: probe until horizon_s
  double interval_s = 600.0;  ///< the paper's every-ten-minutes cadence
  int packets = 100;
};

/// Outcome of one probing round, kept per round (not pre-aggregated) so
/// callers can bin by hour / AS type / region after the parallel phase.
struct TrainRound {
  double t = 0.0;
  int lost = 0;
};

struct TrainTaskResult {
  std::vector<TrainRound> rounds;
  util::Summary loss_fraction;  ///< per-round lost/packets
};

/// Runs every task, sharded across `threads` workers (<= 0 resolves via
/// VNS_THREADS, then hardware concurrency).  Task i draws exclusively from
/// `base.substream(i)` — both its path's burst timelines and its probe
/// draws — and results land in task-indexed slots, so the output is
/// bit-identical for any thread count, including 1.  Bumps the
/// "measure.probes_sent" counter.
[[nodiscard]] std::vector<TrainTaskResult> run_train_campaign(
    std::span<const TrainTask> tasks, const util::Rng& base, int threads);

/// Merges per-task summaries in task order (deterministic FP result).
[[nodiscard]] util::Summary merged_loss_fraction(std::span<const TrainTaskResult> results);

/// Accumulates, per hour of day in a reporting timezone, how many
/// measurement rounds experienced loss (Fig. 12's y-axis).
class HourlyLossCounter {
 public:
  explicit HourlyLossCounter(double tz_offset_hours) : tz_(tz_offset_hours) {}

  /// Records one measurement round at absolute time t.
  void record(double t_seconds, bool had_loss) noexcept;

  [[nodiscard]] std::uint32_t lossy_rounds(int hour) const { return lossy_.at(hour); }
  [[nodiscard]] std::uint32_t total_rounds(int hour) const { return total_.at(hour); }
  [[nodiscard]] std::uint32_t peak_lossy_rounds() const noexcept;

 private:
  double tz_;
  std::vector<std::uint32_t> lossy_ = std::vector<std::uint32_t>(24, 0);
  std::vector<std::uint32_t> total_ = std::vector<std::uint32_t>(24, 0);
};

}  // namespace vns::measure
