// Tests for vns::measure — workbench assembly, probe path extraction,
// ping/train semantics, and hourly loss aggregation.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string_view>

#include "measure/prober.hpp"
#include "measure/workbench.hpp"
#include "sim/time.hpp"

namespace vns::measure {
namespace {

Workbench& bench() {
  static const auto instance = Workbench::build(WorkbenchConfig::small(11));
  return *instance;
}

TEST(Workbench, BuildsAndFeeds) {
  auto& w = bench();
  EXPECT_GT(w.internet().as_count(), 200u);
  EXPECT_GT(w.geoip().size(), 400u);
  EXPECT_EQ(w.vns().pops().size(), 11u);
  // Routes are fed: a random prefix resolves at PoP 0.
  EXPECT_NE(w.vns().route_at(0, w.internet().prefix(0).prefix.first_host()), nullptr);
}

TEST(Workbench, LocalExitAsPathStartsAtNeighbor) {
  auto& w = bench();
  const auto path = w.local_exit_as_path(0, 5);
  ASSERT_FALSE(path.empty());
  // First AS is a neighbor attached at PoP 0 (upstream or peer).
  bool found = false;
  for (const auto& attachment : w.vns().attachments()) {
    if (attachment.pop == 0 && attachment.as == path.front()) found = true;
  }
  EXPECT_TRUE(found);
  // Last AS is the prefix's origin.
  EXPECT_EQ(path.back(), w.internet().prefix(5).origin);
}

TEST(Workbench, ProbeSegmentsIncludeLastMileOnRequest) {
  auto& w = bench();
  const auto without = w.probe_segments(0, 5, false);
  const auto with = w.probe_segments(0, 5, true);
  // Host paths add the last mile, plus international gateways when the
  // destination sits in a different region class than the vantage.
  EXPECT_GE(with.size(), without.size() + 1);
  EXPECT_LE(with.size(), without.size() + 3);
  EXPECT_TRUE(with.back().label.starts_with("last-mile"));
  for (const auto& seg : without) {
    EXPECT_FALSE(seg.label.starts_with("last-mile"));
    EXPECT_FALSE(seg.label.starts_with("gateway"));
  }
}

TEST(Workbench, ProbeRttGrowsWithDistance) {
  auto& w = bench();
  const auto ams = *w.vns().find_pop("AMS");
  const auto syd = *w.vns().find_pop("SYD");
  // Pick a European prefix: RTT from AMS must be far below RTT from SYD.
  std::size_t eu_prefix = ~std::size_t{0};
  for (std::size_t i = 0; i < w.internet().prefixes().size(); ++i) {
    const auto& info = w.internet().prefix(i);
    if (w.internet().as_at(info.origin).region == geo::WorldRegion::kEurope &&
        !info.geo_spread && !info.stale_geoip) {
      eu_prefix = i;
      break;
    }
  }
  ASSERT_NE(eu_prefix, ~std::size_t{0});
  const double from_ams = w.probe_base_rtt_ms(ams, eu_prefix);
  const double from_syd = w.probe_base_rtt_ms(syd, eu_prefix);
  EXPECT_GT(from_syd, from_ams + 100.0);
}

/// FNV-1a over the bit patterns of everything a segment carries.
struct SegmentDigest {
  std::uint64_t hash = 0xcbf29ce484222325ULL;

  void byte(std::uint8_t b) {
    hash ^= b;
    hash *= 0x100000001b3ULL;
  }
  void word(std::uint64_t w) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(w >> (8 * i)));
  }
  void number(double v) { word(std::bit_cast<std::uint64_t>(v)); }
  void text(std::string_view s) {
    word(s.size());
    for (const char c : s) byte(static_cast<std::uint8_t>(c));
  }
  void segment(const sim::SegmentProfile& seg) {
    text(seg.label);
    for (const double v :
         {seg.rtt_ms, seg.random_loss, seg.congestion_loss, seg.diurnal.base,
          seg.diurnal.business_weight, seg.diurnal.evening_weight, seg.tz_offset_hours,
          seg.capacity_mbps, seg.utilization, seg.util_knee, seg.util_loss_ceiling,
          seg.util_saturation, seg.util_queue_base_ms, seg.util_queue_cap_ms,
          seg.burst_rate_per_day, seg.burst_duration_mean_s, seg.burst_duration_sigma,
          seg.burst_loss, seg.jitter_base_ms, seg.jitter_peak_ms}) {
      number(v);
    }
  }
};

// Golden: every field and label of every Fig. 3-style probe path (all PoPs x
// all prefixes, last mile included) at small scale.  Pins the hand-off walk,
// its distance table and memo, and the segment catalog bit for bit.
TEST(Workbench, ProbeSegmentsGoldenDigest) {
  auto& w = bench();
  SegmentDigest digest;
  std::uint64_t segments = 0;
  for (core::PopId pop = 0; pop < w.vns().pops().size(); ++pop) {
    for (std::size_t id = 0; id < w.internet().prefixes().size(); ++id) {
      const auto path = w.probe_segments(pop, id, /*include_last_mile=*/true);
      digest.word(path.size());
      for (const auto& seg : path) digest.segment(seg);
      segments += path.size();
    }
  }
  EXPECT_EQ(segments, 93883u);
  EXPECT_EQ(digest.hash, 0x49a2e2b6a92c2269ULL);
}

TEST(Prober, PingMeasuresMinRtt) {
  sim::SegmentProfile seg;
  seg.rtt_ms = 80.0;
  seg.jitter_base_ms = 3.0;
  seg.jitter_peak_ms = 3.0;
  const sim::PathModel path{{seg}, 0.0, util::Rng{1}};
  Prober prober{util::Rng{2}};
  const auto result = prober.ping(path, 0.0, 5);
  EXPECT_EQ(result.sent, 5);
  ASSERT_TRUE(result.min_rtt_ms.has_value());
  EXPECT_GE(*result.min_rtt_ms, 80.0);
  EXPECT_LT(*result.min_rtt_ms, 95.0);
}

TEST(Prober, TotalLossYieldsNoRtt) {
  sim::SegmentProfile seg;
  seg.rtt_ms = 10.0;
  seg.random_loss = 1.0;
  const sim::PathModel path{{seg}, 0.0, util::Rng{1}};
  Prober prober{util::Rng{3}};
  const auto result = prober.ping(path, 0.0, 5);
  EXPECT_EQ(result.lost, 5);
  EXPECT_FALSE(result.min_rtt_ms.has_value());
}

TEST(Prober, PingLossIsRoundTrip) {
  // One-way loss p: echo loss should approach 1-(1-p)^2, not p.
  sim::SegmentProfile seg;
  seg.rtt_ms = 10.0;
  seg.random_loss = 0.2;
  const sim::PathModel path{{seg}, 0.0, util::Rng{1}};
  Prober prober{util::Rng{4}};
  int lost = 0, sent = 0;
  for (int i = 0; i < 3000; ++i) {
    const auto result = prober.ping(path, 0.0, 5);
    lost += result.lost;
    sent += result.sent;
  }
  EXPECT_NEAR(lost / double(sent), 0.36, 0.02);
}

TEST(Prober, TrainSamplesLoss) {
  sim::SegmentProfile seg;
  seg.rtt_ms = 10.0;
  seg.random_loss = 0.03;
  const sim::PathModel path{{seg}, 0.0, util::Rng{1}};
  Prober prober{util::Rng{5}};
  std::uint64_t lost = 0, sent = 0;
  for (int i = 0; i < 2000; ++i) {
    const auto result = prober.train(path, 0.0, 100);
    lost += static_cast<std::uint64_t>(result.lost);
    sent += static_cast<std::uint64_t>(result.sent);
  }
  EXPECT_NEAR(lost / double(sent), 0.03, 0.005);
}

TEST(HourlyCounter, BucketsByLocalHour) {
  HourlyLossCounter counter{sim::kTzCet};
  // 00:30 UTC = 01:30 CET -> hour bucket 1.
  counter.record(1800.0, true);
  counter.record(1800.0, false);
  EXPECT_EQ(counter.lossy_rounds(1), 1u);
  EXPECT_EQ(counter.total_rounds(1), 2u);
  EXPECT_EQ(counter.lossy_rounds(0), 0u);
  EXPECT_EQ(counter.peak_lossy_rounds(), 1u);
}

TEST(HourlyCounter, WrapsDays) {
  HourlyLossCounter counter{0.0};
  for (int day = 0; day < 5; ++day) {
    counter.record(day * sim::kSecondsPerDay + 13.0 * 3600.0, true);
  }
  EXPECT_EQ(counter.lossy_rounds(13), 5u);
}

}  // namespace
}  // namespace vns::measure
