// MetricsRegistry: the successor to the bare util::Counters map — counters,
// gauges, histograms (util::Histogram underneath) and named wall-clock spans
// behind one mutex-protected registry, exported as JSONL (one object per
// line) next to BENCH_*.json when a bench runs with `--trace`.
//
// Counters and gauges are keyed by name; histograms are created on first
// observe() with the caller-supplied shape (later observes with a different
// shape reuse the existing bins — the first caller owns the layout, and the
// mismatch is *counted*: every observe whose lo/hi/bins disagree with the
// histogram's recorded shape bumps histogram_shape_conflicts(), which the
// JSONL export emits in its registry_summary trailer so a silently-reshaped
// histogram is detectable instead of quietly mis-binned).  Spans are
// appended in record order so a campaign's phase timeline reads
// top-to-bottom.  For hot loops prefer util::Counters::Batch (thread-local,
// flush-on-destroy) over per-sample registry calls.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/stats.hpp"

namespace vns::obs {

class MetricsRegistry {
 public:
  struct Span {
    std::string name;
    double seconds = 0.0;
  };

  MetricsRegistry() = default;

  /// Process-wide registry used by benches and campaigns.
  static MetricsRegistry& global();

  void counter_add(std::string_view name, std::uint64_t delta = 1);
  [[nodiscard]] std::uint64_t counter(std::string_view name) const;

  void gauge_set(std::string_view name, double value);
  [[nodiscard]] double gauge(std::string_view name) const;  ///< 0 if unset

  /// Records `value` into the named histogram, creating it with the given
  /// shape on first use (the shapeless default creates [0, 1) with 32 bins).
  /// A *shaped* observe whose lo/hi/bins differ from the shape the histogram
  /// was created with still lands in the existing bins, but increments
  /// histogram_shape_conflicts(); a shapeless observe (bins = 0) adopts the
  /// existing shape and never conflicts.
  void histogram_observe(std::string_view name, double value, double lo = 0.0,
                         double hi = 1.0, std::size_t bins = 0);
  /// Observes whose shape disagreed with the histogram's creation shape.
  [[nodiscard]] std::uint64_t histogram_shape_conflicts() const;
  /// Copy of the named histogram, or nullopt-like empty histogram signalled
  /// via `found`.
  [[nodiscard]] util::Histogram histogram(std::string_view name,
                                          bool* found = nullptr) const;

  void span_record(std::string_view name, double seconds);
  [[nodiscard]] std::vector<Span> spans() const;

  void reset();

  /// Emits the registry as JSONL: `{"type":"counter"|"gauge"|"histogram"|
  /// "span",...}` lines.  Also folds in util::Counters::global() so legacy
  /// campaign counters appear in the same export.
  void write_jsonl(std::ostream& out) const;
  [[nodiscard]] std::string to_jsonl() const;

 private:
  /// A histogram plus the shape its first observe created it with, so later
  /// observes can be checked against the owning layout.
  struct ShapedHistogram {
    util::Histogram histogram;
    double lo = 0.0;
    double hi = 1.0;
    std::size_t bins = 0;
  };

  mutable std::mutex mutex_;
  std::map<std::string, std::uint64_t, std::less<>> counters_;
  std::map<std::string, double, std::less<>> gauges_;
  std::map<std::string, ShapedHistogram, std::less<>> histograms_;
  std::vector<Span> spans_;
  std::uint64_t histogram_shape_conflicts_ = 0;
};

/// RAII span: records elapsed wall-clock into the registry on destruction.
///
///   { obs::ScopedTimer t(obs::MetricsRegistry::global(), "campaign.probe");
///     run_train_campaign(...); }
class ScopedTimer {
 public:
  ScopedTimer(MetricsRegistry& registry, std::string name)
      : registry_(registry),
        name_(std::move(name)),
        start_(std::chrono::steady_clock::now()) {}

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  ~ScopedTimer() {
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    registry_.span_record(name_,
                          std::chrono::duration<double>(elapsed).count());
  }

 private:
  MetricsRegistry& registry_;
  std::string name_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace vns::obs
