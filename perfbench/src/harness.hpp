// Measurement plumbing for the benchmark: an in-memory span recorder, process
// CPU and memory readings, latency quantiles, digests and the metric table
// the run prints.  Everything here times vnskit from the outside; nothing in
// the library is instrumented for the benchmark.
#pragma once

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/latency.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Spans kept in memory and written out when the run ends.  A span has a
/// name, start, end, the span that was open when it began (its parent), and
/// a run id shared by every span under one root.  Disabled tracers record
/// nothing and never read the clock.
class Tracer {
 public:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {
    if (enabled_) spans_.reserve(std::size_t{1} << 19);
  }

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Interns a span name; hot loops look names up once.
  [[nodiscard]] std::uint32_t name(std::string_view text) {
    for (std::uint32_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == text) return i;
    }
    names_.emplace_back(text);
    return static_cast<std::uint32_t>(names_.size() - 1);
  }

  /// RAII span; a no-op when the tracer is disabled.
  class Scope {
   public:
    Scope(Tracer& tracer, std::uint32_t name) : tracer_(tracer) {
      if (tracer_.enabled_) id_ = tracer_.begin(name);
    }
    Scope(Tracer& tracer, std::string_view name) : Scope(tracer, tracer.name(name)) {}
    ~Scope() {
      if (id_ != kNone) tracer_.end(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::uint32_t id_ = kNone;
  };

  /// Summed duration of every span with this name, in seconds.
  [[nodiscard]] double total_seconds(std::string_view text) const;
  [[nodiscard]] std::size_t span_count() const noexcept { return spans_.size(); }

  /// One TSV row per span (times in ns from the tracer's creation, self time
  /// = duration minus the time its child spans cover), then a per-name
  /// summary file beside it.
  void write(const std::string& path) const;

 private:
  struct Span {
    std::uint32_t name;
    std::uint32_t parent;
    std::uint32_t run;
    std::int64_t start_ns;
    std::int64_t end_ns = -1;
  };

  std::uint32_t begin(std::uint32_t name);
  void end(std::uint32_t id);
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_).count();
  }
  [[nodiscard]] std::vector<std::int64_t> self_ns() const;

  bool enabled_;
  Clock::time_point epoch_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
  std::uint32_t runs_ = 0;
};

/// Process CPU (user + sys, all threads) over wall time for one interval:
/// above 1 means the interval ran on more than one core.
class CpuMeter {
 public:
  CpuMeter() : cpu0_(cpu_seconds()), wall0_(Clock::now()) {}
  [[nodiscard]] double ratio() const {
    const double wall = seconds_since(wall0_);
    return wall > 0.0 ? (cpu_seconds() - cpu0_) / wall : 0.0;
  }
  [[nodiscard]] static double cpu_seconds() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    auto secs = [](const timeval& tv) { return double(tv.tv_sec) + double(tv.tv_usec) * 1e-6; };
    return secs(usage.ru_utime) + secs(usage.ru_stime);
  }

 private:
  double cpu0_;
  Clock::time_point wall0_;
};

inline double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

[[nodiscard]] double current_rss_mb();

constexpr double kMiB = 1024.0 * 1024.0;

/// Median of a sample (mean of the middle two for an even count); 0 if empty.
[[nodiscard]] double median(std::vector<double> values);

/// Quantile of a LatencyRecorder snapshot, interpolated linearly inside the
/// bucket that holds the rank, so that it is not pinned to bucket midpoints.
[[nodiscard]] double quantile(const vns::obs::LatencySnapshot& snapshot, double q);

/// Highest rung of p50/p90/p99/p99.9/p99.99 that has at least ten samples
/// beyond it (0 when even p50 has not), as a percentile.
[[nodiscard]] double supported_percentile(std::uint64_t samples);

/// 64-bit FNV-1a over every byte added, in order.
class Digest {
 public:
  void add(std::string_view bytes) noexcept {
    for (const unsigned char c : bytes) {
      hash_ ^= c;
      hash_ *= 0x100000001b3ull;
    }
  }
  template <typename T>
  void add_value(const T& value) noexcept {
    add(std::string_view{reinterpret_cast<const char*>(&value), sizeof(T)});
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/// Named metrics with units, split into the end-to-end set (untraced runs)
/// and the per-layer set (traced runs).
class Report {
 public:
  struct Metric {
    double value;
    std::string unit;
  };

  void end_to_end(const std::string& name, double value, std::string unit) {
    e2e_[name] = {value, std::move(unit)};
  }
  void layer(const std::string& name, double value, std::string unit) {
    layers_[name] = {value, std::move(unit)};
  }
  /// Adds a per-layer metric at 0 unless the run measured it.
  void default_layer(const std::string& name, std::string unit) {
    layers_.try_emplace(name, Metric{0.0, std::move(unit)});
  }
  void note(std::string line) { notes_.push_back(std::move(line)); }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Human-readable lines, then the one-line JSON result (last line).
  void print(std::ostream& out, bool traced) const;

 private:
  std::map<std::string, Metric> e2e_, layers_;
  std::vector<std::string> notes_;
};

}  // namespace perfbench
