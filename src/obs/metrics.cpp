#include "obs/metrics.hpp"

#include <sstream>

#include "obs/json.hpp"
#include "util/counters.hpp"

namespace vns::obs {

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

void MetricsRegistry::counter_add(std::string_view name, std::uint64_t delta) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    counters_.emplace(std::string(name), delta);
  } else {
    it->second += delta;
  }
}

std::uint64_t MetricsRegistry::counter(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

void MetricsRegistry::gauge_set(std::string_view name, double value) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    gauges_.emplace(std::string(name), value);
  } else {
    it->second = value;
  }
}

double MetricsRegistry::gauge(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

void MetricsRegistry::histogram_observe(std::string_view name, double value,
                                        double lo, double hi,
                                        std::size_t bins) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const bool shaped = bins != 0;
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    const double create_lo = shaped ? lo : 0.0;
    const double create_hi = shaped ? hi : 1.0;
    const std::size_t create_bins = shaped ? bins : 32;
    it = histograms_
             .emplace(std::string(name),
                      ShapedHistogram{util::Histogram(create_lo, create_hi, create_bins),
                                      create_lo, create_hi, create_bins})
             .first;
  } else if (shaped && (it->second.lo != lo || it->second.hi != hi ||
                        it->second.bins != bins)) {
    // The first caller owns the layout; a disagreeing shaped observe still
    // lands in the existing bins but is counted so the mismatch is
    // detectable.  Shapeless observes adopt the layout and never conflict.
    ++histogram_shape_conflicts_;
  }
  it->second.histogram.add(value);
}

std::uint64_t MetricsRegistry::histogram_shape_conflicts() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return histogram_shape_conflicts_;
}

util::Histogram MetricsRegistry::histogram(std::string_view name,
                                           bool* found) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = histograms_.find(name);
  if (found != nullptr) *found = it != histograms_.end();
  if (it == histograms_.end()) return util::Histogram(0.0, 1.0, 1);
  return it->second.histogram;
}

void MetricsRegistry::span_record(std::string_view name, double seconds) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{std::string(name), seconds});
}

std::vector<MetricsRegistry::Span> MetricsRegistry::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

void MetricsRegistry::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
  spans_.clear();
  histogram_shape_conflicts_ = 0;
}

void MetricsRegistry::write_jsonl(std::ostream& out) const {
  // Copy under the lock, emit outside it: util::Counters::global() takes its
  // own mutex and ostream writes can block.
  decltype(counters_) counters;
  decltype(gauges_) gauges;
  decltype(histograms_) histograms;
  decltype(spans_) spans;
  std::uint64_t shape_conflicts = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    counters = counters_;
    gauges = gauges_;
    histograms = histograms_;
    spans = spans_;
    shape_conflicts = histogram_shape_conflicts_;
  }
  for (const auto& [name, value] : util::Counters::global().snapshot()) {
    out << "{\"type\":\"counter\",\"name\":" << json_string(name)
        << ",\"value\":" << json_number(value) << "}\n";
  }
  for (const auto& [name, value] : counters) {
    out << "{\"type\":\"counter\",\"name\":" << json_string(name)
        << ",\"value\":" << json_number(value) << "}\n";
  }
  for (const auto& [name, value] : gauges) {
    out << "{\"type\":\"gauge\",\"name\":" << json_string(name)
        << ",\"value\":" << json_number(value) << "}\n";
  }
  for (const auto& [name, shaped] : histograms) {
    const util::Histogram& histogram = shaped.histogram;
    out << "{\"type\":\"histogram\",\"name\":" << json_string(name);
    if (histogram.bin_count() > 0) {
      out << ",\"lo\":" << json_number(histogram.bin_lo(0)) << ",\"hi\":"
          << json_number(histogram.bin_hi(histogram.bin_count() - 1));
    }
    out << ",\"underflow\":" << json_number(histogram.underflow())
        << ",\"overflow\":" << json_number(histogram.overflow())
        << ",\"counts\":[";
    for (std::size_t bin = 0; bin < histogram.bin_count(); ++bin) {
      if (bin != 0) out << ',';
      out << json_number(histogram.count(bin));
    }
    out << "]}\n";
  }
  for (const Span& span : spans) {
    out << "{\"type\":\"span\",\"name\":" << json_string(span.name)
        << ",\"seconds\":" << json_number(span.seconds) << "}\n";
  }
  // Trailer: export-health summary.  A non-zero histogram_shape_conflicts
  // means some caller observed with a different lo/hi/bins than the shape
  // the histogram was created with — its samples were binned under the
  // first caller's layout, not its own.
  out << "{\"type\":\"registry_summary\",\"histograms\":"
      << json_number(std::uint64_t{histograms.size()})
      << ",\"histogram_shape_conflicts\":" << json_number(shape_conflicts)
      << "}\n";
}

std::string MetricsRegistry::to_jsonl() const {
  std::ostringstream out;
  write_jsonl(out);
  return out.str();
}

}  // namespace vns::obs
