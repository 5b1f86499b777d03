#include "harness.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <sstream>

namespace perfbench {

std::uint32_t Tracer::begin(std::uint32_t name) {
  const std::uint32_t parent = open_.empty() ? kNone : open_.back();
  const std::uint32_t run = parent == kNone ? runs_++ : spans_[parent].run;
  spans_.push_back({name, parent, run, now_ns()});
  open_.push_back(static_cast<std::uint32_t>(spans_.size() - 1));
  return open_.back();
}

void Tracer::end(std::uint32_t id) {
  spans_[id].end_ns = now_ns();
  // Scopes nest, so the span ending is the innermost open one.
  open_.pop_back();
}

double Tracer::total_seconds(std::string_view text) const {
  std::int64_t total = 0;
  for (const Span& span : spans_) {
    if (names_[span.name] == text && span.end_ns >= 0) total += span.end_ns - span.start_ns;
  }
  return double(total) * 1e-9;
}

std::vector<std::int64_t> Tracer::self_ns() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].end_ns - spans_[i].start_ns;
    // Children run on the parent's thread inside its interval.
    if (spans_[i].parent != kNone) self[spans_[i].parent] -= spans_[i].end_ns - spans_[i].start_ns;
  }
  return self;
}

void Tracer::write(const std::string& path) const {
  const auto self = self_ns();
  std::ofstream out{path};
  out << "span\tparent\trun\tname\tstart_ns\tend_ns\tself_ns\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << i << '\t' << (span.parent == kNone ? -1 : std::int64_t{span.parent}) << '\t'
        << span.run << '\t' << names_[span.name] << '\t' << span.start_ns << '\t'
        << span.end_ns << '\t' << self[i] << '\n';
  }
  struct Total {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0, self_ns = 0;
  };
  std::map<std::string, Total> totals;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Total& total = totals[names_[spans_[i].name]];
    ++total.count;
    total.total_ns += spans_[i].end_ns - spans_[i].start_ns;
    total.self_ns += self[i];
  }
  std::ofstream summary{path + ".summary"};
  summary << "name\tcount\ttotal_s\tself_s\n";
  for (const auto& [name, total] : totals) {
    summary << name << '\t' << total.count << '\t' << double(total.total_ns) * 1e-9 << '\t'
            << double(total.self_ns) * 1e-9 << '\n';
  }
}

double current_rss_mb() {
  std::ifstream statm{"/proc/self/statm"};
  std::uint64_t size = 0, resident = 0;
  statm >> size >> resident;
  return double(resident) * double(sysconf(_SC_PAGESIZE)) / kMiB;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

double quantile(const vns::obs::LatencySnapshot& snapshot, double q) {
  using vns::obs::LatencyRecorder;
  if (snapshot.empty()) return 0.0;
  const double rank = std::clamp(q, 0.0, 1.0) * double(snapshot.total());
  const auto& counts = snapshot.counts();
  double below = 0.0;
  for (std::size_t bucket = 0; bucket < counts.size(); ++bucket) {
    if (counts[bucket] == 0) continue;
    const double here = double(counts[bucket]);
    if (below + here >= rank) {
      const double fraction = (rank - below) / here;
      return double(LatencyRecorder::bucket_lo(bucket)) +
             fraction * double(LatencyRecorder::bucket_width(bucket));
    }
    below += here;
  }
  return double(LatencyRecorder::bucket_lo(counts.size() - 1));
}

double supported_percentile(std::uint64_t samples) {
  double best = 0.0;
  for (const double p : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    if (double(samples) * (1.0 - p / 100.0) >= 10.0) best = p;
  }
  return best;
}

std::string Digest::hex() const {
  char text[17];
  std::snprintf(text, sizeof text, "%016llx", static_cast<unsigned long long>(hash_));
  return text;
}

void Report::print(std::ostream& out, bool traced) const {
  for (const auto& line : notes_) out << line << '\n';
  auto table = [&](const char* title, const std::map<std::string, Metric>& metrics) {
    out << title << ":\n";
    for (const auto& [name, metric] : metrics) {
      out << "  " << std::left << std::setw(30) << name << ' ' << metric.value << ' '
          << metric.unit << '\n';
    }
  };
  table("end-to-end", e2e_);
  if (traced) table("per-layer", layers_);
  out << "attempted " << attempted << ", failed " << failed << '\n';

  const auto& selected = traced ? layers_ : e2e_;
  std::ostringstream json;
  json << std::setprecision(17);
  json << "{\"correct\": " << (failed == 0 ? "true" : "false") << ", \"attempted\": "
       << attempted << ", \"failed\": " << failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : selected) {
    json << (first ? "" : ", ") << '"' << name << "\": {\"value\": ";
    if (std::isfinite(metric.value)) {
      json << metric.value;
    } else {
      json << "null";  // run.py rejects the run
    }
    json << ", \"unit\": \"" << metric.unit << "\"}";
    first = false;
  }
  json << "}}";
  out << json.str() << std::endl;
}

}  // namespace perfbench
