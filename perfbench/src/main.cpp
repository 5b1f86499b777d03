// perfbench: the repository benchmark.  One run sets up a paper-scale world
// (~2.2k ASes, ~10.7k prefixes) several times, then measures one workload:
//
//   serve_steady  3 closed-loop resolvers over a trace with no events
//   serve_churn   the same resolvers while a churn thread applies route
//                 flaps, link and upstream faults
//   campaign      the Fig. 3 geo-precision sweep and the Fig. 9 stream sweep
//
// Usage: perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                  [--trace-out FILE]
//
// An untraced run prints the end-to-end metrics; a traced run replays set-up
// stage by stage inside spans and prints the per-layer metrics, writing the
// spans to --trace-out.  The last line of stdout is the JSON result.
#include <cstdlib>
#include <iostream>
#include <optional>
#include <sstream>
#include <utility>
#include <vector>

#include "workloads.hpp"

using namespace perfbench;

namespace {

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;

/// Every per-layer metric, printed by every traced run.  A metric the
/// workload does not reach reads 0: that layer is bypassed.
const std::pair<const char*, const char*> kLayerMetrics[] = {
    {"topo.generate_s", "s"},          {"topo.originate_s", "s"},
    {"geo.build_s", "s"},              {"core.construct_s", "s"},
    {"bgp.feed_s", "s"},               {"bgp.converge_s", "s"},
    {"bgp.converge_cpu_ratio", "ratio"}, {"bgp.messages", "count"},
    {"bgp.shard_occupancy_mean", "shards"}, {"bgp.geo_flip_s", "s"},
    {"bgp.geo_flip_cpu_ratio", "ratio"},
    {"net.compile_s", "s"},            {"net.compile_cpu_ratio", "ratio"},
    {"net.fib_entries", "count"},      {"net.fib_bytes", "bytes"},
    {"bgp.rib_arena_reserved_mb", "MB"}, {"bgp.attr_bytes", "bytes"},
    {"bgp.attr_hit_ratio", "ratio"},   {"mem.rss_after_setup_mb", "MB"},
    {"serve.probes", "count"},         {"serve.steady_p50_ns", "ns"},
    {"serve.stale_p50_ns", "ns"},      {"serve.stale_frac", "ratio"},
    {"serve.converging_count", "count"}, {"serve.converging_p90_ns", "ns"},
    {"serve.churn_apply_s", "s"},      {"serve.events_applied", "count"},
    {"serve.batch_apply_p50_ms", "ms"}, {"serve.batch_apply_max_ms", "ms"},
    {"bgp.churn_converge_s", "s"},     {"bgp.churn_messages", "count"},
    {"net.patches", "count"},          {"net.full_rebuilds", "count"},
    {"net.slots_touched", "count"},    {"net.patch_s", "s"},
    {"measure.campaign_s", "s"},       {"measure.probe_segments_s", "s"},
    {"measure.probe_paths", "count"},  {"sim.path_model_s", "s"},
    {"measure.ping_s", "s"},           {"measure.pings", "count"},
    {"core.internal_segments_s", "s"}, {"media.stream_s", "s"},
    {"media.sessions", "count"},       {"media.slots", "count"},
    {"media.stream_cpu_ratio", "ratio"}, {"trace.setup_overhead_pct", "%"},
    {"trace.campaign_overhead_pct", "%"}, {"trace.spans", "count"},
};

void usage() {
  std::cerr << "usage: perfbench --workload serve_steady|serve_churn|campaign [--seed N]\n"
               "                 [--seconds S] [--trace 0|1] [--trace-out FILE]\n";
}

std::optional<Options> parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return std::nullopt;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      if (value != "serve_steady" && value != "serve_churn" && value != "campaign") {
        return std::nullopt;
      }
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0' || value[0] == '-') return std::nullopt;
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(options.seconds > 0.0 && options.seconds <= 600.0)) {
        return std::nullopt;
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return std::nullopt;
      options.traced = value == "1";
    } else if (arg == "--trace-out") {
      options.trace_path = value;
    } else {
      return std::nullopt;
    }
  }
  if (options.workload.empty()) return std::nullopt;
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = parse(argc, argv);
  if (!options) {
    usage();
    return 2;
  }
  Tracer tracer{options->traced};
  Report report;
  report.note("perfbench " + options->workload + " seed " + std::to_string(options->seed) +
              (options->traced ? " traced" : ""));

  std::unique_ptr<vns::measure::Workbench> world;
  std::vector<double> setup_s;
  std::ostringstream setup_line;
  setup_line << "setup_s:";
  double replay_s = 0.0;
  for (int i = 0; i < kSetups; ++i) {
    world.reset();
    // A traced run replays set-up between the first two set-ups: not as the
    // process's first build, which is slower than the rest, and with no other
    // world alive, so the live FIB and memory figures are one world's.
    if (options->traced && i == 1) replay_s = replay_setup(tracer, report);
    const auto t0 = Clock::now();
    world = build_world();
    setup_s.push_back(seconds_since(t0));
    setup_line << ' ' << setup_s.back();
  }
  report.note(setup_line.str());
  report.end_to_end("setup_s", median(setup_s), "s");
  if (options->traced) {
    report.layer("trace.setup_overhead_pct", (replay_s / median(setup_s) - 1.0) * 100.0, "%");
  }

  if (options->workload == "campaign") {
    run_campaign(*world, *options, tracer, report);
  } else {
    run_serve(*world, options->workload == "serve_churn", *options, tracer, report);
  }
  report.end_to_end("peak_rss_mb", peak_rss_mb(), "MB");

  if (options->traced) {
    report.layer("trace.spans", double(tracer.span_count()), "count");
    for (const auto& [name, unit] : kLayerMetrics) report.default_layer(name, unit);
    if (!options->trace_path.empty()) tracer.write(options->trace_path);
  }
  report.print(std::cout, options->traced);
  return 0;
}
