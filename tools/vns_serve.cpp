// vns_serve — the serving-mode SLO harness as a standalone tool.
//
// Builds the world, streams churn into it (freshly generated or replayed
// from a recorded trace), serves resolution queries from N threads, and
// prints JSONL heartbeats plus a final `slo` summary object on stdout.
//
//   vns_serve [--scale small|paper|full] [--seed N] [--threads N]
//             [--duration S] [--qps Q] [--batches N] [--events N]
//             [--heartbeat N] [--record FILE] [--replay FILE]
//             [--dump-state FILE]
//
//   --threads N      resolver threads (the world build is serial)
//   --duration S     total dwell budget in seconds, spread over the batches
//                    (pacing only; the event schedule is wall-clock free),
//                    at most 1e9
//   --qps Q          per-resolver probe rate (0 = unthrottled, else >= 1e-9)
//   --record FILE    generate the trace, save it to FILE, then run it
//   --replay FILE    load the trace from FILE instead of generating one; a
//                    trace naming a session or PoP the world lacks exits 2
//   --dump-state F   write the canonical final fabric state dump to F —
//                    byte-compare two runs to verify replay determinism
//
// Numeric values must be plain non-negative numbers that fit their type
// (--threads at most 1024); anything else exits 2 with a one-line message.
//
// Record/replay contract: the trace file and the final state dump are
// byte-identical for any --threads value; only the latency samples (wall
// clock) differ run to run.
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "measure/workbench.hpp"
#include "serve/engine.hpp"
#include "serve/update_trace.hpp"
#include "tools/cli.hpp"
#include "util/thread_pool.hpp"

using namespace vns;

namespace {

struct ServeArgs {
  topo::InternetScale scale = topo::InternetScale::kSmall;
  std::uint64_t seed = 1;
  int threads = 0;
  double duration_s = 0.0;
  double qps = 0.0;
  std::uint64_t batches = 16;
  std::uint32_t events_per_batch = 8;
  std::uint64_t heartbeat_every = 4;
  std::string record_path;
  std::string replay_path;
  std::string dump_state_path;
};

void usage(std::ostream& out) {
  out << "usage: vns_serve [--scale small|paper|full|xl] [--seed N] [--threads N]\n"
         "                 [--duration S] [--qps Q] [--batches N] [--events N]\n"
         "                 [--heartbeat N] [--record FILE] [--replay FILE]\n"
         "                 [--dump-state FILE]\n"
         "--threads sizes the resolver threads; the world build is serial\n";
}

/// Longest --duration, and longest pacing interval 1 / --qps, in seconds:
/// both become steady_clock durations, which hold about 9.2e9 s.
constexpr double kMaxSeconds = 1e9;
constexpr int kMaxThreads = 1024;

std::optional<ServeArgs> parse(int argc, char** argv) {
  ServeArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--scale") {
      const char* tier = next();
      if (tier == nullptr) return std::nullopt;
      const auto parsed = topo::scale_from_string(tier);
      if (!parsed) {
        std::cerr << "unknown --scale '" << tier << "' (valid: small|paper|full|xl)\n";
        return std::nullopt;
      }
      args.scale = *parsed;
    } else if (arg == "--seed") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      args.seed = cli::numeric_flag<std::uint64_t>(arg, v);
    } else if (arg == "--threads") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      args.threads = cli::numeric_flag(arg, v, kMaxThreads);
    } else if (arg == "--duration") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      args.duration_s = cli::numeric_flag(arg, v, kMaxSeconds);
    } else if (arg == "--qps") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      args.qps = cli::numeric_flag<double>(arg, v);
      if (args.qps > 0.0 && args.qps < 1.0 / kMaxSeconds) {
        std::cerr << "invalid --qps '" << v << "': want 0 or at least 1e-9\n";
        std::exit(2);
      }
    } else if (arg == "--batches") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      args.batches = cli::numeric_flag<std::uint64_t>(arg, v);
    } else if (arg == "--events") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      args.events_per_batch = cli::numeric_flag<std::uint32_t>(arg, v);
    } else if (arg == "--heartbeat") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      args.heartbeat_every = cli::numeric_flag<std::uint64_t>(arg, v);
    } else if (arg == "--record") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      args.record_path = v;
    } else if (arg == "--replay") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      args.replay_path = v;
    } else if (arg == "--dump-state") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      args.dump_state_path = v;
    } else if (arg == "--help") {
      usage(std::cout);
      std::exit(0);
    } else {
      return std::nullopt;
    }
  }
  if (!args.record_path.empty() && !args.replay_path.empty()) return std::nullopt;
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = parse(argc, argv);
  if (!args) {
    usage(std::cerr);
    return 2;
  }

  auto config = measure::WorkbenchConfig::at_scale(args->scale, args->seed);
  config.threads = args->threads;
  auto world = measure::Workbench::build(config);
  world->vns().set_geo_routing(true);

  serve::UpdateTrace trace;
  if (!args->replay_path.empty()) {
    std::ifstream in{args->replay_path};
    if (!in) {
      std::cerr << "vns_serve: cannot open " << args->replay_path << "\n";
      return 1;
    }
    auto loaded = serve::load_trace(in);
    if (!loaded) {
      std::cerr << "vns_serve: malformed trace " << args->replay_path << "\n";
      return 1;
    }
    if (const auto error = serve::validate_trace(*loaded, world->vns())) {
      std::cerr << "vns_serve: invalid trace " << args->replay_path << ": " << *error << "\n";
      return 2;
    }
    trace = std::move(*loaded);
  } else {
    serve::GenerateConfig gen;
    gen.seed = args->seed;
    gen.scale = std::string{topo::to_string(args->scale)};
    gen.batches = args->batches;
    gen.events_per_batch = args->events_per_batch;
    trace = serve::generate_trace(world->vns(), gen);
    if (!args->record_path.empty()) {
      std::ofstream out{args->record_path};
      if (!out) {
        std::cerr << "vns_serve: cannot write " << args->record_path << "\n";
        return 1;
      }
      serve::save_trace(trace, out);
      std::cerr << "vns_serve: recorded " << trace.events.size() << " events to "
                << args->record_path << "\n";
    }
  }

  serve::EngineConfig engine_config;
  engine_config.resolver_threads = util::resolve_thread_count(args->threads);
  engine_config.duration_s = args->duration_s;
  engine_config.qps = args->qps;
  engine_config.seed = args->seed;
  engine_config.heartbeat_every = args->heartbeat_every;
  engine_config.heartbeat_out = &std::cout;

  serve::Engine engine(world->vns(), engine_config);
  const serve::SloReport report = engine.run(trace);
  std::cout << "{\"type\":\"slo\",\"slo\":" << report.to_json() << "}\n";

  if (!args->dump_state_path.empty()) {
    std::ofstream out{args->dump_state_path};
    if (!out) {
      std::cerr << "vns_serve: cannot write " << args->dump_state_path << "\n";
      return 1;
    }
    out << serve::dump_fabric_state(world->vns().fabric());
    std::cerr << "vns_serve: wrote state dump to " << args->dump_state_path << "\n";
  }
  return 0;
}
