// The benchmark's set-up and its three workloads.  Each drives vnskit only
// through public calls: measure::Workbench, core::VnsNetwork,
// serve::Engine::run, measure::run_stream_campaign and measure::Prober.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "harness.hpp"
#include "measure/workbench.hpp"

namespace perfbench {

/// The machine has 4 CPUs and load comes from one process: a set-up pool of
/// 4, 3 closed-loop resolvers plus the churn thread, or 4 campaign workers.
constexpr int kThreads = 4;
constexpr int kResolvers = 3;

/// Every run measures the same world: the paper-scale Internet at seed 7,
/// the world the ROADMAP baselines were taken on.  The run's --seed draws
/// the workload on it (resolver picks, audit sample, probe and stream RNGs),
/// so that differences between runs are the workload's and the machine's,
/// not a different Internet's.
constexpr std::uint64_t kWorldSeed = 7;

struct Options {
  std::string workload;
  std::uint64_t seed = 7;
  double seconds = 15.0;
  bool traced = false;
  std::string trace_path;  ///< span TSV, written only by traced runs
};

/// Workbench::build at `kThreads`, geo routing switched on, and the first
/// egress_pop at every viewpoint so every FIB is compiled: the state a user
/// waits for before the overlay answers.
[[nodiscard]] std::unique_ptr<vns::measure::Workbench> build_world();

/// The same set-up replayed stage by stage through the public calls
/// Workbench::build makes for a materialized world, each stage in a span.
/// Records the set-up and memory per-layer metrics; returns the wall
/// seconds of the whole replay.
double replay_setup(Tracer& tracer, Report& report);

/// serve_steady (churn = false) and serve_churn (churn = true).
void run_serve(vns::measure::Workbench& world, bool churn, const Options& options,
               Tracer& tracer, Report& report);

/// The Fig. 3 geo-precision sweep plus the Fig. 9 stream sweep, repeated
/// for the run's seconds.
void run_campaign(vns::measure::Workbench& world, const Options& options, Tracer& tracer,
                  Report& report);

}  // namespace perfbench
