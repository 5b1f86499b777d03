// Serving-mode SLO bench: live p50/p99 resolution latency under churn.
//
// Builds the serving world, generates a deterministic churn trace (route
// flaps over the upstream transit sessions plus link/upstream faults), and
// runs serve::Engine: a churn thread streams the trace into the fabric and
// publishes FIB snapshots while resolver threads probe them.  One run yields
// the full SLO picture — steady and stale latency ladders, freshness lag in
// batch ticks, stale-served counts, patch-vs-rebuild split — emitted as the
// `slo` block of BENCH_slo_serving.json.
//
// A second engine run over the *same trace* against a world with incremental
// FIB patching disabled (fib_patch_max_dirty_fraction < 0, every publish a
// full DIR-16-8-8 recompile) isolates what the RIB-delta patch path buys the
// writer: the seconds each world spent building FIBs to publish print side
// by side and land in the metrics.  Resolvers never wait for a publish, so
// the difference shows up in the writer's time, not in the probe ladders.
#include <iostream>
#include <sstream>

#include "bench/bench_common.hpp"
#include "serve/engine.hpp"
#include "serve/update_trace.hpp"

using namespace vns;

namespace {

/// One engine run plus the writer seconds its FIB publishes took.
struct ServeRun {
  serve::SloReport slo;
  double patch_s = 0.0;
  double full_build_s = 0.0;
  [[nodiscard]] double publish_s() const { return patch_s + full_build_s; }
};

ServeRun run_engine(core::VnsNetwork& vns, const serve::UpdateTrace& trace,
                    const bench::BenchArgs& args, std::ostream* heartbeat_out) {
  serve::EngineConfig config;
  config.resolver_threads = util::resolve_thread_count(args.threads);
  config.duration_s = args.small ? 0.0 : 0.5;
  config.qps = 0.0;  // unthrottled: tails come from the FIB, not the pacer
  config.seed = args.seed;
  config.heartbeat_every = 4;
  config.heartbeat_out = heartbeat_out;
  serve::Engine engine(vns, config);
  const auto fib0 = net::FlatFibMetrics::global().snapshot();
  ServeRun run;
  run.slo = engine.run(trace);
  const auto fib1 = net::FlatFibMetrics::global().snapshot();
  run.patch_s = fib1.patch_seconds - fib0.patch_seconds;
  run.full_build_s = fib1.full_build_seconds - fib0.full_build_seconds;
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  auto world = bench::build_world(args, "bench_slo_serving",
                                  "serving-mode SLO observability under churn (S3.2)");
  auto& w = *world;
  w.vns().set_geo_routing(true);

  serve::GenerateConfig gen;
  gen.seed = args.seed;
  gen.scale = std::string{topo::to_string(args.scale)};
  gen.batches = args.small ? 12 : 24;
  gen.events_per_batch = args.small ? 6 : 12;
  const serve::UpdateTrace trace = serve::generate_trace(w.vns(), gen);
  std::cout << "trace: " << trace.events.size() << " events over " << trace.batches
            << " batches (seed " << trace.seed << ")\n\n";

  const auto campaign_t0 = std::chrono::steady_clock::now();
  std::ostringstream heartbeats;
  const ServeRun patched_run = run_engine(w.vns(), trace, args, &heartbeats);
  const serve::SloReport& patched = patched_run.slo;

  // Comparison world: identical topology and routes, but every viewpoint-FIB
  // publish is a full recompile.  Same trace, so the control-plane
  // trajectory is identical; only the data-plane refresh strategy differs.
  auto full_config = args.workbench_config();
  full_config.vns.fib_patch_max_dirty_fraction = -1.0;
  auto full_world = measure::Workbench::build(full_config);
  full_world->vns().set_geo_routing(true);
  const ServeRun full_run = run_engine(full_world->vns(), trace, args, nullptr);
  const serve::SloReport& full_rebuild = full_run.slo;
  const auto campaign_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - campaign_t0).count();

  std::cout << "heartbeats (every 4 batches):\n" << heartbeats.str() << "\n";

  util::TextTable table{{"configuration", "phase", "samples", "p50(us)", "p99(us)", "p999(us)"}};
  const auto row = [&table](const char* config_name, const char* phase,
                            const obs::LatencySnapshot& snap) {
    table.add_row({config_name, phase, std::to_string(snap.total()),
                   util::format_double(snap.quantile(0.50) / 1000.0, 1),
                   util::format_double(snap.quantile(0.99) / 1000.0, 1),
                   util::format_double(snap.quantile(0.999) / 1000.0, 1)});
  };
  row("incremental patch", "steady", patched.steady_ns);
  row("incremental patch", "stale", patched.stale_ns);
  row("full rebuild", "steady", full_rebuild.steady_ns);
  row("full rebuild", "stale", full_rebuild.stale_ns);
  table.print(std::cout);
  std::cout << "\nfreshness lag (batches): p50 "
            << patched.freshness_lag.quantile(0.50) << ", p99 "
            << patched.freshness_lag.quantile(0.99) << ", max "
            << patched.max_freshness_lag << " over "
            << patched.freshness_lag.total() << " viewpoint publishes\n";
  std::cout << "patch vs rebuild: " << patched.fib_patches << " patches, "
            << patched.fib_full_rebuilds << " full rebuilds (patched world); "
            << full_rebuild.fib_patches << " patches, " << full_rebuild.fib_full_rebuilds
            << " full rebuilds (rebuild world)\n";
  std::cout << "writer publish seconds: " << util::format_double(patched_run.publish_s(), 4)
            << " s patched (" << util::format_double(patched_run.patch_s, 4) << " patch + "
            << util::format_double(patched_run.full_build_s, 4) << " full), "
            << util::format_double(full_run.publish_s(), 4) << " s always-full\n";

  bench::metric("probes", patched.probes);
  bench::metric("stale_served", patched.stale_served);
  bench::metric("steady_p50_ns", patched.steady_ns.quantile(0.50));
  bench::metric("steady_p99_ns", patched.steady_ns.quantile(0.99));
  bench::metric("publish_s", patched_run.publish_s());
  bench::metric("publish_full_rebuild_s", full_run.publish_s());
  bench::metric("freshness_lag_p99_batches", patched.freshness_lag.quantile(0.99));
  bench::metric("max_freshness_lag_batches", patched.max_freshness_lag);
  bench::metric("fib_patches", patched.fib_patches);
  bench::metric("fib_full_rebuilds", patched.fib_full_rebuilds);
  bench::BenchRecord::global().block("slo", patched.to_json());

  bench::finish_run(args, campaign_seconds);
  return 0;
}
