#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <sstream>

#include "bgp/fabric.hpp"
#include "measure/prober.hpp"
#include "net/flat_fib.hpp"
#include "serve/engine.hpp"
#include "serve/update_trace.hpp"
#include "sim/path_model.hpp"
#include "sim/time.hpp"
#include "util/counters.hpp"

namespace perfbench {

using namespace vns;

namespace {

// Churn shaped like `vns_serve --batches 24 --events 12`.
constexpr std::uint64_t kChurnBatches = 24;
constexpr std::uint32_t kEventsPerBatch = 12;
// serve_steady runs one Engine per slice of this many seconds, each over a
// trace of kSteadySliceBatches ticks with no events in them.
constexpr double kSteadySliceSeconds = 2.5;
constexpr std::uint64_t kSteadySliceBatches = 3;
/// Share of the run's seconds given to serve_churn's dwell budget; applying
/// the churn takes roughly the rest.
constexpr double kChurnDwellShare = 0.3;
/// (viewpoint, target) pairs checked against explain_route after a serve run.
constexpr std::size_t kAuditPairs = 2000;
/// Fig. 9 horizon.  The paper streams for a week, which takes 0.08 s here;
/// 84 days gives the stream sweep about half the Fig. 3 sweep's wall time.
constexpr double kStreamDays = 84.0;

/// "label: n=<samples> p50=<ns> p<top>=<ns>", where p<top> is the highest
/// percentile with at least ten samples beyond it.
std::string latency_note(const std::string& label, const obs::LatencySnapshot& snapshot) {
  const double top = supported_percentile(snapshot.total());
  std::ostringstream line;
  line << label << ": n=" << snapshot.total();
  if (top >= 50.0) line << " p50=" << quantile(snapshot, 0.5) << " ns";
  if (top > 50.0) line << " p" << top << '=' << quantile(snapshot, top / 100.0) << " ns";
  return line.str();
}

/// The steady, converging and stale ladders of one report, merged.
obs::LatencySnapshot all_probes(const serve::SloReport& slo) {
  obs::LatencySnapshot probes = slo.steady_ns;
  probes.merge(slo.converging_ns);
  probes.merge(slo.stale_ns);
  return probes;
}

/// Pairs whose compiled-FIB answer differs from explain_route's decision,
/// which re-runs the BGP decision over the router's candidates.
std::uint64_t audit_egress(const core::VnsNetwork& vns, std::uint64_t seed) {
  const auto pops = vns.pops();
  const auto prefixes = vns.known_prefix_log();
  util::Rng rng{seed ^ 0xa0d17ull};
  std::uint64_t mismatches = 0;
  for (std::size_t i = 0; i < kAuditPairs; ++i) {
    const auto pick = [&rng](std::size_t size) {
      return std::size_t(rng.uniform_int(0, std::int64_t(size) - 1));
    };
    const auto viewpoint = pops[pick(pops.size())].id;
    const auto target = prefixes[pick(prefixes.size())].first_host();
    const auto served = vns.egress_pop(viewpoint, target).value_or(core::kNoPop);
    const auto explained = vns.explain_route(viewpoint, target);
    mismatches += served != (explained.routed ? explained.chosen.pop : core::kNoPop);
  }
  return mismatches;
}

}  // namespace

void run_serve(measure::Workbench& world, bool churn, const Options& options, Tracer& tracer,
               Report& report) {
  auto& vns = world.vns();
  // The churn thread is the only writer: convergence and FIB refreshes run
  // on it, not on a pool competing with the resolvers for the 4 CPUs.
  vns.fabric().set_threads(1);
  net::FlatFib::set_compile_threads(1);

  serve::UpdateTrace trace;
  if (churn) {
    // The churn trace is fixed like the world.  Its apply time hangs on how
    // many upstream faults the schedule draws: 6.7 to 13.2 s over seeds
    // 11-15, twice what a code change would move it.  --seed still draws the
    // resolvers' picks and the audit sample.
    serve::GenerateConfig generate;
    generate.seed = kWorldSeed;
    generate.scale = "paper";
    generate.batches = kChurnBatches;
    generate.events_per_batch = kEventsPerBatch;
    trace = serve::generate_trace(vns, generate);
  } else {
    trace.seed = options.seed;
    trace.scale = "paper";
    trace.batches = kSteadySliceBatches;
  }
  // A quiet fabric does not change between Engine runs, so serve_steady is
  // measured as several short runs and reports their medians, which a burst
  // of load from outside the process moves less.  The churn trace is one run.
  const int slices =
      churn ? 1 : std::max(1, int(std::lround(options.seconds / kSteadySliceSeconds)));

  serve::EngineConfig config;
  config.resolver_threads = kResolvers;  // closed loop: qps = 0
  config.duration_s = (churn ? options.seconds * kChurnDwellShare : options.seconds) / slices;
  config.heartbeat_every = 0;
  // Writer time per batch: the gap between consecutive applied-hooks of one
  // run minus the dwell the engine sleeps between them.
  const double dwell_per_batch =
      std::max(config.duration_s / double(std::max<std::uint64_t>(trace.batches, 1)), 0.0005);
  std::vector<Clock::time_point> applied_at;
  std::vector<double> batch_ms;
  if (tracer.enabled()) {
    applied_at.reserve(trace.batches);
    config.on_batch_applied = [&](std::uint64_t) { applied_at.push_back(Clock::now()); };
  }

  const auto conv0 = bgp::ConvergenceMetrics::global().snapshot();
  const auto fib0 = net::FlatFibMetrics::global().snapshot();
  serve::SloReport slo;  // summed over the slices
  std::vector<double> rate, p50, p99;
  for (int slice = 0; slice < slices; ++slice) {
    config.seed = options.seed * 1000 + std::uint64_t(slice);
    serve::SloReport part;
    {
      const Tracer::Scope span{tracer, "serve.Engine.run"};
      part = serve::Engine{vns, config}.run(trace);
    }
    const obs::LatencySnapshot probes = all_probes(part);
    for (std::size_t i = 1; i < applied_at.size(); ++i) {
      const std::chrono::duration<double> gap = applied_at[i] - applied_at[i - 1];
      batch_ms.push_back((gap.count() - dwell_per_batch) * 1e3);
    }
    applied_at.clear();
    rate.push_back(double(part.probes) / part.wall_seconds);
    p50.push_back(quantile(probes, 0.50));
    p99.push_back(quantile(probes, 0.99));
    slo.steady_ns.merge(part.steady_ns);
    slo.converging_ns.merge(part.converging_ns);
    slo.stale_ns.merge(part.stale_ns);
    slo.probes += part.probes;
    slo.stale_served += part.stale_served;
    slo.events_applied += part.events_applied;
    slo.wall_seconds += part.wall_seconds;
  }
  const auto conv1 = bgp::ConvergenceMetrics::global().snapshot();
  const auto fib1 = net::FlatFibMetrics::global().snapshot();

  report.end_to_end("probes_per_s", median(rate), "1/s");
  report.end_to_end("probe_p50_ns", median(p50), "ns");
  report.end_to_end("probe_p99_ns", median(p99), "ns");
  report.end_to_end("run_s", slo.wall_seconds, "s");
  report.note(latency_note("probe latency (all ladders)", all_probes(slo)));
  report.note(latency_note("  steady", slo.steady_ns));
  report.note(latency_note("  converging", slo.converging_ns));
  report.note(latency_note("  stale", slo.stale_ns));

  const double churn_apply_s = slo.wall_seconds - config.duration_s * slices;
  report.layer("serve.churn_apply_s", churn_apply_s, "s");
  report.layer("serve.probes", double(slo.probes), "count");
  report.layer("serve.steady_p50_ns", quantile(slo.steady_ns, 0.5), "ns");
  report.layer("serve.stale_p50_ns", quantile(slo.stale_ns, 0.5), "ns");
  report.layer("serve.stale_frac",
               slo.probes ? double(slo.stale_served) / double(slo.probes) : 0.0, "ratio");
  report.layer("serve.converging_count", double(slo.converging_ns.total()), "count");
  report.layer("serve.converging_p90_ns", quantile(slo.converging_ns, 0.9), "ns");
  report.layer("serve.events_applied", double(slo.events_applied), "count");
  report.layer("bgp.churn_converge_s", conv1.seconds - conv0.seconds, "s");
  report.layer("bgp.churn_messages", double(conv1.messages - conv0.messages), "count");
  report.layer("net.patches", double(fib1.patches - fib0.patches), "count");
  report.layer("net.full_rebuilds", double(fib1.full_rebuilds - fib0.full_rebuilds), "count");
  report.layer("net.slots_touched", double(fib1.slots_touched - fib0.slots_touched), "count");
  report.layer("net.patch_s", fib1.patch_seconds - fib0.patch_seconds, "s");

  report.layer("serve.batch_apply_p50_ms", median(batch_ms), "ms");
  report.layer("serve.batch_apply_max_ms",
               batch_ms.empty() ? 0.0 : *std::max_element(batch_ms.begin(), batch_ms.end()), "ms");

  std::uint64_t mismatches = 0;
  {
    const Tracer::Scope span{tracer, "core.explain_route.audit"};
    mismatches = audit_egress(vns, options.seed);
  }
  Digest state;
  {
    const Tracer::Scope span{tracer, "serve.dump_fabric_state"};
    state.add(serve::dump_fabric_state(vns.fabric()));
  }
  // Every generated event targets a live session or link, so all apply.
  const std::uint64_t unapplied = trace.events.size() > slo.events_applied
                                      ? trace.events.size() - slo.events_applied
                                      : slo.events_applied - trace.events.size();
  report.attempted += slo.probes + trace.events.size() + kAuditPairs;
  report.failed += mismatches + unapplied;
  report.note("serve: " + std::to_string(slo.probes) + " probes, " +
              std::to_string(slo.events_applied) + "/" + std::to_string(trace.events.size()) +
              " events applied, churn beyond dwell " + std::to_string(churn_apply_s) + " s");
  report.note("audit: " + std::to_string(mismatches) + "/" + std::to_string(kAuditPairs) +
              " egress_pop answers differ from explain_route");
  report.note("digest fabric_state " + state.hex());
}

namespace {

struct PassResult {
  double fig3_s = 0.0;
  double fig9_s = 0.0;
  std::uint64_t probes = 0;  ///< prefixes measured
  std::uint64_t paths = 0;   ///< (prefix, PoP) probe paths
  std::uint64_t pings = 0;
  std::uint64_t sessions = 0;
  std::uint64_t failed = 0;
  double stream_cpu_ratio = 0.0;
  obs::LatencySnapshot latency;  ///< one sample per Fig. 3 probe
  Digest fig3;
  Digest fig9;
};

/// One Fig. 3 + Fig. 9 pass, as bench_fig3_geo_precision and
/// bench_fig9_video_loss run them.
PassResult campaign_pass(measure::Workbench& w, std::uint64_t seed, Tracer& tracer) {
  PassResult pass;
  obs::LatencyRecorder latency{1};
  const Tracer::Scope root{tracer, "campaign.pass"};
  const auto n_segments = tracer.name("measure.probe_segments");
  const auto n_model = tracer.name("sim.PathModel");
  const auto n_ping = tracer.name("measure.Prober.ping");

  // ---- Fig. 3: every prefix from every PoP, forced out locally, 5 pings.
  const auto fig3_t0 = Clock::now();
  {
    const Tracer::Scope sweep{tracer, "campaign.fig3"};
    util::Rng rng{seed ^ 0xf16'3ULL};
    measure::Prober prober{rng.fork("pings")};
    const auto& prefixes = w.internet().prefixes();
    const auto pop_count = w.vns().pops().size();
    for (std::size_t id = 0; id < prefixes.size(); ++id) {
      const auto reported = w.geoip().lookup(prefixes[id].prefix);
      if (!reported) continue;
      // One Fig. 3 probe measures a prefix from all 11 PoPs.
      const auto t0 = Clock::now();
      const core::PopId geo_pop = w.vns().geo_closest_pop(*reported);
      core::PopId best_pop = core::kNoPop;
      double geo_rtt = 0.0, best_rtt = 0.0;
      for (core::PopId pop = 0; pop < pop_count; ++pop) {
        std::vector<sim::SegmentProfile> segments;
        {
          const Tracer::Scope span{tracer, n_segments};
          segments = w.probe_segments(pop, id, /*include_last_mile=*/true);
        }
        std::optional<sim::PathModel> path;
        {
          const Tracer::Scope span{tracer, n_model};
          path.emplace(std::move(segments), 0.0, util::Rng{seed ^ (id * 11 + pop)});
        }
        measure::PingResult ping;
        {
          const Tracer::Scope span{tracer, n_ping};
          ping = prober.ping(*path, 0.0, 5);
        }
        ++pass.paths;
        pass.pings += std::uint64_t(ping.sent);
        if (ping.lost > ping.sent || (ping.min_rtt_ms && !(*ping.min_rtt_ms >= 0.0))) {
          ++pass.failed;
        }
        if (!ping.min_rtt_ms) continue;
        if (pop == geo_pop) geo_rtt = *ping.min_rtt_ms;
        if (best_pop == core::kNoPop || *ping.min_rtt_ms < best_rtt) {
          best_pop = pop;
          best_rtt = *ping.min_rtt_ms;
        }
      }
      latency.shard(0).record(std::uint64_t(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count()));
      ++pass.probes;
      pass.fig3.add_value(id);
      pass.fig3.add_value(geo_pop);
      pass.fig3.add_value(best_pop);
      pass.fig3.add_value(geo_rtt);
      pass.fig3.add_value(best_rtt);
    }
  }
  pass.fig3_s = seconds_since(fig3_t0);
  pass.latency = latency.snapshot();

  // ---- Fig. 9: AMS/SJS/SYD clients to six servers, VNS vs transit,
  // 1080p and 720p, two sessions an hour.
  const auto fig9_t0 = Clock::now();
  {
    const Tracer::Scope sweep{tracer, "campaign.fig9"};
    const double horizon = kStreamDays * sim::kSecondsPerDay;
    const char* clients[] = {"AMS", "SJS", "SYD"};
    const char* servers[] = {"AMS", "FRA", "HKG", "SIN", "ASH", "NYC"};
    std::vector<measure::StreamTask> tasks;
    for (const char* client_name : clients) {
      const auto client = w.vns().find_pop(client_name).value();
      for (std::size_t s = 0; s < std::size(servers); ++s) {
        const auto server = w.vns().find_pop(servers[s]).value();
        if (server == client) continue;
        std::vector<sim::SegmentProfile> vns_segments;
        {
          const Tracer::Scope span{tracer, "core.internal_segments"};
          vns_segments = w.vns().internal_segments(client, server, w.catalog());
        }
        std::vector<topo::AsIndex> transit_as_path;
        for (const auto& attachment : w.vns().attachments()) {
          if (attachment.pop == client && attachment.upstream) {
            transit_as_path.push_back(attachment.as);
            break;
          }
        }
        const auto transit_segments = topo::transit_path_segments(
            w.internet(), w.vns().pop(client).city.location, w.vns().pop(client).city.region,
            transit_as_path, w.vns().pop(server).city.location, topo::AsType::kLTP,
            w.vns().pop(server).city.region, w.catalog(), w.delay(),
            /*include_last_mile=*/false);
        for (const bool via_vns : {true, false}) {
          for (const bool hd720 : {false, true}) {
            measure::StreamTask task;
            task.segments = via_vns ? vns_segments : transit_segments;
            task.horizon_s = horizon;
            task.start_s = double(s) * 150.0;
            task.end_s = horizon - 150.0;
            task.interval_s = 1800.0;
            task.profile = hd720 ? media::VideoProfile::hd720() : media::VideoProfile::hd1080();
            tasks.push_back(std::move(task));
          }
        }
      }
    }
    const CpuMeter cpu;
    std::vector<measure::StreamTaskResult> results;
    {
      const Tracer::Scope span{tracer, "measure.run_stream_campaign"};
      results = measure::run_stream_campaign(tasks, util::Rng{seed ^ 0xf16'9ULL}, kThreads);
    }
    pass.stream_cpu_ratio = cpu.ratio();
    for (const auto& result : results) {
      for (const auto& session : result.sessions) {
        ++pass.sessions;
        const double loss = session.loss_percent();
        pass.fig9.add_value(loss);
        if (session.packets_lost > session.packets_sent || !std::isfinite(loss) ||
            !std::isfinite(session.jitter_ms)) {
          ++pass.failed;
        }
      }
    }
  }
  pass.fig9_s = seconds_since(fig9_t0);
  return pass;
}

}  // namespace

void run_campaign(measure::Workbench& world, const Options& options, Tracer& tracer,
                  Report& report) {
  // A traced run traces its second pass only: the others, untraced, give
  // the tracing overhead, and one traced pass is already ~360k spans.
  Tracer untraced{false};
  std::vector<PassResult> passes;
  std::vector<double> untraced_s;
  auto& counters = util::Counters::global();
  std::uint64_t traced_slots = 0, traced_sessions = 0;  // media work of the traced pass
  const auto t0 = Clock::now();
  // At least two passes, so that the second can be checked against the first.
  while (passes.size() < 2 ||
         seconds_since(t0) + (passes.back().fig3_s + passes.back().fig9_s) <= options.seconds) {
    const bool trace_this = tracer.enabled() && passes.size() == 1;
    const auto slots0 = counters.value("measure.slots_analyzed");
    const auto sessions0 = counters.value("measure.sessions_streamed");
    passes.push_back(
        campaign_pass(world, options.seed, trace_this ? tracer : untraced));
    const PassResult& pass = passes.back();
    if (trace_this) {
      traced_slots = counters.value("measure.slots_analyzed") - slots0;
      traced_sessions = counters.value("measure.sessions_streamed") - sessions0;
    } else {
      untraced_s.push_back(pass.fig3_s + pass.fig9_s);
    }
  }

  std::vector<double> pass_s, probe_rate, p50, p99;
  obs::LatencySnapshot latency;
  for (const PassResult& pass : passes) {
    pass_s.push_back(pass.fig3_s + pass.fig9_s);
    probe_rate.push_back(double(pass.probes) / pass.fig3_s);
    p50.push_back(quantile(pass.latency, 0.50));
    p99.push_back(quantile(pass.latency, 0.99));
    latency.merge(pass.latency);
    report.attempted += pass.paths + pass.sessions;
    report.failed += pass.failed;
    // Same seed, same world: every pass must reproduce the first exactly.
    if (pass.fig3.value() != passes.front().fig3.value() ||
        pass.fig9.value() != passes.front().fig9.value()) {
      report.failed += pass.paths + pass.sessions;
    }
  }
  report.end_to_end("probes_per_s", median(probe_rate), "1/s");
  report.end_to_end("probe_p50_ns", median(p50), "ns");
  report.end_to_end("probe_p99_ns", median(p99), "ns");
  report.end_to_end("run_s", median(pass_s), "s");
  report.note(latency_note("fig3 probe latency (all passes)", latency));
  report.note("campaign: " + std::to_string(passes.size()) + " passes of " +
              std::to_string(passes.front().probes) + " prefixes, " +
              std::to_string(passes.front().paths) + " probe paths and " +
              std::to_string(passes.front().sessions) + " sessions");
  report.note("digest fig3 " + passes.front().fig3.hex() + " fig9 " + passes.front().fig9.hex());

  // Per-layer figures are those of the traced pass (pass 1).
  if (!tracer.enabled()) return;
  const PassResult& traced = passes[1];
  report.layer("measure.campaign_s", traced.fig3_s + traced.fig9_s, "s");
  report.layer("measure.probe_segments_s", tracer.total_seconds("measure.probe_segments"), "s");
  report.layer("measure.probe_paths", double(traced.paths), "count");
  report.layer("sim.path_model_s", tracer.total_seconds("sim.PathModel"), "s");
  report.layer("measure.ping_s", tracer.total_seconds("measure.Prober.ping"), "s");
  report.layer("measure.pings", double(traced.pings), "count");
  report.layer("core.internal_segments_s", tracer.total_seconds("core.internal_segments"), "s");
  report.layer("media.stream_s", tracer.total_seconds("measure.run_stream_campaign"), "s");
  report.layer("media.sessions", double(traced_sessions), "count");
  report.layer("media.slots", double(traced_slots), "count");
  report.layer("media.stream_cpu_ratio", traced.stream_cpu_ratio, "ratio");
  report.layer("trace.campaign_overhead_pct",
               ((traced.fig3_s + traced.fig9_s) / median(untraced_s) - 1.0) * 100.0, "%");
}

}  // namespace perfbench
