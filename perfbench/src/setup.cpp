#include <optional>

#include "bgp/attr_table.hpp"
#include "bgp/fabric.hpp"
#include "net/flat_fib.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

vns::measure::WorkbenchConfig world_config() {
  auto config = vns::measure::WorkbenchConfig::paper_scale(kWorldSeed);
  config.threads = kThreads;
  return config;
}

void warm_fibs(vns::core::VnsNetwork& vns) {
  const auto target = vns.known_prefix_log().front().first_host();
  for (const auto& pop : vns.pops()) (void)vns.egress_pop(pop.id, target);
}

}  // namespace

std::unique_ptr<vns::measure::Workbench> build_world() {
  auto world = vns::measure::Workbench::build(world_config());
  world->vns().set_geo_routing(true);
  warm_fibs(world->vns());
  return world;
}

double replay_setup(Tracer& tracer, Report& report) {
  using vns::bgp::ConvergenceMetrics;
  using vns::net::FlatFibMetrics;
  const auto config = world_config();
  // Declared before the root span so that tearing the world down is not in it.
  std::optional<vns::topo::Internet> internet;
  vns::geo::GeoIpDatabase geoip;
  std::optional<vns::core::VnsNetwork> vns;
  const auto attrs0 = vns::bgp::AttrTable::global().stats();
  const auto t0 = Clock::now();
  const Tracer::Scope root{tracer, "setup.replay"};
  {
    const Tracer::Scope span{tracer, "topo.generate_topology"};
    internet.emplace(vns::topo::Internet::generate_topology(config.internet));
  }
  {
    const Tracer::Scope span{tracer, "topo.materialize_prefixes"};
    internet->materialize_prefixes();
  }
  {
    const Tracer::Scope span{tracer, "geo.build_geoip"};
    geoip = internet->build_geoip(config.geoip_model, config.geoip_seed);
  }
  {
    const Tracer::Scope span{tracer, "core.VnsNetwork"};
    vns.emplace(*internet, geoip, config.vns);
  }
  vns->fabric().set_threads(config.threads);
  vns::net::FlatFib::set_compile_threads(config.threads);

  // The feed's convergence cannot be timed apart from outside, so its CPU
  // ratio covers the whole feed, which convergence dominates.
  const auto conv0 = ConvergenceMetrics::global().snapshot();
  const CpuMeter feed_cpu;
  {
    const Tracer::Scope span{tracer, "core.feed_routes"};
    vns->feed_routes();
  }
  const double feed_cpu_ratio = feed_cpu.ratio();
  const auto conv1 = ConvergenceMetrics::global().snapshot();
  const CpuMeter flip_cpu;
  {
    const Tracer::Scope span{tracer, "core.set_geo_routing"};
    vns->set_geo_routing(true);
  }
  const double flip_cpu_ratio = flip_cpu.ratio();
  const auto conv2 = ConvergenceMetrics::global().snapshot();
  const CpuMeter compile_cpu;
  {
    const Tracer::Scope span{tracer, "core.egress_pop.first"};
    warm_fibs(*vns);
  }
  const double compile_cpu_ratio = compile_cpu.ratio();
  const double replay_s = seconds_since(t0);

  const double converge_s = conv1.seconds - conv0.seconds;
  const auto batches = conv2.batches - conv0.batches;
  report.layer("topo.generate_s", tracer.total_seconds("topo.generate_topology"), "s");
  report.layer("topo.originate_s", tracer.total_seconds("topo.materialize_prefixes"), "s");
  report.layer("geo.build_s", tracer.total_seconds("geo.build_geoip"), "s");
  report.layer("core.construct_s", tracer.total_seconds("core.VnsNetwork"), "s");
  report.layer("bgp.feed_s", tracer.total_seconds("core.feed_routes") - converge_s, "s");
  report.layer("bgp.converge_s", converge_s, "s");
  report.layer("bgp.converge_cpu_ratio", feed_cpu_ratio, "ratio");
  report.layer("bgp.messages", double(conv2.messages - conv0.messages), "count");
  report.layer("bgp.shard_occupancy_mean",
               batches ? double(conv2.occupied_shard_sum - conv0.occupied_shard_sum) /
                             double(batches)
                       : 0.0,
               "shards");
  report.layer("bgp.geo_flip_s", tracer.total_seconds("core.set_geo_routing"), "s");
  report.layer("bgp.geo_flip_cpu_ratio", flip_cpu_ratio, "ratio");
  report.layer("net.compile_s", tracer.total_seconds("core.egress_pop.first"), "s");
  report.layer("net.compile_cpu_ratio", compile_cpu_ratio, "ratio");

  // Memory of the converged world.  The RIB arena is reported as reserved
  // chunk bytes only: its live count includes pass-through large blocks.
  const auto fib = FlatFibMetrics::global().snapshot();
  // The attribute table is process-wide and its counters only grow: take
  // what this set-up added.
  const auto attrs = vns::bgp::AttrTable::global().stats();
  const auto intern_calls = attrs.intern_calls - attrs0.intern_calls;
  report.layer("net.fib_entries", double(fib.entries), "count");
  report.layer("net.fib_bytes", double(fib.bytes), "bytes");
  report.layer("bgp.rib_arena_reserved_mb",
               double(vns->fabric().rib_arena_stats().reserved_bytes) / kMiB, "MB");
  report.layer("bgp.attr_bytes", double(attrs.bytes_allocated - attrs0.bytes_allocated), "bytes");
  report.layer("bgp.attr_hit_ratio",
               intern_calls ? double(attrs.intern_hits - attrs0.intern_hits) / double(intern_calls)
                            : 0.0,
               "ratio");
  report.layer("mem.rss_after_setup_mb", current_rss_mb(), "MB");
  report.note("setup replay: " + std::to_string(internet->as_count()) + " ASes, " +
              std::to_string(internet->prefix_count()) + " prefixes, " +
              std::to_string(replay_s) + " s traced");
  return replay_s;
}

}  // namespace perfbench
