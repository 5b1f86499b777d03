#include "serve/engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "bgp/attr_table.hpp"
#include "net/flat_fib.hpp"
#include "obs/json.hpp"

namespace vns::serve {

namespace {

/// Self-contained LCG for the resolvers' target/viewpoint pick stream; probe
/// choices never influence fabric state, so this stream is free to differ
/// across thread counts without breaking replay determinism.
struct PickRng {
  std::uint64_t state;
  std::uint32_t next(std::uint32_t bound) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<std::uint32_t>((state >> 33) % bound);
  }
};

}  // namespace

void Engine::apply(const UpdateEvent& event, std::uint64_t& applied) {
  bgp::Fabric& fabric = vns_.fabric();
  switch (event.op) {
    case UpdateOp::kAnnounce:
    case UpdateOp::kWithdraw: {
      // Generated traces only schedule flaps on live sessions, but a replay
      // of a hand-edited trace must degrade to a no-op, not corrupt a downed
      // session's Adj-RIB-In.
      const auto& neighbor = fabric.neighbor(event.session);
      if (!fabric.router(neighbor.attached_to)
               .session_is_up(bgp::SessionKind::kEbgp, event.session)) {
        return;
      }
      if (event.op == UpdateOp::kAnnounce) {
        bgp::Attributes attrs;
        attrs.as_path = bgp::AsPath{std::vector<net::Asn>(event.as_path)};
        attrs.med = event.med;
        fabric.announce(event.session, event.prefix, std::move(attrs));
      } else {
        fabric.withdraw(event.session, event.prefix);
      }
      ++applied;
      return;
    }
    case UpdateOp::kLinkDown:
      if (vns_.fail_pop_link(event.a, event.b)) ++applied;
      return;
    case UpdateOp::kLinkUp:
      if (vns_.restore_pop_link(event.a, event.b)) ++applied;
      return;
    case UpdateOp::kUpstreamDown:
      if (vns_.fail_upstream(event.a, event.which)) ++applied;
      return;
    case UpdateOp::kUpstreamUp:
      if (vns_.restore_upstream(event.a, event.which)) ++applied;
      return;
  }
}

SloReport Engine::run(const UpdateTrace& trace) {
  using Clock = std::chrono::steady_clock;
  if (const auto error = validate_trace(trace, vns_)) throw std::invalid_argument(*error);
  SloReport report;
  report.batches = trace.batches;

  const auto pops = vns_.pops();
  const auto prefixes = vns_.known_prefix_log();
  if (pops.empty() || prefixes.empty()) return report;

  // Probe pool: the first host of every known prefix (bounded; probes are
  // reads, so sampling the universe loses nothing but variety).
  constexpr std::size_t kMaxTargets = 4096;
  const std::size_t stride = std::max<std::size_t>(1, prefixes.size() / kMaxTargets);
  std::vector<net::Ipv4Address> targets;
  targets.reserve(std::min(prefixes.size(), kMaxTargets));
  for (std::size_t i = 0; i < prefixes.size(); i += stride) {
    targets.push_back(prefixes[i].first_host());
  }

  const int threads = std::max(1, config_.resolver_threads);
  obs::LatencyRecorder steady(static_cast<std::size_t>(threads));
  obs::LatencyRecorder stale(static_cast<std::size_t>(threads));
  obs::LatencyRecorder freshness(1);  // churn thread is the only recorder
  std::atomic<bool> stop{false};
  // True while the churn thread applies a batch: probes that start then may
  // be answered from the snapshot before it.
  std::atomic<bool> applying{false};

  const auto fib0 = net::FlatFibMetrics::global().snapshot();
  const auto wall0 = Clock::now();

  std::vector<std::thread> resolvers;
  resolvers.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    resolvers.emplace_back([&, t] {
      auto& steady_shard = steady.shard(static_cast<std::size_t>(t));
      auto& stale_shard = stale.shard(static_cast<std::size_t>(t));
      PickRng rng{(config_.seed + 0x7ea7ull * static_cast<std::uint64_t>(t + 1)) *
                      0x9e3779b97f4a7c15ull +
                  1};
      const bool paced = config_.qps > 0.0;
      const auto interval =
          paced ? std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(1.0 / config_.qps))
                : Clock::duration::zero();
      auto next_slot = Clock::now();
      std::shared_ptr<const core::FibSnapshot> held = vns_.fib_snapshot();
      while (!stop.load(std::memory_order_acquire)) {
        if (paced) {
          std::this_thread::sleep_until(next_slot);
          next_slot += interval;
        }
        const core::PopId viewpoint =
            pops[rng.next(static_cast<std::uint32_t>(pops.size()))].id;
        const net::Ipv4Address target =
            targets[rng.next(static_cast<std::uint32_t>(targets.size()))];
        // Judged before the probe: a steady probe is answered from the
        // snapshot published by the last batch (or a later one).
        auto& shard = applying.load(std::memory_order_acquire) ? stale_shard : steady_shard;
        const auto t0 = Clock::now();
        if (vns_.fib_snapshot_raw() != held.get()) held = vns_.fib_snapshot();
        (void)held->egress_pop(viewpoint, target);
        const auto elapsed = Clock::now() - t0;
        shard.record(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()));
      }
    });
  }

  // Group the trace into batch ticks (events arrive batch-sorted from the
  // generator, but a loaded trace only promises the `batch` field).
  std::vector<std::vector<const UpdateEvent*>> by_batch(trace.batches);
  for (const UpdateEvent& event : trace.events) {
    if (event.batch < trace.batches) by_batch[event.batch].push_back(&event);
  }

  const double dwell_s =
      trace.batches > 0 ? std::max(config_.duration_s / static_cast<double>(trace.batches),
                                   0.0005)
                        : 0.0;
  const auto dwell = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(dwell_s));

  std::uint64_t log_head = vns_.fabric().rib_deltas_since(0).next_cursor;
  for (std::uint64_t tick = 0; tick < trace.batches; ++tick) {
    applying.store(true, std::memory_order_release);
    for (const UpdateEvent* event : by_batch[tick]) apply(*event, report.events_applied);
    vns_.converge();
    applying.store(false, std::memory_order_release);
    if (config_.on_batch_applied) config_.on_batch_applied(tick);
    // The deltas this batch emitted were published inside the batch.
    const std::uint64_t new_head = vns_.fabric().rib_deltas_since(log_head).next_cursor;
    if (new_head != log_head) {
      log_head = new_head;
      for (std::size_t v = 0; v < pops.size(); ++v) freshness.shard(0).record(0);
    }
    if (config_.heartbeat_out != nullptr && config_.heartbeat_every != 0 &&
        (tick + 1) % config_.heartbeat_every == 0) {
      const auto fib = net::FlatFibMetrics::global().snapshot();
      const auto steady_now = steady.snapshot();
      const auto stale_now = stale.snapshot();
      *config_.heartbeat_out
          << "{\"type\":\"slo_heartbeat\",\"batch\":" << obs::json_number(tick)
          << ",\"steady\":" << steady_now.to_json("ns")
          << ",\"stale\":" << stale_now.to_json("ns")
          << ",\"freshness_lag\":" << freshness.snapshot().to_json("batches")
          << ",\"probes\":" << obs::json_number(steady_now.total() + stale_now.total())
          << ",\"stale_served\":" << obs::json_number(stale_now.total())
          << ",\"fib_patches\":" << obs::json_number(fib.patches - fib0.patches)
          << ",\"fib_full_rebuilds\":"
          << obs::json_number(fib.full_rebuilds - fib0.full_rebuilds) << "}\n";
    }
    std::this_thread::sleep_for(dwell);
  }

  stop.store(true, std::memory_order_release);
  for (auto& worker : resolvers) worker.join();

  const auto fib1 = net::FlatFibMetrics::global().snapshot();
  report.steady_ns = steady.snapshot();
  report.stale_ns = stale.snapshot();
  report.freshness_lag = freshness.snapshot();
  report.probes = report.steady_ns.total() + report.stale_ns.total();
  report.stale_served = report.stale_ns.total();
  report.fib_patches = fib1.patches - fib0.patches;
  report.fib_full_rebuilds = fib1.full_rebuilds - fib0.full_rebuilds;
  report.wall_seconds =
      std::chrono::duration<double>(Clock::now() - wall0).count();
  return report;
}

std::string SloReport::to_json() const {
  std::ostringstream out;
  out << "{\"steady\": " << steady_ns.to_json("ns")
      << ", \"converging\": " << converging_ns.to_json("ns")
      << ", \"stale\": " << stale_ns.to_json("ns")
      << ", \"freshness_lag\": " << freshness_lag.to_json("batches")
      << ", \"probes\": " << obs::json_number(probes)
      << ", \"stale_served\": " << obs::json_number(stale_served)
      << ", \"batches\": " << obs::json_number(batches)
      << ", \"events_applied\": " << obs::json_number(events_applied)
      << ", \"fib_patches\": " << obs::json_number(fib_patches)
      << ", \"fib_full_rebuilds\": " << obs::json_number(fib_full_rebuilds)
      << ", \"max_freshness_lag_batches\": " << obs::json_number(max_freshness_lag)
      << ", \"wall_seconds\": " << obs::json_number(wall_seconds) << "}";
  return out.str();
}

std::string dump_fabric_state(const bgp::Fabric& fabric) {
  std::ostringstream out;
  for (bgp::RouterId r = 0; r < fabric.router_count(); ++r) {
    out << "router " << r << "\n";
    std::map<net::Ipv4Prefix, std::string> rows;
    for (const auto& [prefix, route] : fabric.router(r).loc_rib()) {
      rows[prefix] = route.to_string();
    }
    for (const auto& [prefix, row] : rows) {
      out << "  " << prefix.to_string() << " " << row << "\n";
    }
  }
  for (bgp::NeighborId n = 0; n < fabric.neighbor_count(); ++n) {
    out << "neighbor " << n << "\n";
    std::map<net::Ipv4Prefix, std::string> rows;
    for (const auto& [prefix, route] : fabric.exported_to(n)) {
      rows[prefix] = route.to_string();
    }
    for (const auto& [prefix, row] : rows) {
      out << "  " << prefix.to_string() << " " << row << "\n";
    }
  }
  return out.str();
}

}  // namespace vns::serve
