// serve::Engine — the serving-mode SLO harness.
//
// One long-lived run: a churn thread streams an UpdateTrace into the BGP
// fabric, batch by batch, while N resolver threads probe the viewpoint FIBs
// and record per-probe latency into HDR-style obs::LatencyRecorder shards.
//
// The churn thread is the only writer: each batch ends with
// VnsNetwork::converge(), which publishes the next immutable FibSnapshot
// (DESIGN §13).  Resolvers never touch the fabric; each holds a snapshot and
// reloads it when the published pointer moves, so neither side waits for
// the other.  A probe that starts while a batch is being applied is *stale*
// (it may see the snapshot before that batch); any other probe is *steady*
// and sees the current one.  Freshness lag is 0 batch ticks by
// construction: a batch's RIB deltas are published within that batch.
#pragma once

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>

#include "core/vns_network.hpp"
#include "obs/latency.hpp"
#include "serve/update_trace.hpp"

namespace vns::serve {

struct EngineConfig {
  int resolver_threads = 4;
  /// Total dwell budget in seconds, spread evenly across the trace's
  /// batches; pacing only — the schedule itself is event-count driven, so
  /// the fabric trajectory is identical whatever the duration.
  double duration_s = 0.0;
  /// Per-resolver probe rate; 0 probes unthrottled.
  double qps = 0.0;
  std::uint64_t seed = 1;  ///< resolver target/viewpoint pick stream
  /// Emit a JSONL heartbeat every N batches to `heartbeat_out` (0 = off).
  std::uint64_t heartbeat_every = 4;
  std::ostream* heartbeat_out = nullptr;
  /// Called on the churn thread once per batch, in batch order, after the
  /// batch has been applied, reconverged and published.  Resolvers keep
  /// probing meanwhile (they read only FIB snapshots), so the hook may
  /// rebuild anything they do not read — traffic engineering refreshes
  /// per-link utilization against the post-churn routing here
  /// (traffic::assign_load + PathModel::set_utilization compose).  Keep it
  /// cheap: the next batch waits for it.
  std::function<void(std::uint64_t batch)> on_batch_applied;
};

/// Everything one serving run measured — the `slo` block of the bench JSON.
struct SloReport {
  obs::LatencySnapshot steady_ns;  ///< probes started outside batch application
  obs::LatencySnapshot converging_ns;  ///< always empty: probes never refresh FIBs
  obs::LatencySnapshot stale_ns;   ///< probes started while a batch was applied
  /// Batch ticks from a batch's RIB deltas to their publish, one sample per
  /// viewpoint per batch that emitted deltas — always 0 (see above).
  obs::LatencySnapshot freshness_lag;
  std::uint64_t probes = 0;        ///< steady + stale samples
  std::uint64_t stale_served = 0;  ///< stale samples
  std::uint64_t batches = 0;
  std::uint64_t events_applied = 0;
  std::uint64_t fib_patches = 0;         ///< viewpoint FIBs published by patch
  std::uint64_t fib_full_rebuilds = 0;   ///< ... by from-scratch compile
  std::uint64_t max_freshness_lag = 0;   ///< worst batch-tick lag observed
  double wall_seconds = 0.0;

  /// One JSON object (no trailing newline) — embedded as `"slo": {...}`.
  [[nodiscard]] std::string to_json() const;
};

class Engine {
 public:
  Engine(core::VnsNetwork& vns, EngineConfig config)
      : vns_(vns), config_(std::move(config)) {}

  /// Applies the trace batch-by-batch under resolver load and returns the
  /// merged report.  The fabric ends in the same state as a single-threaded
  /// replay of the same trace (latency samples are wall-clock and differ).
  /// Throws std::invalid_argument, before any resolver starts, when
  /// validate_trace rejects the trace.
  SloReport run(const UpdateTrace& trace);

 private:
  void apply(const UpdateEvent& event, std::uint64_t& applied);

  core::VnsNetwork& vns_;
  EngineConfig config_;
};

/// Canonical rendering of the full fabric state (every Loc-RIB plus every
/// per-neighbor export table, sorted) — the byte-comparison anchor of the
/// record→replay determinism contract.
[[nodiscard]] std::string dump_fabric_state(const bgp::Fabric& fabric);

}  // namespace vns::serve
