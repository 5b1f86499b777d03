// Serving-mode SLO harness tests: the HDR-style LatencyRecorder's bucket
// geometry, merge determinism and percentile error bound; the replayable
// update-trace round trip and the validation of hand-edited traces; held
// FIB snapshots staying unchanged while the writer publishes; and the
// engine-level contracts — record→replay byte-identity of the final fabric
// state at any thread count, and concurrent resolve-during-publish safety.
// Everything here runs under the tsan_concurrency_sweep (Serve.*).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "measure/workbench.hpp"
#include "obs/latency.hpp"
#include "serve/engine.hpp"
#include "serve/update_trace.hpp"

namespace vns {
namespace {

// Deterministic value stream for histogram tests (same LCG family as the
// trace generator; self-contained so the tests never depend on util RNGs).
class TestRng {
 public:
  explicit TestRng(std::uint64_t seed) : state_(seed * 2654435761u + 1) {}
  std::uint64_t next(std::uint64_t bound) {
    state_ = state_ * 6364136223846793005ull + 1442695040888963407ull;
    return (state_ >> 33) % bound;
  }

 private:
  std::uint64_t state_;
};

// ------------------------------------------------------- latency recorder ---

TEST(Serve, LatencyBucketGeometryRoundTrips) {
  using R = obs::LatencyRecorder;
  // Every bucket index maps to a lower bound that maps back to the same
  // bucket, and consecutive buckets tile the range without gaps.
  for (std::size_t bucket = 0; bucket + 1 < R::kBucketCount; ++bucket) {
    const std::uint64_t lo = R::bucket_lo(bucket);
    EXPECT_EQ(R::bucket_of(lo), bucket) << "bucket " << bucket;
    const std::uint64_t width = R::bucket_width(bucket);
    EXPECT_EQ(R::bucket_of(lo + width - 1), bucket) << "bucket " << bucket;
    EXPECT_EQ(R::bucket_lo(bucket + 1), lo + width) << "bucket " << bucket;
  }
  // Spot-check values across octaves, including the exact range boundary
  // and the top of the uint64 range.
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{1}, R::kSubBuckets - 1, R::kSubBuckets,
        std::uint64_t{1000}, std::uint64_t{1} << 32,
        std::numeric_limits<std::uint64_t>::max()}) {
    const std::size_t bucket = R::bucket_of(v);
    ASSERT_LT(bucket, R::kBucketCount);
    EXPECT_LE(R::bucket_lo(bucket), v);
    EXPECT_GE(R::bucket_lo(bucket) + (R::bucket_width(bucket) - 1), v);
  }
}

TEST(Serve, LatencyMergeIsDeterministicAcrossShardAssignment) {
  // The same multiset of samples, sprayed across different shard counts and
  // assignments, must merge to the identical snapshot.
  std::vector<std::uint64_t> values;
  TestRng rng{7};
  for (int i = 0; i < 20000; ++i) values.push_back(rng.next(200'000'000) + 1);

  obs::LatencyRecorder one{1};
  obs::LatencyRecorder four{4};
  obs::LatencyRecorder seven{7};
  for (std::size_t i = 0; i < values.size(); ++i) {
    one.shard(0).record(values[i]);
    four.shard(i % 4).record(values[i]);
    seven.shard((i * 31) % 7).record(values[i]);
  }
  const auto reference = one.snapshot();
  EXPECT_EQ(reference.total(), values.size());
  EXPECT_EQ(four.snapshot(), reference);
  EXPECT_EQ(seven.snapshot(), reference);

  // Merging per-shard snapshots by hand reproduces the recorder's merge.
  obs::LatencySnapshot merged;
  for (std::size_t s = 0; s < four.shard_count(); ++s) {
    merged.merge(four.shard(s).snapshot());
  }
  EXPECT_EQ(merged, reference);
}

TEST(Serve, LatencyQuantileRelativeErrorIsBounded) {
  // Reporting bucket midpoints bounds any percentile's relative error by
  // 2^-(kPrecisionBits+1); verify against exact order statistics.
  constexpr double kBound =
      1.0 / static_cast<double>(std::uint64_t{2}
                                << obs::LatencyRecorder::kPrecisionBits);
  std::vector<std::uint64_t> values;
  TestRng rng{11};
  for (int i = 0; i < 50000; ++i) values.push_back(rng.next(5'000'000'000ull) + 1);

  obs::LatencyRecorder recorder{1};
  for (const auto v : values) recorder.shard(0).record(v);
  std::sort(values.begin(), values.end());

  const auto snapshot = recorder.snapshot();
  for (const double q : {0.01, 0.25, 0.50, 0.90, 0.99, 0.999, 1.0}) {
    const auto rank = static_cast<std::size_t>(std::max<double>(
        1.0, std::ceil(q * static_cast<double>(values.size()))));
    const double exact = static_cast<double>(values[rank - 1]);
    const double estimate = snapshot.quantile(q);
    EXPECT_LE(std::abs(estimate - exact), exact * kBound + 0.5)
        << "q=" << q << " exact=" << exact << " estimate=" << estimate;
  }
  EXPECT_GT(snapshot.quantile(0.5), 0.0);
  EXPECT_EQ(obs::LatencySnapshot{}.quantile(0.5), 0.0);
}

TEST(Serve, LatencyConcurrentRecordingMatchesSerialMerge) {
  // One shard per thread, heavy concurrent recording: the merged snapshot
  // must equal a serial recording of the union of all streams.
  constexpr std::size_t kThreads = 4;
  constexpr int kPerThread = 25000;
  obs::LatencyRecorder concurrent{kThreads};
  obs::LatencyRecorder serial{1};

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&concurrent, t] {
      TestRng rng{1000 + t};
      auto& shard = concurrent.shard(t);
      for (int i = 0; i < kPerThread; ++i) shard.record(rng.next(1'000'000) + 1);
    });
  }
  for (auto& w : workers) w.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    TestRng rng{1000 + t};
    for (int i = 0; i < kPerThread; ++i) serial.shard(0).record(rng.next(1'000'000) + 1);
  }
  EXPECT_EQ(concurrent.snapshot(), serial.snapshot());
  EXPECT_EQ(concurrent.snapshot().total(), kThreads * kPerThread);
}

TEST(Serve, LatencySnapshotJsonHasTheFixedLadder) {
  obs::LatencyRecorder recorder{1};
  for (std::uint64_t v = 1; v <= 1000; ++v) recorder.shard(0).record(v);
  const auto json = recorder.snapshot().to_json("ns");
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  for (const char* key : {"\"count\":1000", "\"p50_ns\":", "\"p90_ns\":",
                          "\"p99_ns\":", "\"p999_ns\":", "\"max_ns\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " missing in " << json;
  }
}

// ------------------------------------------------------------ update trace ---

TEST(Serve, TraceGenerationIsDeterministicAndRoundTripsThroughJsonl) {
  auto world = measure::Workbench::build(measure::WorkbenchConfig::small(7));
  world->vns().set_geo_routing(true);

  serve::GenerateConfig gen;
  gen.seed = 7;
  gen.batches = 6;
  gen.events_per_batch = 5;
  const auto trace = serve::generate_trace(world->vns(), gen);
  EXPECT_EQ(trace.seed, 7u);
  EXPECT_EQ(trace.batches, 6u);
  EXPECT_FALSE(trace.events.empty());

  // Pure function of (network shape, config): regeneration is identical,
  // and generation never mutates the network (generation is unchanged).
  const std::uint64_t generation_before = world->vns().fabric().rib_generation();
  const auto again = serve::generate_trace(world->vns(), gen);
  EXPECT_EQ(world->vns().fabric().rib_generation(), generation_before);
  EXPECT_EQ(again.events, trace.events);
  EXPECT_EQ(serve::trace_to_jsonl(again), serve::trace_to_jsonl(trace));

  // save → load round trip preserves every field of every event.
  std::istringstream in{serve::trace_to_jsonl(trace)};
  const auto loaded = serve::load_trace(in);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->seed, trace.seed);
  EXPECT_EQ(loaded->scale, trace.scale);
  EXPECT_EQ(loaded->batches, trace.batches);
  EXPECT_EQ(loaded->events, trace.events);

  // Malformed input is rejected, not misparsed.
  std::istringstream headerless{"{\"op\":\"announce\"}\n"};
  EXPECT_FALSE(serve::load_trace(headerless).has_value());
  std::istringstream bad_op{
      "{\"type\":\"update_trace\",\"version\":1,\"scale\":\"small\",\"seed\":1,"
      "\"batches\":1,\"events\":1}\n{\"op\":\"frobnicate\",\"batch\":0}\n"};
  EXPECT_FALSE(serve::load_trace(bad_op).has_value());
}

// ----------------------------------------------------------------- engine ---

serve::SloReport run_engine_on(core::VnsNetwork& vns, const serve::UpdateTrace& trace,
                               int threads, std::ostream* heartbeat_out = nullptr) {
  serve::EngineConfig config;
  config.resolver_threads = threads;
  config.duration_s = 0.0;  // schedule is event-driven; no need to dwell
  config.qps = 0.0;
  config.seed = 5;
  config.heartbeat_every = heartbeat_out != nullptr ? 2 : 0;
  config.heartbeat_out = heartbeat_out;
  serve::Engine engine(vns, config);
  return engine.run(trace);
}

TEST(Serve, TraceValidationRejectsIdsTheNetworkLacks) {
  auto world = measure::Workbench::build(measure::WorkbenchConfig::small(7));
  const auto& vns = world->vns();
  serve::UpdateTrace trace;
  trace.batches = 1;
  serve::UpdateEvent withdraw;
  withdraw.op = serve::UpdateOp::kWithdraw;
  withdraw.session = static_cast<bgp::NeighborId>(vns.fabric().neighbor_count() - 1);
  withdraw.prefix = vns.known_prefix_log().front();
  serve::UpdateEvent upstream;
  upstream.op = serve::UpdateOp::kUpstreamDown;
  upstream.a = static_cast<core::PopId>(vns.pops().size() - 1);
  trace.events = {withdraw, upstream};
  EXPECT_FALSE(serve::validate_trace(trace, vns).has_value());

  trace.events[0].session = 4'000'000;
  const auto bad_session = serve::validate_trace(trace, vns);
  ASSERT_TRUE(bad_session.has_value());
  EXPECT_NE(bad_session->find("session 4000000"), std::string::npos) << *bad_session;
  EXPECT_EQ(bad_session->find('\n'), std::string::npos);

  trace.events[0] = withdraw;
  trace.events[1].a = 999;
  const auto bad_pop = serve::validate_trace(trace, vns);
  ASSERT_TRUE(bad_pop.has_value());
  EXPECT_NE(bad_pop->find("pop 999"), std::string::npos) << *bad_pop;

  // The engine refuses it too, before any resolver thread exists.
  serve::EngineConfig config;
  config.resolver_threads = 2;
  serve::Engine engine(world->vns(), config);
  EXPECT_THROW((void)engine.run(trace), std::invalid_argument);
}

TEST(Serve, MutatedTracesAreRejectedOrReplaySafely) {
  // Seeded byte flips and truncations of a recorded trace: load_trace plus
  // validate_trace must either reject each mutant or accept one whose every
  // event can be applied.  A sample of the accepted mutants (those no longer
  // than the original schedule) is replayed through the engine to prove it.
  auto world = measure::Workbench::build(measure::WorkbenchConfig::small(7));
  world->vns().set_geo_routing(true);
  serve::GenerateConfig gen;
  gen.seed = 7;
  gen.batches = 4;
  gen.events_per_batch = 4;
  const auto original = serve::generate_trace(world->vns(), gen);
  const std::string jsonl = serve::trace_to_jsonl(original);
  constexpr char kInteresting[] = "0123456789\"{}[],: \n-.abcxyz";

  TestRng rng{2013};
  std::size_t rejected = 0, accepted = 0, replayed = 0;
  for (int i = 0; i < 2000; ++i) {
    std::string mutant = jsonl;
    if (rng.next(4) == 0) {
      mutant.resize(rng.next(mutant.size()));
    } else {
      for (std::uint64_t flips = 1 + rng.next(3); flips > 0; --flips) {
        const bool wild = rng.next(3) == 0;
        mutant[rng.next(mutant.size())] =
            wild ? static_cast<char>(rng.next(256))
                 : kInteresting[rng.next(sizeof(kInteresting) - 1)];
      }
    }
    std::istringstream in{mutant};
    const auto loaded = serve::load_trace(in);
    if (!loaded || serve::validate_trace(*loaded, world->vns()).has_value()) {
      ++rejected;
      continue;
    }
    ++accepted;
    if (accepted % 25 == 0 && loaded->batches <= original.batches &&
        loaded->events != original.events) {
      (void)run_engine_on(world->vns(), *loaded, 1);
      ++replayed;
    }
  }
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(replayed, 0u);
}

TEST(Serve, RecordReplayIsByteIdenticalAcrossThreadCounts) {
  // The determinism contract behind vns_serve --record/--replay: the same
  // trace applied under any resolver-thread count (and replayed from its
  // JSONL encoding) leaves the fabric in a byte-identical state.
  serve::GenerateConfig gen;
  gen.seed = 7;
  gen.batches = 6;
  gen.events_per_batch = 5;

  std::string dumps[3];
  const int thread_counts[] = {1, 4, 1};
  std::string recorded_jsonl;
  for (int run = 0; run < 3; ++run) {
    auto world = measure::Workbench::build(measure::WorkbenchConfig::small(7));
    world->vns().set_geo_routing(true);
    serve::UpdateTrace trace;
    if (run < 2) {
      trace = serve::generate_trace(world->vns(), gen);  // record path
      recorded_jsonl = serve::trace_to_jsonl(trace);
    } else {
      std::istringstream in{recorded_jsonl};  // replay path
      auto loaded = serve::load_trace(in);
      ASSERT_TRUE(loaded.has_value());
      trace = *std::move(loaded);
    }
    const auto report = run_engine_on(world->vns(), trace, thread_counts[run]);
    EXPECT_EQ(report.batches, gen.batches);
    EXPECT_GT(report.events_applied, 0u);
    dumps[run] = serve::dump_fabric_state(world->vns().fabric());
  }
  ASSERT_FALSE(dumps[0].empty());
  EXPECT_EQ(dumps[0], dumps[1]) << "fabric state diverged across thread counts";
  EXPECT_EQ(dumps[0], dumps[2]) << "replayed trace diverged from recorded run";
}

TEST(Serve, ConcurrentResolveDuringPatchServesEveryProbeAndEndsFresh) {
  // Four resolvers hammering the viewpoint FIBs while the churn thread
  // streams twelve batches: every probe must be answered from some phase
  // ladder, every batch's deltas must be published inside that batch, and
  // the published FIBs must agree with the BGP decision afterwards.
  auto world = measure::Workbench::build(measure::WorkbenchConfig::small(7));
  world->vns().set_geo_routing(true);
  serve::GenerateConfig gen;
  gen.seed = 9;
  gen.batches = 12;
  gen.events_per_batch = 6;
  const auto trace = serve::generate_trace(world->vns(), gen);

  std::ostringstream heartbeats;
  const auto report = run_engine_on(world->vns(), trace, 4, &heartbeats);

  EXPECT_EQ(report.batches, 12u);
  EXPECT_GT(report.events_applied, 0u);
  EXPECT_GT(report.probes, 0u);
  // Accounting closes: every probe landed in exactly one ladder.
  EXPECT_EQ(report.steady_ns.total() + report.converging_ns.total() +
                report.stale_ns.total(),
            report.probes);
  EXPECT_EQ(report.stale_ns.total(), report.stale_served);
  EXPECT_EQ(report.converging_ns.total(), 0u) << "no probe refreshes a FIB";

  // The writer publishes inside each batch, so no viewpoint ever lags.
  EXPECT_GT(report.freshness_lag.total(), 0u);
  EXPECT_EQ(report.max_freshness_lag, 0u);
  EXPECT_EQ(report.freshness_lag.quantile(1.0), 0.0);

  // The published FIBs answer what the BGP decision process decides.
  const auto& vns = world->vns();
  const auto prefixes = vns.known_prefix_log();
  TestRng pick{31};
  for (int i = 0; i < 500; ++i) {
    const auto viewpoint = static_cast<core::PopId>(pick.next(vns.pops().size()));
    const auto target = prefixes[pick.next(prefixes.size())].first_host();
    const auto explained = vns.explain_route(viewpoint, target);
    EXPECT_EQ(vns.egress_pop(viewpoint, target).value_or(core::kNoPop),
              explained.routed ? explained.chosen.pop : core::kNoPop)
        << "viewpoint " << viewpoint << " target " << target.to_string();
  }

  // Heartbeats are one JSON object per line, typed and batch-stamped.
  std::istringstream lines{heartbeats.str()};
  std::string line;
  std::size_t heartbeat_count = 0;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"type\":\"slo_heartbeat\""), std::string::npos);
    EXPECT_NE(line.find("\"batch\":"), std::string::npos);
    ++heartbeat_count;
  }
  EXPECT_EQ(heartbeat_count, 6u);  // every 2 of 12 batches

  // The slo JSON block embeds all four ladders plus the patch counters.
  const auto json = report.to_json();
  for (const char* key : {"\"steady\":", "\"converging\":", "\"stale\":",
                          "\"freshness_lag\":", "\"fib_patches\":",
                          "\"fib_full_rebuilds\":", "\"max_freshness_lag_batches\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " missing";
  }
}

TEST(Serve, HeldSnapshotsAnswerUnchangedAcrossPublishes) {
  // Three readers hold FIB snapshots and probe a fixed pool while the main
  // thread fails and restores links and upstreams, publishing a snapshot
  // per mutator.  Each held snapshot must answer identically on two passes;
  // afterwards the published FIBs must match the trie + Loc-RIB reference.
  auto world = measure::Workbench::build(measure::WorkbenchConfig::small(7));
  auto& vns = world->vns();
  vns.set_geo_routing(true);
  const auto prefixes = vns.known_prefix_log();
  TestRng pick{17};
  std::vector<net::Ipv4Address> pool;
  pool.reserve(2048);
  for (std::size_t i = 0; i < 2048; ++i) {
    const auto& prefix = prefixes[pick.next(prefixes.size())];
    pool.emplace_back(prefix.address().value() +
                      static_cast<std::uint32_t>(pick.next(prefix.size())));
  }
  const auto viewpoints = static_cast<core::PopId>(vns.pops().size());

  std::atomic<bool> done{false};
  std::atomic<int> ready{0};
  std::atomic<std::uint64_t> mismatches{0}, reloads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      auto held = vns.fib_snapshot();
      ready.fetch_add(1);
      std::vector<std::optional<core::PopId>> first(pool.size());
      for (std::uint32_t round = 0; !done.load(std::memory_order_acquire); ++round) {
        const auto viewpoint = static_cast<core::PopId>((round + t) % viewpoints);
        for (std::size_t i = 0; i < pool.size(); ++i) {
          first[i] = held->egress_pop(viewpoint, pool[i]);
        }
        std::this_thread::yield();
        for (std::size_t i = 0; i < pool.size(); ++i) {
          if (held->egress_pop(viewpoint, pool[i]) != first[i]) mismatches.fetch_add(1);
        }
        if (vns.fib_snapshot_raw() != held.get()) {
          held = vns.fib_snapshot();
          reloads.fetch_add(1);
        }
      }
    });
  }
  while (ready.load() < 3) std::this_thread::yield();

  std::pair<core::PopId, core::PopId> long_haul{core::kNoPop, core::kNoPop};
  for (const auto& link : vns.links()) {
    if (link.long_haul) {
      long_haul = {link.a, link.b};
      break;
    }
  }
  const core::PopId lon = *vns.find_pop("LON");
  for (int round = 0; round < 20; ++round) {
    EXPECT_TRUE(vns.fail_pop_link(long_haul.first, long_haul.second));
    EXPECT_TRUE(vns.fail_upstream(lon, 0));
    EXPECT_TRUE(vns.restore_pop_link(long_haul.first, long_haul.second));
    EXPECT_TRUE(vns.restore_upstream(lon, 0));
  }
  done.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();

  EXPECT_EQ(mismatches.load(), 0u) << "a held snapshot changed under its reader";
  EXPECT_GT(reloads.load(), 0u) << "no reader ever saw a publish";
  for (core::PopId viewpoint = 0; viewpoint < viewpoints; ++viewpoint) {
    for (const auto address : pool) {
      std::optional<core::PopId> want;
      if (const auto prefix = vns.match_prefix(address)) {
        const bgp::Route* route =
            vns.fabric().router(vns.pop(viewpoint).routers[0]).best_route(*prefix);
        if (route != nullptr && vns.pop_of_router(route->egress) != core::kNoPop) {
          want = vns.pop_of_router(route->egress);
        }
      }
      ASSERT_EQ(vns.egress_pop(viewpoint, address), want)
          << "viewpoint " << viewpoint << " address " << address.to_string();
    }
  }
}

TEST(Serve, OnBatchAppliedFiresOncePerBatchInOrder) {
  // The traffic-engineering hook: called after every churn batch has been
  // applied, reconverged and published, once per batch in batch order.
  auto world = measure::Workbench::build(measure::WorkbenchConfig::small(7));
  world->vns().set_geo_routing(true);
  serve::GenerateConfig gen;
  gen.seed = 7;
  gen.batches = 5;
  gen.events_per_batch = 4;
  const auto trace = serve::generate_trace(world->vns(), gen);

  std::vector<std::uint64_t> seen;
  std::vector<std::uint64_t> generations;
  serve::EngineConfig config;
  config.resolver_threads = 2;
  config.seed = 5;
  config.on_batch_applied = [&](std::uint64_t batch) {
    seen.push_back(batch);
    generations.push_back(world->vns().fabric().rib_generation());
  };
  serve::Engine engine(world->vns(), config);
  const auto report = engine.run(trace);

  ASSERT_EQ(seen.size(), report.batches);
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], i);
    // The fabric had converged past each batch's mutations when the hook ran.
    if (i > 0) EXPECT_GE(generations[i], generations[i - 1]);
  }
}

}  // namespace
}  // namespace vns
