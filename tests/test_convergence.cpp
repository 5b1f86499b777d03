// Output contract of the frontier convergence engine.  A corpus of 52 seeded
// churn schedules (announce/withdraw/link/session/router faults) is replayed
// and every observable — Loc-RIBs, export sinks, rib_generation sequence,
// trace JSONL and message tallies — is folded into one digest per seed and
// checked against pinned values; further goldens pin the queue-depth stamp
// point and the engine statistics.
//
// The FibPatch suite rides the same schedules to prove the RIB-delta
// protocol: the full delta log of every seed is pinned the same way, and
// per-router FlatFibs maintained only through Fabric::rib_deltas_since +
// FlatFib::patch must answer identically to from-scratch compiles after
// every convergence batch.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "bgp/fabric.hpp"
#include "net/flat_fib.hpp"
#include "obs/trace.hpp"

namespace vns {
namespace {

using bgp::Fabric;
using bgp::NeighborId;
using bgp::NeighborKind;
using bgp::RouterId;
using net::Ipv4Prefix;

bgp::Attributes attrs_with_path(std::vector<net::Asn> path) {
  bgp::Attributes attrs;
  attrs.as_path = bgp::AsPath{std::move(path)};
  return attrs;
}

/// Fig. 2 shape plus one extra client so router faults leave survivors:
/// four border routers under one RR, two upstreams and a peer.
struct ConvergenceFixture {
  Fabric fabric{65000};
  obs::TraceSink sink{1u << 18};
  std::vector<RouterId> borders;
  RouterId rr;
  std::vector<NeighborId> uplinks;

  explicit ConvergenceFixture(bool traced = true) {
    for (int i = 0; i < 4; ++i) {
      borders.push_back(fabric.add_router("B" + std::to_string(i)));
    }
    rr = fabric.add_router("RR");
    for (std::size_t i = 0; i < borders.size(); ++i) {
      fabric.add_rr_client_session(rr, borders[i]);
      fabric.add_igp_link(rr, borders[i], 1);
      fabric.router(borders[i]).set_advertise_best_external(true);
    }
    fabric.add_igp_link(borders[0], borders[1], 10);
    fabric.add_igp_link(borders[1], borders[2], 10);
    fabric.add_igp_link(borders[2], borders[3], 10);
    uplinks.push_back(fabric.add_neighbor(borders[0], 174, NeighborKind::kUpstream, "up0"));
    uplinks.push_back(fabric.add_neighbor(borders[1], 3356, NeighborKind::kUpstream, "up1"));
    uplinks.push_back(fabric.add_neighbor(borders[2], 6939, NeighborKind::kPeer, "peer2"));
    uplinks.push_back(fabric.add_neighbor(borders[3], 1299, NeighborKind::kUpstream, "up3"));
    if (traced) fabric.set_trace(&sink);
  }

  [[nodiscard]] bool neighbor_session_up(NeighborId n) const {
    const auto& info = fabric.neighbor(n);
    return fabric.router(info.attached_to)
        .session_is_up(bgp::SessionKind::kEbgp, n);
  }
};

/// Sorted, fully materialized control-plane state: every router's Loc-RIB
/// and every neighbor's export sink rendered through Route::to_string.
std::string dump_state(const Fabric& fabric) {
  std::ostringstream out;
  for (RouterId r = 0; r < fabric.router_count(); ++r) {
    out << "router " << r << "\n";
    std::map<Ipv4Prefix, std::string> rows;
    for (const auto& [prefix, route] : fabric.router(r).loc_rib()) {
      rows[prefix] = route.to_string();
    }
    for (const auto& [prefix, row] : rows) {
      out << "  " << prefix.to_string() << " " << row << "\n";
    }
  }
  for (NeighborId n = 0; n < fabric.neighbor_count(); ++n) {
    out << "neighbor " << n << "\n";
    std::map<Ipv4Prefix, std::string> rows;
    for (const auto& [prefix, route] : fabric.exported_to(n)) {
      rows[prefix] = route.to_string();
    }
    for (const auto& [prefix, row] : rows) {
      out << "  " << prefix.to_string() << " " << row << "\n";
    }
  }
  return out.str();
}

/// The full RIB-delta log, one "router prefix" line per entry.
std::string render_delta_log(const Fabric& fabric) {
  std::ostringstream out;
  for (const auto& delta : fabric.rib_deltas_since(0).deltas) {
    out << delta.router << ' ' << delta.prefix.to_string() << '\n';
  }
  return out.str();
}

/// Everything one churn replay observes.
struct ReplayObservation {
  std::string state;             ///< dump_state at the end of the schedule
  std::string trace_jsonl;       ///< full trace, byte-for-byte
  std::vector<std::uint64_t> generations;  ///< rib_generation after each step
  std::size_t delivered = 0;
  std::size_t dropped = 0;
  std::string delta_log;         ///< render_delta_log at the end of the schedule
};

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// FNV-1a over every field of an observation except the delta log, fields
/// separated by 0x1f.
std::uint64_t observation_digest(const ReplayObservation& obs) {
  std::ostringstream out;
  out << obs.state << '\x1f' << obs.trace_jsonl << '\x1f';
  for (const std::uint64_t generation : obs.generations) out << generation << ' ';
  out << '\x1f' << obs.delivered << ' ' << obs.dropped;
  return fnv1a(out.str());
}

/// A tiny deterministic LCG: the schedule generator must not depend on
/// util::Rng internals so the op sequence is stable even if the RNG evolves.
struct ScheduleRng {
  std::uint64_t state;
  std::uint32_t next(std::uint32_t bound) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<std::uint32_t>((state >> 33) % bound);
  }
};

/// Replays `steps` pseudo-random churn operations.  Op choices consume RNG
/// draws unconditionally (guards are applied afterwards), so two replicas
/// walk the same op sequence as long as their fabric state is identical —
/// exactly the property under test.
ReplayObservation replay_schedule(
    std::uint64_t seed, int steps = 14,
    const std::function<void(Fabric&)>& on_converge = {}) {
  ConvergenceFixture fx;
  ScheduleRng rng{seed * 0x9e3779b97f4a7c15ull + 1};
  ReplayObservation obs;

  const auto prefix_at = [](std::uint32_t i) {
    return Ipv4Prefix{net::Ipv4Address{(0xC600u + i * 7u) << 16}, 24};
  };

  // Seed routes so the first fault ops have something to tear down.
  for (std::uint32_t p = 0; p < 6; ++p) {
    const auto n = fx.uplinks[p % fx.uplinks.size()];
    fx.fabric.announce(n, prefix_at(p),
                       attrs_with_path({fx.fabric.neighbor(n).asn,
                                        static_cast<net::Asn>(4000 + p)}));
  }
  fx.fabric.run_to_convergence();
  if (on_converge) on_converge(fx.fabric);
  obs.generations.push_back(fx.fabric.rib_generation());

  for (int step = 0; step < steps; ++step) {
    const std::uint32_t op = rng.next(8);
    const std::uint32_t p = rng.next(8);
    const std::uint32_t n = rng.next(static_cast<std::uint32_t>(fx.uplinks.size()));
    const std::uint32_t r = rng.next(static_cast<std::uint32_t>(fx.borders.size()));
    const NeighborId neighbor = fx.uplinks[n];
    const RouterId border = fx.borders[r];
    switch (op) {
      case 0:
      case 1:  // announces are twice as likely as any single fault op
        if (fx.neighbor_session_up(neighbor)) {
          fx.fabric.announce(neighbor, prefix_at(p),
                             attrs_with_path({fx.fabric.neighbor(neighbor).asn,
                                              static_cast<net::Asn>(5000 + p)}));
        }
        break;
      case 2:
        if (fx.neighbor_session_up(neighbor)) fx.fabric.withdraw(neighbor, prefix_at(p));
        break;
      case 3:
        fx.fabric.fail_link(fx.rr, border);
        break;
      case 4:
        fx.fabric.restore_link(fx.rr, border);
        break;
      case 5:
        if (!fx.fabric.router_is_down(border)) {
          if (fx.fabric.router(border).session_is_up(bgp::SessionKind::kIbgp, fx.rr)) {
            fx.fabric.fail_session(border, fx.rr);
          } else {
            fx.fabric.restore_session(border, fx.rr);
          }
        }
        break;
      case 6:
        if (fx.neighbor_session_up(neighbor)) {
          fx.fabric.fail_session(neighbor);
        } else if (!fx.fabric.router_is_down(fx.fabric.neighbor(neighbor).attached_to)) {
          fx.fabric.restore_session(neighbor);
        }
        break;
      default:
        if (fx.fabric.router_is_down(border)) {
          fx.fabric.restore_router(border);
        } else {
          fx.fabric.fail_router(border);
        }
        break;
    }
    // Converge only every other step so some schedules build multi-op storms
    // (deeper batches exercise the shard merge harder).
    if (step % 2 == 1 || step == steps - 1) {
      fx.fabric.run_to_convergence();
      if (on_converge) on_converge(fx.fabric);
    }
    obs.generations.push_back(fx.fabric.rib_generation());
  }

  obs.state = dump_state(fx.fabric);
  obs.trace_jsonl = fx.sink.to_jsonl();
  obs.delivered = fx.fabric.messages_delivered();
  obs.dropped = fx.fabric.messages_dropped();
  obs.delta_log = render_delta_log(fx.fabric);
  return obs;
}

// ------------------------------------------- churn fuzz ---------------------

TEST(Convergence, ChurnSchedulesMatchPinnedDigests) {
  // One digest per seed of the whole corpus, pinned when batches were still
  // drained across a thread pool (and identical at 1, 2, 4 and 8 lanes
  // then): the serial drain must reproduce every observable byte.
  constexpr std::array<std::uint64_t, 52> kPinned = {
      0x0a8bfe4f71cb8409ULL, 0x2bf8333e5cdafe44ULL, 0x521f25eb96e1df58ULL,
      0xcbbe9ecc167a28f3ULL, 0xf88154c0ec49eb48ULL, 0x5cb44467f18dddabULL,
      0xa8f561173c34a7b1ULL, 0x5e9ea59dbddff316ULL, 0x2dd85a897d65f961ULL,
      0xaf8d56a19ad2c380ULL, 0x44cff509d3ea235fULL, 0x5df439426beb8a12ULL,
      0x499ba48609bb3c23ULL, 0xec0a545a26dec907ULL, 0x2e2d192d1cfc48ecULL,
      0x4387b4343e8d7644ULL, 0x1a17cbafa6f9efe1ULL, 0x3454bfdc0741ef9fULL,
      0xb79a9c4233d513aeULL, 0x0d56a174c2eef9e6ULL, 0xd9d147ce241427b4ULL,
      0xe8b296cd97f05582ULL, 0xfbea63eb5d432995ULL, 0x4f21ec323236b642ULL,
      0xaaecaf0f13dd9563ULL, 0xa933615aecd7a363ULL, 0x7c8f9f8368dbbbcfULL,
      0x1170194da2e68837ULL, 0x26eef2a0e6715c26ULL, 0xa7b989a4bdbcee32ULL,
      0xe92529c9d8d78ae9ULL, 0x6bff6bb9901b283aULL, 0x953a2e800dc1e3a4ULL,
      0xeb4041b1a98b3b93ULL, 0x120fc642c853adfeULL, 0xad29f486097d9025ULL,
      0x6cea840da5890e9eULL, 0x6b429b6d6f900d6fULL, 0x5e7cb5e61c54d921ULL,
      0x19d2b3db69ff96a6ULL, 0x1f56f32c62adbe5fULL, 0xf0ed3af7c81461c0ULL,
      0xa69eae95198d6940ULL, 0x4704a28c4b767933ULL, 0x34de0ac2dd16eb2dULL,
      0x64a25c1426128639ULL, 0xc3856a1facb6d3c5ULL, 0x3882ccf638b1fbcdULL,
      0x19d9d58d1a214710ULL, 0x71ffb2cd39434422ULL, 0xe6f6d1175b5bbda3ULL,
      0x8bc27cc83851756aULL,
  };
  for (std::uint64_t seed = 0; seed < kPinned.size(); ++seed) {
    const ReplayObservation obs = replay_schedule(seed);
    EXPECT_GT(obs.delivered, 0u) << "seed " << seed << " exercised nothing";
    EXPECT_EQ(observation_digest(obs), kPinned[seed]) << "seed " << seed;
  }
}

// ------------------------------------------- trace stamp goldens ------------

TEST(Convergence, AnnounceQueueDepthCountsItsOwnEmissions) {
  // The stamp-point contract: an announce's queue_depth covers the emissions
  // it just enqueued (it used to be stamped before the enqueue and read 0).
  ConvergenceFixture fx;
  fx.fabric.announce(fx.uplinks[0], Ipv4Prefix::parse("203.0.113.0/24").value(),
                     attrs_with_path({174, 400}));
  const auto events = fx.sink.events();
  ASSERT_FALSE(events.empty());
  const auto announce =
      std::find_if(events.begin(), events.end(), [](const obs::TraceEvent& e) {
        return e.kind == obs::TraceEventKind::kAnnounce;
      });
  ASSERT_NE(announce, events.end());
  // Border 0 advertises to the RR (and best-external handling may add more):
  // at least one emission must be visible in the announce's depth.
  EXPECT_GT(announce->queue_depth, 0u);

  // The depth the announce reported is exactly what convergence then finds.
  fx.fabric.run_to_convergence();
  const auto all = fx.sink.events();
  const auto begin =
      std::find_if(all.begin(), all.end(), [](const obs::TraceEvent& e) {
        return e.kind == obs::TraceEventKind::kConvergeBegin;
      });
  ASSERT_NE(begin, all.end());
  EXPECT_EQ(begin->a, announce->queue_depth);
  EXPECT_EQ(begin->queue_depth, announce->queue_depth);
}

TEST(Convergence, FaultEventsStampDepthAfterTheirStorm) {
  ConvergenceFixture fx;
  fx.fabric.announce(fx.uplinks[0], Ipv4Prefix::parse("203.0.113.0/24").value(),
                     attrs_with_path({174, 400}));
  fx.fabric.run_to_convergence();
  fx.sink.clear();

  ASSERT_TRUE(fx.fabric.fail_session(fx.uplinks[0]));
  const auto events = fx.sink.events();
  const auto down =
      std::find_if(events.begin(), events.end(), [](const obs::TraceEvent& e) {
        return e.kind == obs::TraceEventKind::kEbgpSessionDown;
      });
  ASSERT_NE(down, events.end());
  // The border router flushed the neighbor's route and queued the withdraw
  // storm before the event was cut: the depth covers it.
  EXPECT_GT(down->queue_depth, 0u);
  fx.fabric.run_to_convergence();
}

TEST(Convergence, LastBatchMessageReportsEmptyQueue) {
  ConvergenceFixture fx;
  fx.fabric.announce(fx.uplinks[0], Ipv4Prefix::parse("203.0.113.0/24").value(),
                     attrs_with_path({174, 400}));
  fx.fabric.announce(fx.uplinks[1], Ipv4Prefix::parse("198.51.100.0/24").value(),
                     attrs_with_path({3356, 500}));
  fx.fabric.run_to_convergence();
  const auto events = fx.sink.events();
  const auto end =
      std::find_if(events.begin(), events.end(), [](const obs::TraceEvent& e) {
        return e.kind == obs::TraceEventKind::kConvergeEnd;
      });
  ASSERT_NE(end, events.end());
  ASSERT_NE(end, events.begin());
  // The event replayed immediately before quiescence saw nothing pending.
  EXPECT_EQ(std::prev(end)->queue_depth, 0u);
}

TEST(Convergence, BatchMessagesShareOneLogicalTick) {
  ConvergenceFixture fx;
  for (std::uint32_t p = 0; p < 4; ++p) {
    fx.fabric.announce(fx.uplinks[p], Ipv4Prefix{net::Ipv4Address{(0xC000u + p) << 16}, 24},
                       attrs_with_path({fx.fabric.neighbor(fx.uplinks[p]).asn,
                                        static_cast<net::Asn>(900 + p)}));
  }
  fx.fabric.run_to_convergence();
  // Collect the logical times of delivery events: within one batch every
  // message shares a tick, and ticks never decrease in replay order.
  std::uint64_t last = 0;
  std::size_t delivery_ticks = 0;
  for (const auto& event : fx.sink.events()) {
    if (event.kind != obs::TraceEventKind::kUpdateDelivered &&
        event.kind != obs::TraceEventKind::kExportUpdate) {
      continue;
    }
    EXPECT_GE(event.when, last) << "logical clock went backwards";
    if (event.when != last) ++delivery_ticks;
    last = event.when;
  }
  const auto& stats = fx.fabric.convergence_stats();
  EXPECT_LE(delivery_ticks, stats.batches)
      << "deliveries used more distinct ticks than batches ran";
}

// ------------------------------------------- budget + stats -----------------

TEST(Convergence, BudgetDiagnosticsSurviveSharding) {
  ConvergenceFixture fx{/*traced=*/false};
  for (int i = 0; i < 8; ++i) {
    const Ipv4Prefix prefix{net::Ipv4Address{static_cast<std::uint32_t>((i + 1) << 16)}, 24};
    fx.fabric.announce(fx.uplinks[0], prefix,
                       attrs_with_path({174, static_cast<net::Asn>(900 + i)}));
  }
  try {
    fx.fabric.run_to_convergence(1);
    FAIL() << "expected budget exhaustion";
  } catch (const std::runtime_error& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("queue depth"), std::string::npos) << message;
    EXPECT_NE(message.find("delivered"), std::string::npos) << message;
    EXPECT_NE(message.find("hottest queued prefixes"), std::string::npos) << message;
  }
  // Batch-atomic abort: the frontier survives, so a real budget converges.
  EXPECT_FALSE(fx.fabric.converged());
  EXPECT_GT(fx.fabric.run_to_convergence(), 0u);
  EXPECT_TRUE(fx.fabric.converged());
}

TEST(Convergence, EngineStatsAccountShardsAndMessages) {
  const auto global_before = bgp::ConvergenceMetrics::global().snapshot();
  ConvergenceFixture fx{/*traced=*/false};
  for (std::uint32_t p = 0; p < 12; ++p) {
    fx.fabric.announce(fx.uplinks[p % fx.uplinks.size()],
                       Ipv4Prefix{net::Ipv4Address{(0xC800u + p * 3u) << 16}, 24},
                       attrs_with_path({fx.fabric.neighbor(fx.uplinks[p % 4]).asn,
                                        static_cast<net::Asn>(700 + p)}));
  }
  const std::size_t processed = fx.fabric.run_to_convergence();
  ASSERT_GT(processed, 0u);

  const auto& stats = fx.fabric.convergence_stats();
  EXPECT_EQ(stats.runs, 1u);
  EXPECT_EQ(stats.messages, processed);
  EXPECT_GE(stats.batches, 1u);
  EXPECT_EQ(stats.shard_limit, 64u);
  EXPECT_GE(stats.max_batch_messages, 1u);
  EXPECT_LE(stats.max_batch_messages, stats.messages);
  EXPECT_GE(stats.max_shards_occupied, 1u);
  EXPECT_LE(stats.max_shards_occupied, stats.shard_limit);
  EXPECT_GE(stats.occupied_shard_sum, stats.batches);  // every batch has work
  EXPECT_GT(stats.mean_shard_occupancy(), 0.0);
  EXPECT_LE(stats.mean_shard_occupancy(), 64.0);
  EXPECT_GE(stats.messages_per_sec(), 0.0);

  // The process-global registry absorbed this fabric's run.
  const auto global_after = bgp::ConvergenceMetrics::global().snapshot();
  EXPECT_GE(global_after.runs, global_before.runs + 1);
  EXPECT_GE(global_after.messages, global_before.messages + processed);
  EXPECT_EQ(global_after.shard_limit, 64u);
}

// ------------------------------------------- RIB-delta protocol ------------

/// The prefix universe the replay schedules can touch: the seed announces
/// plus every churn op draw (prefix_at(0..7) in replay_schedule).
std::vector<Ipv4Prefix> schedule_universe() {
  std::vector<Ipv4Prefix> universe;
  for (std::uint32_t i = 0; i < 8; ++i) {
    universe.push_back(Ipv4Prefix{net::Ipv4Address{(0xC600u + i * 7u) << 16}, 24});
  }
  return universe;
}

/// One router's data plane maintained the incremental way: a leaf per
/// universe prefix, payload index into `values` ("" = unrouted), refreshed
/// only through the fabric's RIB-delta log — never recompiled.
struct FibMirror {
  net::FlatFib fib;
  std::vector<std::string> values;
};

std::string render_route(const Fabric& fabric, RouterId router, const Ipv4Prefix& prefix) {
  const bgp::Route* route = fabric.router(router).best_route(prefix);
  return route != nullptr ? route->to_string() : std::string{};
}

FibMirror compile_mirror(const Fabric& fabric, RouterId router,
                         std::span<const Ipv4Prefix> universe) {
  FibMirror mirror;
  std::vector<net::FlatFib::Leaf> leaves;
  leaves.reserve(universe.size());
  for (const auto& prefix : universe) {
    leaves.push_back({prefix, static_cast<std::uint32_t>(mirror.values.size())});
    mirror.values.push_back(render_route(fabric, router, prefix));
  }
  mirror.fib = net::FlatFib::compile(std::move(leaves));
  return mirror;
}

void patch_mirror(FibMirror& mirror, const Fabric& fabric, RouterId router,
                  std::span<const bgp::RibDelta> deltas) {
  std::vector<Ipv4Prefix> dirty;
  for (const auto& delta : deltas) {
    if (delta.router == router) dirty.push_back(delta.prefix);
  }
  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
  std::vector<net::FlatFib::Leaf> patches;
  patches.reserve(dirty.size());
  for (const auto& prefix : dirty) {
    const std::string rendered = render_route(fabric, router, prefix);
    if (const net::FlatFib::Leaf* leaf = mirror.fib.lookup_exact(prefix)) {
      mirror.values[leaf->value] = rendered;
      patches.push_back({prefix, leaf->value});
    } else {
      patches.push_back({prefix, static_cast<std::uint32_t>(mirror.values.size())});
      mirror.values.push_back(rendered);
    }
  }
  mirror.fib.patch(patches);
}

TEST(FibPatch, DirtySetMatchesPinnedDigests) {
  // The dirty-set golden: the full serialized delta log of every schedule
  // in the corpus, pinned from the thread-pool drain (identical at 1, 2, 4
  // and 8 lanes then).  Deltas are appended in shard order inside each
  // batch, exactly like the trace JSONL.
  constexpr std::array<std::uint64_t, 52> kPinned = {
      0xa7e5fd7a7bf0bf55ULL, 0x0ac044111f6b3669ULL, 0x24c782a16a1c5042ULL,
      0xa73b2e2bb7dea1d4ULL, 0x2e861da13bc48659ULL, 0x93bdc4c6dc99b709ULL,
      0xe4c4bc4ac9aa49b3ULL, 0x2526560659d05763ULL, 0x6be08542b2f82b61ULL,
      0x279cf62cb032c0f6ULL, 0xc576fed32cbb5342ULL, 0xc4d048134a946368ULL,
      0x43dd40eed95fcb5dULL, 0x860df9ef00c32081ULL, 0x5f684671a856146fULL,
      0x618da3fbc248122bULL, 0xcaf0892ad4cb0b25ULL, 0x9168c6f8b95bf75bULL,
      0x755dadfcdc32efbcULL, 0x6882db9fa69a4459ULL, 0xe1e34e650083e402ULL,
      0x57e8dbdb31f8b311ULL, 0x89a9c6b34b6b3053ULL, 0x3af0a5240e8cb5d0ULL,
      0x9bfe82f8ff7ebbe9ULL, 0xaf986bc77316255eULL, 0x06f7dfa0b1c7af20ULL,
      0x8303a03397772946ULL, 0xff633aa28ad0de3eULL, 0xe7d0cb6956af1e72ULL,
      0xe2a6e0f47b04c181ULL, 0xc08872da7584e761ULL, 0xb01db2aeb0ea3fa6ULL,
      0xdecdf78cbbb0a9adULL, 0xb13c2d90519acdbcULL, 0x1fd61a637d89ef71ULL,
      0x5216b9b87e7eabf1ULL, 0x782b44185f624cd9ULL, 0x4e2a15ad5d209a84ULL,
      0xf8930b4c3f417299ULL, 0xbf229efa724a6fc0ULL, 0x6e212f72f40d3de3ULL,
      0x6ee36c3f5ee96f41ULL, 0x4ab0440551d24172ULL, 0xf2cb233c5f20e751ULL,
      0x2fc45cfd046bcd71ULL, 0x99cb7001e6901a88ULL, 0x16b15b8194745390ULL,
      0x44a5c407f4319925ULL, 0x0bd1f47e20f455f4ULL, 0x19d9ba46300dc7ebULL,
      0x1eb0543dbba534adULL,
  };
  for (std::uint64_t seed = 0; seed < kPinned.size(); ++seed) {
    const ReplayObservation obs = replay_schedule(seed);
    EXPECT_FALSE(obs.delta_log.empty()) << "seed " << seed << " produced no deltas";
    EXPECT_EQ(fnv1a(obs.delta_log), kPinned[seed]) << "seed " << seed;
  }
}

TEST(FibPatch, ChurnPatchedFibsMatchScratchCompiles) {
  // The equivalence fuzz: over the full 52-seed churn corpus, a FIB
  // maintained purely through rib_deltas_since + patch() answers
  // byte-identically to a from-scratch compile after every batch.
  const auto universe = schedule_universe();
  constexpr std::uint64_t kSeeds = 52;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    std::vector<FibMirror> mirrors;
    std::uint64_t cursor = 0;
    std::size_t batches = 0;
    (void)replay_schedule(seed, 14, [&](Fabric& fabric) {
      const auto log = fabric.rib_deltas_since(cursor);
      ASSERT_TRUE(log.complete) << "schedules never overflow the delta log";
      if (mirrors.empty()) {
        for (RouterId r = 0; r < fabric.router_count(); ++r) {
          mirrors.push_back(compile_mirror(fabric, r, universe));
        }
      } else {
        for (RouterId r = 0; r < fabric.router_count(); ++r) {
          patch_mirror(mirrors[r], fabric, r, log.deltas);
        }
      }
      cursor = log.next_cursor;
      ++batches;
      for (RouterId r = 0; r < fabric.router_count(); ++r) {
        const FibMirror scratch = compile_mirror(fabric, r, universe);
        for (const auto& prefix : universe) {
          const auto* patched = mirrors[r].fib.lookup(prefix.first_host());
          const auto* expected = scratch.fib.lookup(prefix.first_host());
          ASSERT_NE(patched, nullptr);
          ASSERT_NE(expected, nullptr);
          ASSERT_EQ(mirrors[r].values[patched->value], scratch.values[expected->value])
              << "patched FIB diverged from scratch compile: seed " << seed << " router "
              << r << " prefix " << prefix.to_string();
        }
      }
    });
    EXPECT_GT(batches, 1u) << "seed " << seed << " exercised nothing";
  }
}

TEST(FibPatch, DeltaLogRecordsStructuralChangesExactlyOnce) {
  // Semantic golden for the producer side: only structural Loc-RIB changes
  // (install / replace / erase) emit deltas; idempotent re-announcements are
  // silent, and the cursor contract flags lagging or bogus consumers.
  Fabric fabric{65000};
  const auto router = fabric.add_router("A");
  const auto up = fabric.add_neighbor(router, 174, NeighborKind::kUpstream, "up");
  const auto prefix = Ipv4Prefix::parse("203.0.113.0/24").value();

  const auto empty = fabric.rib_deltas_since(0);
  EXPECT_TRUE(empty.complete);
  EXPECT_EQ(empty.deltas.size(), 0u);
  EXPECT_EQ(empty.next_cursor, 0u);

  fabric.announce(up, prefix, attrs_with_path({174, 400}));
  fabric.run_to_convergence();
  const auto installed = fabric.rib_deltas_since(0);
  ASSERT_EQ(installed.deltas.size(), 1u);
  EXPECT_EQ(installed.deltas[0], (bgp::RibDelta{router, prefix}));

  // Re-announcing the identical route changes nothing: no delta.
  fabric.announce(up, prefix, attrs_with_path({174, 400}));
  fabric.run_to_convergence();
  const auto idempotent = fabric.rib_deltas_since(installed.next_cursor);
  EXPECT_TRUE(idempotent.complete);
  EXPECT_EQ(idempotent.deltas.size(), 0u);

  // A replacement (different path) and a withdrawal are one delta each.
  fabric.announce(up, prefix, attrs_with_path({174, 401}));
  fabric.run_to_convergence();
  const auto replaced = fabric.rib_deltas_since(idempotent.next_cursor);
  ASSERT_EQ(replaced.deltas.size(), 1u);
  EXPECT_EQ(replaced.deltas[0], (bgp::RibDelta{router, prefix}));
  fabric.withdraw(up, prefix);
  fabric.run_to_convergence();
  const auto withdrawn = fabric.rib_deltas_since(replaced.next_cursor);
  ASSERT_EQ(withdrawn.deltas.size(), 1u);
  EXPECT_EQ(withdrawn.deltas[0], (bgp::RibDelta{router, prefix}));

  // A cursor past the end of the log is not a valid consumer position.
  EXPECT_FALSE(fabric.rib_deltas_since(withdrawn.next_cursor + 1).complete);
}

}  // namespace
}  // namespace vns
