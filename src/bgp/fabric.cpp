#include "bgp/fabric.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <optional>
#include <sstream>
#include <stdexcept>

namespace vns::bgp {

namespace {

bool has_ibgp_session(const Router& r, RouterId peer) {
  for (const auto& session : r.ibgp_sessions()) {
    if (session.peer == peer) return true;
  }
  return false;
}

/// Fixed shard count of a frontier batch.  The shard walk order defines the
/// order in which a batch drains, so changing it would change traces, the
/// delta log and every state golden.
constexpr std::size_t kConvergenceShards = 64;

/// splitmix64 finisher over (address, length).  Deliberately not std::hash:
/// the shard walk is part of the deterministic drain order, so the partition
/// must be identical across platforms and standard libraries.
std::size_t shard_of(const net::Ipv4Prefix& prefix) noexcept {
  std::uint64_t x = (std::uint64_t{prefix.address().value()} << 8) | prefix.length();
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  x ^= x >> 31;
  return static_cast<std::size_t>(x % kConvergenceShards);
}

}  // namespace

ConvergenceMetrics& ConvergenceMetrics::global() noexcept {
  static ConvergenceMetrics instance;
  return instance;
}

void ConvergenceMetrics::record(const ConvergenceStats& run) noexcept {
  runs_.fetch_add(1, std::memory_order_relaxed);
  messages_.fetch_add(run.messages, std::memory_order_relaxed);
  batches_.fetch_add(run.batches, std::memory_order_relaxed);
  occupied_shard_sum_.fetch_add(run.occupied_shard_sum, std::memory_order_relaxed);
  nanos_.fetch_add(static_cast<std::uint64_t>(run.seconds * 1e9),
                   std::memory_order_relaxed);
  const auto raise = [](std::atomic<std::uint64_t>& slot, std::uint64_t value) {
    std::uint64_t seen = slot.load(std::memory_order_relaxed);
    while (seen < value &&
           !slot.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
    }
  };
  raise(max_batch_messages_, run.max_batch_messages);
  raise(max_shards_occupied_, run.max_shards_occupied);
}

ConvergenceStats ConvergenceMetrics::snapshot() const noexcept {
  ConvergenceStats snap;
  snap.runs = runs_.load(std::memory_order_relaxed);
  snap.messages = messages_.load(std::memory_order_relaxed);
  snap.batches = batches_.load(std::memory_order_relaxed);
  snap.shard_limit = kConvergenceShards;
  snap.max_batch_messages = max_batch_messages_.load(std::memory_order_relaxed);
  snap.max_shards_occupied = max_shards_occupied_.load(std::memory_order_relaxed);
  snap.occupied_shard_sum = occupied_shard_sum_.load(std::memory_order_relaxed);
  snap.seconds = static_cast<double>(nanos_.load(std::memory_order_relaxed)) * 1e-9;
  return snap;
}

void Fabric::trace_event(obs::TraceEventKind kind, std::uint32_t a, std::uint32_t b,
                         const net::Ipv4Prefix& prefix) {
  if (trace_ == nullptr) return;
  obs::TraceEvent event;
  event.when = logical_time_;
  event.kind = kind;
  event.a = a;
  event.b = b;
  event.prefix = prefix;
  event.queue_depth = static_cast<std::uint32_t>(batch_pending_ + queue_.size());
  trace_->record(event);
}

std::optional<Route> Fabric::capture_best(const Router& target,
                                          const net::Ipv4Prefix& prefix) const {
  // Copy (not point at) the pre-delivery best: the handler mutates loc_rib_.
  std::optional<Route> before;
  if (const Route* r = target.best_route(prefix); r != nullptr) before = *r;
  return before;
}

void Fabric::trace_rib_change(const Router& target, const net::Ipv4Prefix& prefix,
                              const std::optional<Route>& before) {
  const Route* after = target.best_route(prefix);
  const bool changed = before.has_value() != (after != nullptr) ||
                       (before.has_value() && after != nullptr && !(*before == *after));
  if (changed) {
    trace_event(obs::TraceEventKind::kLocRibChanged, target.id(),
                after != nullptr ? after->egress : obs::kNoTraceId, prefix);
  }
}

RouterId Fabric::add_router(std::string name) {
  const auto id = static_cast<RouterId>(routers_.size());
  routers_.push_back(std::make_unique<Router>(id, std::move(name), local_asn_));
  igp_.ensure_size(routers_.size());
  routers_.back()->set_igp(&igp_);
  router_down_.push_back(false);
  return id;
}

void Fabric::add_ibgp_session(RouterId a, RouterId b) {
  router(a).add_ibgp_session(b, /*peer_is_client=*/false);
  router(b).add_ibgp_session(a, /*peer_is_client=*/false);
}

void Fabric::add_rr_client_session(RouterId rr, RouterId client) {
  router(rr).set_route_reflector(true);
  router(rr).add_ibgp_session(client, /*peer_is_client=*/true);
  router(client).add_ibgp_session(rr, /*peer_is_client=*/false);
}

NeighborId Fabric::add_neighbor(RouterId attached_to, net::Asn asn, NeighborKind kind,
                                std::string name) {
  NeighborInfo info;
  info.id = static_cast<NeighborId>(neighbors_.size());
  info.asn = asn;
  info.kind = kind;
  info.attached_to = attached_to;
  info.name = std::move(name);
  neighbors_.push_back(info);
  neighbor_exports_.emplace_back();
  router(attached_to).add_ebgp_session(info);
  return info.id;
}

void Fabric::announce(NeighborId from, const net::Ipv4Prefix& prefix, Attributes attrs) {
  announce(from, prefix, AttrTable::global().intern(std::move(attrs)));
}

void Fabric::announce(NeighborId from, const net::Ipv4Prefix& prefix, const AttrRef& attrs) {
  const NeighborInfo& info = neighbor(from);
  Router& target = router(info.attached_to);
  if (!target.session_is_up(SessionKind::kEbgp, from)) {
    throw std::logic_error("announce on downed eBGP session " + info.name);
  }
  ++logical_time_;
  ++rib_generation_;
  Route route;
  route.prefix = prefix;
  route.set_attrs(attrs);
  const std::optional<Route> before =
      trace_ != nullptr ? capture_best(target, prefix) : std::nullopt;
  enqueue(target.handle_ebgp_update(info, /*withdraw=*/false, std::move(route), &delta_log_));
  // Stamped after the enqueue so queue_depth covers the emissions this
  // announce triggered, matching what delivery events report.
  trace_event(obs::TraceEventKind::kAnnounce, from, info.attached_to, prefix);
  if (trace_ != nullptr) trace_rib_change(target, prefix, before);
}

void Fabric::withdraw(NeighborId from, const net::Ipv4Prefix& prefix) {
  const NeighborInfo& info = neighbor(from);
  Router& target = router(info.attached_to);
  if (!target.session_is_up(SessionKind::kEbgp, from)) {
    throw std::logic_error("withdraw on downed eBGP session " + info.name);
  }
  ++logical_time_;
  ++rib_generation_;
  Route route;
  route.prefix = prefix;
  const std::optional<Route> before =
      trace_ != nullptr ? capture_best(target, prefix) : std::nullopt;
  enqueue(target.handle_ebgp_update(info, /*withdraw=*/true, std::move(route), &delta_log_));
  trace_event(obs::TraceEventKind::kWithdrawIn, from, info.attached_to, prefix);
  if (trace_ != nullptr) trace_rib_change(target, prefix, before);
}

void Fabric::originate(RouterId at, const net::Ipv4Prefix& prefix, Attributes attrs) {
  ++logical_time_;
  ++rib_generation_;
  Router& target = router(at);
  const std::optional<Route> before =
      trace_ != nullptr ? capture_best(target, prefix) : std::nullopt;
  enqueue(target.originate(prefix, std::move(attrs), &delta_log_));
  // Locally originated: no external neighbor, so the `a` slot is empty.
  trace_event(obs::TraceEventKind::kAnnounce, obs::kNoTraceId, at, prefix);
  if (trace_ != nullptr) trace_rib_change(target, prefix, before);
}

void Fabric::refresh_policies() {
  ++rib_generation_;
  for (auto& r : routers_) enqueue(r->refresh_all(&delta_log_));
}

void Fabric::notify_igp_change() {
  for (auto& r : routers_) {
    if (!router_down_.at(r->id())) enqueue(r->handle_igp_change(&delta_log_));
  }
}

bool Fabric::fail_link(RouterId a, RouterId b) {
  if (!igp_.remove_link(a, b)) return false;
  ++logical_time_;
  ++rib_generation_;
  notify_igp_change();
  trace_event(obs::TraceEventKind::kLinkDown, a, b);
  return true;
}

bool Fabric::restore_link(RouterId a, RouterId b) {
  if (!igp_.restore_link(a, b)) return false;
  ++logical_time_;
  ++rib_generation_;
  notify_igp_change();
  trace_event(obs::TraceEventKind::kLinkUp, a, b);
  return true;
}

bool Fabric::fail_session(RouterId a, RouterId b) {
  Router& ra = router(a);
  Router& rb = router(b);
  if (!ra.session_is_up(SessionKind::kIbgp, b)) return false;
  ++logical_time_;
  ++rib_generation_;
  // Both sides flush synchronously; whatever was in flight between them is
  // dropped at delivery time because the receiving side is already down.
  enqueue(ra.handle_session_down({SessionKind::kIbgp, b}, &delta_log_));
  enqueue(rb.handle_session_down({SessionKind::kIbgp, a}, &delta_log_));
  trace_event(obs::TraceEventKind::kIbgpSessionDown, a, b);
  return true;
}

bool Fabric::restore_session(RouterId a, RouterId b) {
  Router& ra = router(a);
  Router& rb = router(b);
  if (!has_ibgp_session(ra, b) || ra.session_is_up(SessionKind::kIbgp, b)) return false;
  ++logical_time_;
  ++rib_generation_;
  enqueue(ra.handle_session_up({SessionKind::kIbgp, b}));
  enqueue(rb.handle_session_up({SessionKind::kIbgp, a}));
  trace_event(obs::TraceEventKind::kIbgpSessionUp, a, b);
  return true;
}

bool Fabric::fail_session(NeighborId neighbor_id) {
  const NeighborInfo& info = neighbor(neighbor_id);
  Router& r = router(info.attached_to);
  if (!r.session_is_up(SessionKind::kEbgp, neighbor_id)) return false;
  ++logical_time_;
  ++rib_generation_;
  enqueue(r.handle_session_down({SessionKind::kEbgp, neighbor_id}, &delta_log_));
  trace_event(obs::TraceEventKind::kEbgpSessionDown, info.attached_to, neighbor_id);
  // The neighbor's view of us dies with the TCP session.
  neighbor_exports_.at(neighbor_id).clear();
  return true;
}

bool Fabric::restore_session(NeighborId neighbor_id) {
  const NeighborInfo& info = neighbor(neighbor_id);
  Router& r = router(info.attached_to);
  if (r.session_is_up(SessionKind::kEbgp, neighbor_id)) return false;
  ++logical_time_;
  ++rib_generation_;
  enqueue(r.handle_session_up({SessionKind::kEbgp, neighbor_id}));
  trace_event(obs::TraceEventKind::kEbgpSessionUp, info.attached_to, neighbor_id);
  return true;
}

void Fabric::fail_router(RouterId id) {
  if (router_down_.at(id)) return;
  ++logical_time_;
  ++rib_generation_;
  trace_event(obs::TraceEventKind::kRouterDown, id, obs::kNoTraceId);
  DownedRouter record;
  for (const auto& session : router(id).ibgp_sessions()) {
    if (session.up) record.ibgp_peers.push_back(session.peer);
  }
  for (const auto& session : router(id).ebgp_sessions()) {
    if (session.up) record.ebgp_neighbors.push_back(session.info.id);
  }
  router_down_.at(id) = true;
  for (RouterId peer : record.ibgp_peers) fail_session(id, peer);
  for (NeighborId n : record.ebgp_neighbors) fail_session(n);
  bool igp_changed = false;
  for (RouterId peer : igp_.up_neighbors(id)) {
    if (igp_.remove_link(id, peer)) {
      record.links.emplace_back(id, peer);
      igp_changed = true;
    }
  }
  if (igp_changed) notify_igp_change();
  downed_routers_[id] = std::move(record);
}

void Fabric::restore_router(RouterId id) {
  const auto it = downed_routers_.find(id);
  if (it == downed_routers_.end()) return;
  ++logical_time_;
  ++rib_generation_;
  trace_event(obs::TraceEventKind::kRouterUp, id, obs::kNoTraceId);
  DownedRouter record = std::move(it->second);
  downed_routers_.erase(it);
  router_down_.at(id) = false;
  bool igp_changed = false;
  for (const auto& [a, b] : record.links) igp_changed |= igp_.restore_link(a, b);
  if (igp_changed) notify_igp_change();
  for (RouterId peer : record.ibgp_peers) restore_session(id, peer);
  for (NeighborId n : record.ebgp_neighbors) restore_session(n);
}

void Fabric::enqueue(std::vector<Emission> emissions) {
  for (auto& emission : emissions) queue_.push_back(std::move(emission));
  // Direct mutation ops hand &delta_log_ straight to handlers and always
  // enqueue right after, so this is the one trim point they all share.
  if (delta_log_.size() > kDeltaLogCap) {
    delta_base_ += delta_log_.size();
    delta_log_.clear();
  }
}

Fabric::RibDeltas Fabric::rib_deltas_since(std::uint64_t cursor) const noexcept {
  RibDeltas result;
  result.next_cursor = delta_base_ + delta_log_.size();
  if (cursor < delta_base_ || cursor > result.next_cursor) {
    // Trimmed past the consumer (or a cursor from a different fabric): the
    // consumer must fall back to a full rebuild.
    result.complete = false;
    return result;
  }
  const std::size_t offset = static_cast<std::size_t>(cursor - delta_base_);
  result.deltas = std::span<const RibDelta>{delta_log_.data() + offset,
                                            delta_log_.size() - offset};
  return result;
}

std::string Fabric::convergence_diagnostics(std::size_t pending) const {
  std::unordered_map<net::Ipv4Prefix, std::size_t> per_prefix;
  for (const auto& emission : queue_) ++per_prefix[emission.route.prefix];
  std::vector<std::pair<net::Ipv4Prefix, std::size_t>> hottest(per_prefix.begin(),
                                                               per_prefix.end());
  std::sort(hottest.begin(), hottest.end(), [](const auto& x, const auto& y) {
    return x.second != y.second ? x.second > y.second : x.first < y.first;
  });
  std::ostringstream msg;
  msg << "BGP fabric failed to converge within message budget: " << pending
      << " messages this run, " << delivered_ << " delivered in total, queue depth "
      << queue_.size() << " across " << routers_.size() << " routers";
  if (!hottest.empty()) {
    msg << "; hottest queued prefixes:";
    for (std::size_t i = 0; i < hottest.size() && i < 3; ++i) {
      msg << ' ' << hottest[i].first.to_string() << " x" << hottest[i].second;
    }
  }
  return msg.str();
}

void Fabric::deliver(Emission& emission) {
  const net::Ipv4Prefix prefix = emission.route.prefix;
  if (emission.to_neighbor != kNoNeighbor) {
    const NeighborInfo& info = neighbor(emission.to_neighbor);
    if (!router(info.attached_to).session_is_up(SessionKind::kEbgp, emission.to_neighbor)) {
      ++dropped_;  // session went down with the update in flight
      trace_event(obs::TraceEventKind::kMessageDropped, emission.from, emission.to_neighbor,
                  prefix);
      return;
    }
    ++delivered_;
    // External neighbors are passive sinks: record the export.
    auto& sink = neighbor_exports_.at(emission.to_neighbor);
    if (emission.withdraw) {
      sink.erase(prefix);
    } else {
      sink[prefix] = std::move(emission.route);
    }
    trace_event(emission.withdraw ? obs::TraceEventKind::kExportWithdraw
                                  : obs::TraceEventKind::kExportUpdate,
                emission.from, emission.to_neighbor, prefix);
    return;
  }
  Router& target = router(emission.to_router);
  if (!target.session_is_up(SessionKind::kIbgp, emission.from)) {
    ++dropped_;  // receiving side tore the session down first
    trace_event(obs::TraceEventKind::kMessageDropped, emission.from, emission.to_router, prefix);
    return;
  }
  ++delivered_;
  const std::optional<Route> before =
      trace_ != nullptr ? capture_best(target, prefix) : std::nullopt;
  for (auto& emitted : target.handle_ibgp_update(emission.from, emission.withdraw,
                                                 std::move(emission.route), &delta_log_)) {
    queue_.push_back(std::move(emitted));
  }
  trace_event(emission.withdraw ? obs::TraceEventKind::kWithdrawDelivered
                                : obs::TraceEventKind::kUpdateDelivered,
              emission.from, emission.to_router, prefix);
  if (trace_ != nullptr) trace_rib_change(target, prefix, before);
}

std::size_t Fabric::run_to_convergence(std::size_t max_messages) {
  const bool had_work = !queue_.empty();
  if (had_work) {
    trace_event(obs::TraceEventKind::kConvergeBegin,
                static_cast<std::uint32_t>(queue_.size()), obs::kNoTraceId);
  }
  const auto start = std::chrono::steady_clock::now();
  // Fill every source's SPF cache up front.  The topology is static for the
  // whole run (faults happen between runs) and the cache stays full after
  // it, so metric() and shortest_path() calls from campaign workers and
  // explain_route remain pure reads of a converged world.
  if (had_work) igp_.warm_spf();
  std::size_t processed = 0;
  ConvergenceStats run;
  run.shard_limit = kConvergenceShards;
  std::vector<Emission> batch;

  while (!queue_.empty()) {
    const std::size_t batch_size = queue_.size();
    // Batch-atomic budget check: a batch runs in full or the run aborts with
    // the frontier intact.
    if (processed + batch_size > max_messages) {
      throw std::runtime_error(convergence_diagnostics(processed + batch_size));
    }
    ++run.batches;
    run.max_batch_messages = std::max(run.max_batch_messages,
                                      static_cast<std::uint64_t>(batch_size));
    // One logical tick per batch, shared by every message in it.
    ++logical_time_;

    // Stable counting sort of the frontier by shard: shard-then-sequence is
    // the drain order every golden pins.
    std::array<std::size_t, kConvergenceShards + 1> cursor{};
    for (const auto& emission : queue_) ++cursor[shard_of(emission.route.prefix) + 1];
    std::uint64_t occupied = 0;
    for (std::size_t s = 1; s <= kConvergenceShards; ++s) {
      occupied += cursor[s] != 0 ? 1 : 0;
      cursor[s] += cursor[s - 1];
    }
    run.occupied_shard_sum += occupied;
    run.max_shards_occupied = std::max(run.max_shards_occupied, occupied);
    batch.resize(batch_size);
    for (auto& emission : queue_) {
      batch[cursor[shard_of(emission.route.prefix)]++] = std::move(emission);
    }
    queue_.clear();

    // Deliveries append to queue_, which is now the next frontier.
    batch_pending_ = batch_size;
    for (auto& emission : batch) {
      --batch_pending_;
      deliver(emission);
    }
    batch.clear();
    processed += batch_size;
    if (delta_log_.size() > kDeltaLogCap) {
      delta_base_ += delta_log_.size();
      delta_log_.clear();
    }
  }

  if (had_work) {
    trace_event(obs::TraceEventKind::kConvergeEnd,
                static_cast<std::uint32_t>(processed), obs::kNoTraceId);
  }
  // Deliveries mutate Loc-RIBs too: a FIB compiled from a mid-convergence
  // snapshot must not be mistaken for the converged state, so the generation
  // moves again once the storm has been fully processed.
  if (processed > 0) ++rib_generation_;

  run.messages = processed;
  run.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  if (processed > 0) {
    run.runs = 1;
    convergence_stats_.runs += 1;
    convergence_stats_.messages += run.messages;
    convergence_stats_.batches += run.batches;
    convergence_stats_.shard_limit = kConvergenceShards;
    convergence_stats_.max_batch_messages =
        std::max(convergence_stats_.max_batch_messages, run.max_batch_messages);
    convergence_stats_.max_shards_occupied =
        std::max(convergence_stats_.max_shards_occupied, run.max_shards_occupied);
    convergence_stats_.occupied_shard_sum += run.occupied_shard_sum;
    convergence_stats_.seconds += run.seconds;
    ConvergenceMetrics::global().record(run);
  }
  return processed;
}

const std::unordered_map<net::Ipv4Prefix, Route>& Fabric::exported_to(NeighborId id) const {
  return neighbor_exports_.at(id);
}

}  // namespace vns::bgp
