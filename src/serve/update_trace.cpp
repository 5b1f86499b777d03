#include "serve/update_trace.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>

#include "obs/json.hpp"

namespace vns::serve {

const char* to_string(UpdateOp op) noexcept {
  switch (op) {
    case UpdateOp::kAnnounce: return "announce";
    case UpdateOp::kWithdraw: return "withdraw";
    case UpdateOp::kLinkDown: return "link_down";
    case UpdateOp::kLinkUp: return "link_up";
    case UpdateOp::kUpstreamDown: return "upstream_down";
    case UpdateOp::kUpstreamUp: return "upstream_up";
  }
  return "unknown";
}

std::optional<UpdateOp> parse_update_op(std::string_view text) noexcept {
  if (text == "announce") return UpdateOp::kAnnounce;
  if (text == "withdraw") return UpdateOp::kWithdraw;
  if (text == "link_down") return UpdateOp::kLinkDown;
  if (text == "link_up") return UpdateOp::kLinkUp;
  if (text == "upstream_down") return UpdateOp::kUpstreamDown;
  if (text == "upstream_up") return UpdateOp::kUpstreamUp;
  return std::nullopt;
}

namespace {

/// Same self-contained LCG the convergence replay tests use: the schedule
/// must not depend on util::Rng internals, so a recorded trace keeps
/// replaying identically even if the library RNG evolves.
struct ScheduleRng {
  std::uint64_t state;
  std::uint32_t next(std::uint32_t bound) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<std::uint32_t>((state >> 33) % bound);
  }
};

}  // namespace

UpdateTrace generate_trace(const core::VnsNetwork& vns, const GenerateConfig& config) {
  UpdateTrace trace;
  trace.seed = config.seed;
  trace.scale = config.scale;
  trace.batches = config.batches;

  const auto prefixes = vns.known_prefix_log();
  // Flap routes over the upstream transit sessions only: peers export a
  // restricted table, so an arbitrary prefix on a peer session would be a
  // policy violation the real feed could never produce.
  struct Upstream {
    bgp::NeighborId session;
    net::Asn asn;
    core::PopId pop;
    int which;
  };
  std::vector<Upstream> upstreams;
  for (const auto& pop : vns.pops()) {
    for (std::size_t i = 0; i < pop.upstream_sessions.size(); ++i) {
      const bgp::NeighborId session = pop.upstream_sessions[i];
      upstreams.push_back(
          {session, vns.fabric().neighbor(session).asn, pop.id, static_cast<int>(i)});
    }
  }
  std::vector<std::size_t> links;
  for (std::size_t i = 0; i < vns.links().size(); ++i) links.push_back(i);
  if (prefixes.empty() || upstreams.empty()) return trace;

  // Liveness the generator maintains itself (it never touches the network):
  // announces and withdraws are only scheduled on sessions the schedule has
  // not taken down, and fault events strictly alternate down/up per target,
  // so replaying the recorded events in order is always applicable.
  std::vector<bool> session_down(upstreams.size(), false);
  std::vector<bool> link_down(links.size(), false);
  std::size_t sessions_down = 0;

  ScheduleRng rng{config.seed * 0x9e3779b97f4a7c15ull + 1};
  const std::uint32_t total_weight =
      config.announce_weight + config.withdraw_weight + config.fault_weight;
  for (std::uint64_t batch = 0; batch < config.batches; ++batch) {
    for (std::uint32_t i = 0; i < config.events_per_batch; ++i) {
      // Draws are consumed unconditionally so the op stream is a pure
      // function of the seed; guards only decide whether a draw is emitted.
      const std::uint32_t dice = rng.next(std::max(total_weight, 1u));
      const std::uint32_t u = rng.next(static_cast<std::uint32_t>(upstreams.size()));
      const std::uint32_t p = rng.next(static_cast<std::uint32_t>(prefixes.size()));
      const std::uint32_t hop = rng.next(1024);
      const std::uint32_t med = rng.next(16);
      UpdateEvent event;
      event.batch = batch;
      if (dice < config.announce_weight) {
        if (session_down[u]) continue;
        event.op = UpdateOp::kAnnounce;
        event.session = upstreams[u].session;
        event.prefix = prefixes[p];
        // Two-hop path through the transit session's AS to a synthetic
        // origin: short enough to contend for best, varied enough (second
        // hop and MED) that a re-announce is a route replacement, not an
        // idempotent refresh.
        event.as_path = {upstreams[u].asn, 64512 + hop};
        event.med = med;
      } else if (dice < config.announce_weight + config.withdraw_weight) {
        if (session_down[u]) continue;
        event.op = UpdateOp::kWithdraw;
        event.session = upstreams[u].session;
        event.prefix = prefixes[p];
      } else if (!links.empty() && hop % 2 == 0) {
        const std::uint32_t l = rng.next(static_cast<std::uint32_t>(links.size()));
        const auto& link = vns.links()[links[l]];
        event.op = link_down[l] ? UpdateOp::kLinkUp : UpdateOp::kLinkDown;
        link_down[l] = !link_down[l];
        event.a = link.a;
        event.b = link.b;
      } else {
        // Never isolate the feed entirely: keep at least one upstream
        // session up so announces always have somewhere to land.
        if (!session_down[u] && sessions_down + 1 >= upstreams.size()) continue;
        event.op = session_down[u] ? UpdateOp::kUpstreamUp : UpdateOp::kUpstreamDown;
        session_down[u] = !session_down[u];
        if (session_down[u]) {
          ++sessions_down;
        } else {
          --sessions_down;
        }
        event.a = upstreams[u].pop;
        event.which = upstreams[u].which;
      }
      trace.events.push_back(std::move(event));
    }
  }
  return trace;
}

void save_trace(const UpdateTrace& trace, std::ostream& out) {
  // Header first, no timestamps anywhere: the bytes are a pure function of
  // the events, which record→replay byte-identity tests rely on.
  out << "{\"type\":\"update_trace\",\"version\":1,\"scale\":"
      << obs::json_string(trace.scale) << ",\"seed\":" << obs::json_number(trace.seed)
      << ",\"batches\":" << obs::json_number(trace.batches)
      << ",\"events\":" << obs::json_number(std::uint64_t{trace.events.size()}) << "}\n";
  for (const UpdateEvent& e : trace.events) {
    out << "{\"type\":\"update_event\",\"batch\":" << obs::json_number(e.batch)
        << ",\"op\":" << obs::json_string(to_string(e.op));
    switch (e.op) {
      case UpdateOp::kAnnounce:
        out << ",\"session\":" << obs::json_number(std::uint64_t{e.session})
            << ",\"prefix\":" << obs::json_string(e.prefix.to_string()) << ",\"as_path\":[";
        for (std::size_t i = 0; i < e.as_path.size(); ++i) {
          if (i != 0) out << ',';
          out << obs::json_number(std::uint64_t{e.as_path[i]});
        }
        out << "],\"med\":" << obs::json_number(std::uint64_t{e.med});
        break;
      case UpdateOp::kWithdraw:
        out << ",\"session\":" << obs::json_number(std::uint64_t{e.session})
            << ",\"prefix\":" << obs::json_string(e.prefix.to_string());
        break;
      case UpdateOp::kLinkDown:
      case UpdateOp::kLinkUp:
        out << ",\"a\":" << obs::json_number(std::uint64_t{e.a})
            << ",\"b\":" << obs::json_number(std::uint64_t{e.b});
        break;
      case UpdateOp::kUpstreamDown:
      case UpdateOp::kUpstreamUp:
        out << ",\"pop\":" << obs::json_number(std::uint64_t{e.a})
            << ",\"which\":" << obs::json_number(std::uint64_t{static_cast<std::uint32_t>(e.which)});
        break;
    }
    out << "}\n";
  }
}

std::string trace_to_jsonl(const UpdateTrace& trace) {
  std::ostringstream out;
  save_trace(trace, out);
  return out.str();
}

namespace {

// Field scanners for the fixed JSONL dialect save_trace writes.  They only
// need to cope with our own output plus whitespace variations, not general
// JSON — load_trace rejects anything that does not look like a trace line.

std::string key_pattern(std::string_view key) {
  std::string pattern;
  pattern.reserve(key.size() + 3);
  pattern += '"';
  pattern += key;
  pattern += "\":";
  return pattern;
}

std::optional<std::string> scan_string(std::string_view line, std::string_view key) {
  const std::string pattern = key_pattern(key);
  const auto at = line.find(pattern);
  if (at == std::string_view::npos) return std::nullopt;
  auto i = at + pattern.size();
  while (i < line.size() && line[i] == ' ') ++i;
  if (i >= line.size() || line[i] != '"') return std::nullopt;
  ++i;
  std::string out;
  while (i < line.size() && line[i] != '"') {
    if (line[i] == '\\' && i + 1 < line.size()) ++i;  // our writer escapes " and \ only
    out += line[i++];
  }
  if (i >= line.size()) return std::nullopt;
  return out;
}

std::optional<std::uint64_t> scan_u64(std::string_view line, std::string_view key) {
  const std::string pattern = key_pattern(key);
  const auto at = line.find(pattern);
  if (at == std::string_view::npos) return std::nullopt;
  auto i = at + pattern.size();
  while (i < line.size() && line[i] == ' ') ++i;
  std::uint64_t value = 0;
  bool any = false;
  while (i < line.size() && line[i] >= '0' && line[i] <= '9') {
    value = value * 10 + static_cast<std::uint64_t>(line[i] - '0');
    ++i;
    any = true;
  }
  if (!any) return std::nullopt;
  return value;
}

std::optional<std::vector<net::Asn>> scan_asn_array(std::string_view line,
                                                    std::string_view key) {
  const std::string pattern = key_pattern(key) + "[";
  const auto at = line.find(pattern);
  if (at == std::string_view::npos) return std::nullopt;
  auto i = at + pattern.size();
  std::vector<net::Asn> out;
  std::uint64_t value = 0;
  bool in_number = false;
  for (; i < line.size(); ++i) {
    const char c = line[i];
    if (c >= '0' && c <= '9') {
      value = value * 10 + static_cast<std::uint64_t>(c - '0');
      in_number = true;
    } else if (c == ',' || c == ']') {
      if (in_number) out.push_back(static_cast<net::Asn>(value));
      value = 0;
      in_number = false;
      if (c == ']') return out;
    } else if (c != ' ') {
      return std::nullopt;
    }
  }
  return std::nullopt;  // unterminated array
}

}  // namespace

std::optional<UpdateTrace> load_trace(std::istream& in) {
  UpdateTrace trace;
  bool saw_header = false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto type = scan_string(line, "type");
    if (!type) return std::nullopt;
    if (*type == "update_trace") {
      if (saw_header) return std::nullopt;
      saw_header = true;
      const auto scale = scan_string(line, "scale");
      const auto seed = scan_u64(line, "seed");
      const auto batches = scan_u64(line, "batches");
      if (!scale || !seed || !batches) return std::nullopt;
      trace.scale = *scale;
      trace.seed = *seed;
      trace.batches = *batches;
      continue;
    }
    if (*type != "update_event" || !saw_header) return std::nullopt;
    UpdateEvent event;
    const auto batch = scan_u64(line, "batch");
    const auto op_text = scan_string(line, "op");
    if (!batch || !op_text) return std::nullopt;
    const auto op = parse_update_op(*op_text);
    if (!op) return std::nullopt;
    event.batch = *batch;
    event.op = *op;
    switch (event.op) {
      case UpdateOp::kAnnounce: {
        const auto session = scan_u64(line, "session");
        const auto prefix_text = scan_string(line, "prefix");
        const auto path = scan_asn_array(line, "as_path");
        const auto med = scan_u64(line, "med");
        if (!session || !prefix_text || !path || !med) return std::nullopt;
        const auto prefix = net::Ipv4Prefix::parse(*prefix_text);
        if (!prefix) return std::nullopt;
        event.session = static_cast<bgp::NeighborId>(*session);
        event.prefix = *prefix;
        event.as_path = *path;
        event.med = static_cast<std::uint32_t>(*med);
        break;
      }
      case UpdateOp::kWithdraw: {
        const auto session = scan_u64(line, "session");
        const auto prefix_text = scan_string(line, "prefix");
        if (!session || !prefix_text) return std::nullopt;
        const auto prefix = net::Ipv4Prefix::parse(*prefix_text);
        if (!prefix) return std::nullopt;
        event.session = static_cast<bgp::NeighborId>(*session);
        event.prefix = *prefix;
        break;
      }
      case UpdateOp::kLinkDown:
      case UpdateOp::kLinkUp: {
        const auto a = scan_u64(line, "a");
        const auto b = scan_u64(line, "b");
        if (!a || !b) return std::nullopt;
        event.a = static_cast<core::PopId>(*a);
        event.b = static_cast<core::PopId>(*b);
        break;
      }
      case UpdateOp::kUpstreamDown:
      case UpdateOp::kUpstreamUp: {
        const auto pop = scan_u64(line, "pop");
        const auto which = scan_u64(line, "which");
        if (!pop || !which) return std::nullopt;
        event.a = static_cast<core::PopId>(*pop);
        event.which = static_cast<int>(*which);
        break;
      }
    }
    trace.events.push_back(std::move(event));
  }
  if (!saw_header) return std::nullopt;
  if (!trace.events.empty()) {
    trace.batches = std::max(trace.batches, trace.events.back().batch + 1);
  }
  return trace;
}

std::optional<std::string> validate_trace(const UpdateTrace& trace,
                                          const core::VnsNetwork& vns) {
  const std::uint64_t sessions = vns.fabric().neighbor_count();
  const std::uint64_t pops = vns.pops().size();
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    const UpdateEvent& e = trace.events[i];
    const bool route = e.op == UpdateOp::kAnnounce || e.op == UpdateOp::kWithdraw;
    const bool link = e.op == UpdateOp::kLinkDown || e.op == UpdateOp::kLinkUp;
    std::string bad;
    if (route && e.session >= sessions) bad = "session " + std::to_string(e.session);
    if (!route && e.a >= pops) bad = "pop " + std::to_string(e.a);
    if (link && e.b >= pops) bad = "pop " + std::to_string(e.b);
    if (!bad.empty()) {
      return "event " + std::to_string(i) + " (" + to_string(e.op) + ") names " + bad +
             ", which the network lacks";
    }
  }
  return std::nullopt;
}

}  // namespace vns::serve
