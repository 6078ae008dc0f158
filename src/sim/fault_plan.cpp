#include "sim/fault_plan.hpp"

#include <algorithm>
#include <charconv>
#include <iterator>
#include <sstream>
#include <stdexcept>

#include "sim/world.hpp"

namespace spider {

namespace {

// randomize() draws each outage from [kMinOutage, kMaxOutage), each loss
// rate from [0.05, kMaxLoss), each extra delay from [1, kMaxExtraDelay]
// and each slow factor from [kMinBandwidthFactor, 0.5).
constexpr Duration kMinOutage = kSecond;
constexpr Duration kMaxOutage = 6 * kSecond;
constexpr double kMaxLoss = 0.4;
constexpr Duration kMaxExtraDelay = 120 * kMillisecond;
constexpr double kMinBandwidthFactor = 0.1;

// The flag sets a randomized Byzantine window draws from, per role.
// corrupt-replies on a consensus target exercises PBFT-baseline replicas
// (which also execute); pure agreement replicas have no client replies
// and ignore the flag.
constexpr ByzantineFlags kConsensusDraws[] = {
    {.mute = true}, {.mute = true, .mute_rx = true}, {.equivocate = true},
    {.forge_checkpoints = true}, {.corrupt_replies = true}};
constexpr ByzantineFlags kExecDraws[] = {
    {.corrupt_replies = true}, {.drop_forwarding = true}, {.forge_checkpoints = true}};

/// A script field after "<kind> <t>".
enum class Field : std::uint8_t {
  kDuration, kNode, kPeer, kSideA, kSideB, kExtraDelay, kLoss, kFactor, kBits
};

struct KindSpec {
  const char* name;
  std::vector<Field> fields;
};

/// Every script kind with its fields in line order, indexed by
/// FaultPlan::Kind. serialize_script writes each line by this list and
/// schedule_script reads it back by the same list.
const std::vector<KindSpec>& kinds() {
  static const std::vector<KindSpec> table = {
      {"partition", {Field::kDuration, Field::kSideA, Field::kSideB}},
      {"crash", {Field::kNode}},
      {"restart", {Field::kNode}},
      {"delay", {Field::kDuration, Field::kNode, Field::kPeer, Field::kExtraDelay}},
      {"loss", {Field::kDuration, Field::kNode, Field::kPeer, Field::kLoss}},
      {"slow", {Field::kDuration, Field::kNode, Field::kFactor}},
      {"byz", {Field::kDuration, Field::kNode, Field::kBits}},
  };
  return table;
}

// A node id is a token of decimal digits that fits NodeId: extracting it
// straight into the unsigned type would accept "-5" and wrap it.
bool read_node(std::istream& in, NodeId& out) {
  std::string token;
  if (!(in >> token)) return false;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, out);
  return ec == std::errc{} && ptr == end;
}

// Elements are read one at a time: a corrupted count in a hand-edited
// artifact must land on the malformed-line diagnostic, not pre-allocate
// an absurd vector.
bool read_nodes(std::istream& in, std::vector<NodeId>& out) {
  std::size_t n = 0;
  if (!(in >> n)) return false;
  for (std::size_t i = 0; i < n; ++i) {
    NodeId id = 0;
    if (!read_node(in, id)) return false;
    out.push_back(id);
  }
  return true;
}

bool contains(const std::vector<NodeId>& side, NodeId n) {
  return std::find(side.begin(), side.end(), n) != side.end();
}

}  // namespace

FaultPlan::FaultPlan(World& world) : world_(world), alive_(std::make_shared<bool>(true)) {
  world_.net().set_fault_shaper([this](NodeId from, NodeId to) { return shape(from, to); });
}

FaultPlan::~FaultPlan() {
  *alive_ = false;
  world_.net().set_fault_shaper({});
}

FaultPlan::WindowKey FaultPlan::link_key(Kind kind, NodeId a, NodeId b) {
  return {kind, std::min(a, b), std::max(a, b)};
}

LinkFault FaultPlan::shape(NodeId from, NodeId to) const {
  for (std::size_t i : partitions_) {
    const Action& p = actions_[i];
    if ((contains(p.side_a, from) && contains(p.side_b, to)) ||
        (contains(p.side_b, from) && contains(p.side_a, to))) {
      return LinkFault{.cut = true};
    }
  }
  auto value = [&](Kind kind) {
    auto it = windows_.find(link_key(kind, from, to));
    return it == windows_.end() ? 0.0 : it->second.value;
  };
  return LinkFault{.loss = value(Kind::kLoss),
                   .extra_delay = static_cast<Duration>(value(Kind::kDelay))};
}

void FaultPlan::partition_nodes_at(Time t, std::vector<NodeId> a, std::vector<NodeId> b,
                                   Duration heal_after) {
  add({.kind = Kind::kPartition, .t = t, .duration = heal_after, .side_a = std::move(a),
       .side_b = std::move(b)});
}

void FaultPlan::crash_at(Time t, NodeId n) { add({.kind = Kind::kCrash, .t = t, .node = n}); }

void FaultPlan::restart_at(Time t, NodeId n) { add({.kind = Kind::kRestart, .t = t, .node = n}); }

void FaultPlan::link_delay_at(Time t, NodeId a, NodeId b, Duration extra, Duration duration) {
  add({.kind = Kind::kDelay, .t = t, .duration = duration, .node = a, .peer = b,
       .value = static_cast<double>(extra)});
}

void FaultPlan::link_loss_at(Time t, NodeId a, NodeId b, double loss, Duration duration) {
  add({.kind = Kind::kLoss, .t = t, .duration = duration, .node = a, .peer = b, .value = loss});
}

void FaultPlan::slow_node_at(Time t, NodeId n, double factor, Duration duration) {
  add({.kind = Kind::kSlow, .t = t, .duration = duration, .node = n, .value = factor});
}

void FaultPlan::byzantine_at(Time t, NodeId n, ByzantineFlags flags, Duration duration) {
  std::uint8_t bits = 0;
  for (std::size_t f = 0; f < kByzantineFlags.size(); ++f) {
    if (flags.*kByzantineFlags[f].field) bits |= static_cast<std::uint8_t>(1u << f);
  }
  if (bits == 0) throw std::invalid_argument("FaultPlan::byzantine_at: no flag set");
  add({.kind = Kind::kByz, .t = t, .duration = duration, .node = n, .bits = bits});
}

void FaultPlan::add(Action a) {
  const std::size_t i = actions_.size();
  actions_.push_back(std::move(a));
  auto at = [this, i](Time t, void (FaultPlan::*fn)(std::size_t)) {
    world_.queue().schedule_at(t, [this, alive = alive_, fn, i] {
      if (!*alive) return;
      ++actions_fired_;
      (this->*fn)(i);
    });
  };
  const Action& act = actions_.back();
  at(act.t, &FaultPlan::start);
  if (act.has_end()) at(act.t + act.duration, &FaultPlan::end);
}

void FaultPlan::start(std::size_t i) {
  const Action& a = actions_[i];
  // The latest start sets a window's value; it lasts until the latest end.
  auto open = [this, until = a.t + a.duration](const WindowKey& key, double value) {
    Window& w = windows_[key];
    w.value = value;
    w.until = std::max(w.until, until);
  };
  switch (a.kind) {
    case Kind::kPartition:
      partitions_.push_back(i);
      break;
    case Kind::kCrash:
    case Kind::kRestart: {
      const bool crash = a.kind == Kind::kCrash;
      // A crash of a down node and a restart of a live one do nothing.
      if (crash ? !crashed_.insert(a.node).second : crashed_.erase(a.node) == 0) break;
      if (const auto& hook = crash ? on_crash : on_restart) {
        hook(a.node);
      } else {
        world_.net().set_node_down(a.node, crash);  // crash-stop fallback
      }
      break;
    }
    case Kind::kDelay:
    case Kind::kLoss:
      open(link_key(a.kind, a.node, a.peer), a.value);
      break;
    case Kind::kSlow:
      open({Kind::kSlow, a.node, 0}, a.value);
      world_.net().set_node_bandwidth_factor(a.node, a.value);
      break;
    case Kind::kByz:
      for (std::uint32_t f = 0; f < kByzantineFlags.size(); ++f) {
        if ((a.bits >> f) & 1) open({Kind::kByz, a.node, f}, 1.0);
      }
      apply_byz(a.node);
      break;
  }
}

void FaultPlan::end(std::size_t i) {
  const Action& a = actions_[i];
  switch (a.kind) {
    case Kind::kPartition:
      std::erase(partitions_, i);
      break;
    case Kind::kCrash:
    case Kind::kRestart: break;  // no end event
    case Kind::kDelay:
    case Kind::kLoss:
      close(link_key(a.kind, a.node, a.peer));
      break;
    case Kind::kSlow:
      if (close({Kind::kSlow, a.node, 0})) world_.net().set_node_bandwidth_factor(a.node, 1.0);
      break;
    case Kind::kByz:
      apply_byz(a.node);
      break;
  }
}

bool FaultPlan::close(const WindowKey& key) {
  Window& w = windows_[key];
  if (world_.now() < w.until) return false;
  w.value = 0.0;
  return true;
}

void FaultPlan::apply_byz(NodeId n) {
  // Every flag of the node is recomputed: on while its window is open.
  ByzantineFlags& flags = world_.byzantine(n);
  for (std::uint32_t f = 0; f < kByzantineFlags.size(); ++f) {
    const WindowKey key{Kind::kByz, n, f};
    flags.*kByzantineFlags[f].field = windows_.count(key) > 0 && !close(key);
  }
}

void FaultPlan::randomize(const ChaosProfile& profile) {
  Rng rng = world_.rng().fork();

  std::vector<NodeId> pool = profile.crash_targets;
  for (const auto& g : profile.partition_groups) pool.insert(pool.end(), g.begin(), g.end());
  std::sort(pool.begin(), pool.end());
  pool.erase(std::unique(pool.begin(), pool.end()), pool.end());

  // Draws an action window [t, t + outage) inside [start, horizon).
  auto draw_window = [&rng, &profile](Time& t, Duration& outage) {
    const Time span = std::max<Time>(profile.horizon - profile.start, 1);
    t = profile.start + static_cast<Time>(rng.uniform(static_cast<std::uint64_t>(span)));
    outage = kMinOutage + static_cast<Duration>(rng.uniform(static_cast<std::uint64_t>(
                              std::max<Duration>(kMaxOutage - kMinOutage, 1))));
    outage = std::min<Duration>(outage, profile.horizon - t);
    return outage > 0;
  };

  // Busy intervals of in-progress crashes: (target, start, end).
  std::vector<std::tuple<NodeId, Time, Time>> crash_busy;

  for (std::size_t i = 0; i < profile.actions && !pool.empty(); ++i) {
    Time t = 0;
    Duration outage = 0;
    if (!draw_window(t, outage)) continue;

    std::uint64_t kind = rng.uniform(5);
    if (kind == 0 && !profile.crash_targets.empty()) {
      NodeId target = profile.crash_targets[rng.uniform(profile.crash_targets.size())];
      // Respect the crash-concurrency cap; a disallowed crash degrades to a
      // slow-node window so the action count stays seed-stable.
      std::size_t overlapping = 0;
      bool same_target = false;
      for (const auto& [n, t0, t1] : crash_busy) {
        if (t0 < t + outage && t < t1) ++overlapping;
        // Same-target windows must not even touch: a restart and a crash
        // scheduled at the same instant fire in scheduling order, which
        // can revive the node right after the second crash no-ops —
        // silently cancelling a fault the schedule claims to inject.
        if (n == target && t0 <= t + outage && t <= t1) same_target = true;
      }
      if (!same_target && overlapping < profile.max_concurrent_crashes) {
        crash_busy.emplace_back(target, t, t + outage);
        crash_at(t, target);
        restart_at(t + outage, target);
        continue;
      }
      kind = 4;
    }
    if (kind == 1 && profile.partition_groups.size() >= 2) {
      std::size_t side = rng.uniform(profile.partition_groups.size());
      std::vector<NodeId> a = profile.partition_groups[side];
      std::vector<NodeId> b;
      for (std::size_t g = 0; g < profile.partition_groups.size(); ++g) {
        if (g == side) continue;
        b.insert(b.end(), profile.partition_groups[g].begin(),
                 profile.partition_groups[g].end());
      }
      partition_nodes_at(t, std::move(a), std::move(b), outage);
      continue;
    }
    if ((kind == 2 || kind == 3) && pool.size() >= 2) {
      // Distinct endpoints by construction: offset from a's own index, so
      // a self-link (which no message ever traverses) is impossible.
      std::size_t ia = rng.uniform(pool.size());
      NodeId a = pool[ia];
      NodeId b = pool[(ia + 1 + rng.uniform(pool.size() - 1)) % pool.size()];
      if (kind == 2) {
        double loss = 0.05 + rng.uniform01() * (kMaxLoss - 0.05);
        link_loss_at(t, a, b, loss, outage);
      } else {
        Duration extra = 1 + static_cast<Duration>(rng.uniform(
                                 static_cast<std::uint64_t>(kMaxExtraDelay)));
        link_delay_at(t, a, b, extra, outage);
      }
      continue;
    }
    NodeId n = pool[rng.uniform(pool.size())];
    double factor = kMinBandwidthFactor + rng.uniform01() * (0.5 - kMinBandwidthFactor);
    slow_node_at(t, n, factor, outage);
  }

  // ---- Byzantine schedule ------------------------------------------------
  // First fix WHO turns Byzantine: at most the capped number of distinct
  // members per group per role — the ≤f threat-model boundary. Then draw
  // the timed misbehaviour windows over that fixed set.
  if (profile.byz_actions == 0) return;
  struct ByzTarget {
    NodeId node;
    bool consensus;
  };
  std::vector<ByzTarget> targets;
  auto sample_group = [&rng, &targets](const std::vector<NodeId>& grp, std::uint32_t cap,
                                       bool consensus) {
    std::vector<NodeId> candidates = grp;
    for (std::uint32_t k = 0; k < cap && !candidates.empty(); ++k) {
      std::size_t i = rng.uniform(candidates.size());
      targets.push_back(ByzTarget{candidates[i], consensus});
      candidates.erase(candidates.begin() + static_cast<std::ptrdiff_t>(i));
    }
  };
  for (const auto& grp : profile.byz_consensus_groups) {
    sample_group(grp, profile.max_byz_per_consensus_group, true);
  }
  for (const auto& grp : profile.byz_exec_groups) {
    sample_group(grp, profile.max_byz_per_exec_group, false);
  }
  if (targets.empty()) return;

  for (std::size_t i = 0; i < profile.byz_actions; ++i) {
    Time t = 0;
    Duration outage = 0;
    if (!draw_window(t, outage)) continue;
    const ByzTarget& bt = targets[rng.uniform(targets.size())];
    const ByzantineFlags flags = bt.consensus
                                     ? kConsensusDraws[rng.uniform(std::size(kConsensusDraws))]
                                     : kExecDraws[rng.uniform(std::size(kExecDraws))];
    byzantine_at(t, bt.node, flags, outage);
  }
}

std::string FaultPlan::serialize_script() const {
  // One line per action, in call order: replaying the lines in order
  // reproduces the event-queue scheduling order, which matters for
  // same-time events. Doubles (loss rates, slow factors) must survive the
  // round trip bit-exactly; max_digits10 guarantees that.
  std::ostringstream out;
  out.precision(17);
  for (const Action& a : actions_) {
    const KindSpec& spec = kinds()[static_cast<std::size_t>(a.kind)];
    out << spec.name << " " << a.t;
    for (Field f : spec.fields) {
      out << " ";
      switch (f) {
        case Field::kDuration: out << a.duration; break;
        case Field::kNode: out << a.node; break;
        case Field::kPeer: out << a.peer; break;
        case Field::kSideA:
        case Field::kSideB: {
          const std::vector<NodeId>& side = f == Field::kSideA ? a.side_a : a.side_b;
          out << side.size();
          for (NodeId n : side) out << " " << n;
          break;
        }
        case Field::kExtraDelay: out << static_cast<Duration>(a.value); break;
        case Field::kLoss:
        case Field::kFactor: out << a.value; break;
        case Field::kBits: out << static_cast<unsigned>(a.bits); break;
      }
    }
    out << "\n";
  }
  return out.str();
}

void FaultPlan::schedule_script(const std::string& script) {
  std::istringstream in(script);
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    std::istringstream ls(line);
    // Reads one field into `a`: false when it is missing or out of range.
    auto read = [&ls](Action& a, Field f) -> bool {
      switch (f) {
        case Field::kDuration: return (ls >> a.duration) && a.duration >= 0;
        case Field::kNode: return read_node(ls, a.node);
        case Field::kPeer: return read_node(ls, a.peer);
        case Field::kSideA: return read_nodes(ls, a.side_a);
        case Field::kSideB: return read_nodes(ls, a.side_b);
        case Field::kExtraDelay: {
          Duration extra = 0;
          if (!(ls >> extra) || extra < 0) return false;
          a.value = static_cast<double>(extra);
          return true;
        }
        case Field::kLoss: return (ls >> a.value) && a.value >= 0.0 && a.value <= 1.0;
        case Field::kFactor: return (ls >> a.value) && a.value > 0.0 && a.value <= 1.0;
        case Field::kBits: {
          unsigned bits = 0;
          if (!(ls >> bits) || bits == 0 || (bits >> kByzantineFlags.size()) != 0) return false;
          a.bits = static_cast<std::uint8_t>(bits);
          return true;
        }
      }
      return false;
    };

    // Accept only lines serialize_script could have written: a known kind,
    // every field in range and nothing after the last one.
    std::string name;
    Action a;
    bool ok = (ls >> name >> a.t) && a.t >= 0;
    const std::vector<KindSpec>& table = kinds();
    auto spec = std::find_if(table.begin(), table.end(),
                             [&name](const KindSpec& k) { return name == k.name; });
    ok = ok && spec != table.end();
    if (ok) {
      a.kind = static_cast<Kind>(spec - table.begin());
      for (Field f : spec->fields) ok = ok && read(a, f);
    }
    std::string rest;
    if (!ok || ls >> rest) {
      throw std::invalid_argument("FaultPlan script line " + std::to_string(lineno) +
                                  " malformed: " + line);
    }
    add(std::move(a));
  }
}

std::string FaultPlan::describe() const {
  std::vector<std::pair<Time, std::string>> lines;
  std::uint64_t partitions = 0;
  for (const Action& a : actions_) {
    // Labels start with the script name; a window's end is "<name>-end".
    const std::string name = kinds()[static_cast<std::size_t>(a.kind)].name;
    const std::string where =
        a.kind == Kind::kDelay || a.kind == Kind::kLoss
            ? " link " + std::to_string(a.node) + "<->" + std::to_string(a.peer)
            : " node " + std::to_string(a.node);
    std::string start = name, end = name + "-end" + where;
    switch (a.kind) {
      case Kind::kPartition:
        start += "#" + std::to_string(++partitions);
        end = "heal#" + std::to_string(partitions);
        break;
      case Kind::kCrash:
      case Kind::kRestart: start += where; break;
      case Kind::kDelay:
        start += "+" + std::to_string(static_cast<Duration>(a.value)) + "us" + where;
        break;
      case Kind::kLoss: start += " " + std::to_string(a.value) + where; break;
      case Kind::kSlow: start += where + " x" + std::to_string(a.value); break;
      case Kind::kByz:
        for (std::size_t f = 0; f < kByzantineFlags.size(); ++f) {
          if ((a.bits >> f) & 1) start += std::string("+") + kByzantineFlags[f].name;
        }
        start += where;
        break;
    }
    lines.emplace_back(a.t, std::move(start));
    if (a.has_end()) lines.emplace_back(a.t + a.duration, std::move(end));
  }
  std::stable_sort(lines.begin(), lines.end(),
                   [](const auto& x, const auto& y) { return x.first < y.first; });
  std::string out;
  for (const auto& [t, what] : lines) {
    out += "t=" + std::to_string(t) + "us  " + what + "\n";
  }
  return out;
}

}  // namespace spider
