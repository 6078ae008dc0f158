#include "sim/fault_plan.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "sim/world.hpp"

namespace spider {

namespace {
bool site_in(const Site& s, const std::vector<Site>& set) {
  return std::find(set.begin(), set.end(), s) != set.end();
}

// Doubles (loss rates, bandwidth factors) must survive the text round
// trip bit-exactly; max_digits10 guarantees that.
std::string fmt_double(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}
}  // namespace

FaultPlan::FaultPlan(World& world) : world_(world), alive_(std::make_shared<bool>(true)) {
  world_.net().set_fault_shaper(
      [this](NodeId from, Site fs, NodeId to, Site ts) { return shape(from, fs, to, ts); });
}

FaultPlan::~FaultPlan() {
  *alive_ = false;
  world_.net().set_fault_shaper({});
}

std::uint64_t FaultPlan::link_key(NodeId a, NodeId b) {
  NodeId lo = std::min(a, b), hi = std::max(a, b);
  return (static_cast<std::uint64_t>(lo) << 32) | hi;
}

LinkFault FaultPlan::shape(NodeId from, Site from_site, NodeId to, Site to_site) const {
  LinkFault f;
  for (const Partition& p : partitions_) {
    const bool from_a = p.a.count(from) > 0 || site_in(from_site, p.sa);
    const bool from_b = p.b.count(from) > 0 || site_in(from_site, p.sb);
    const bool to_a = p.a.count(to) > 0 || site_in(to_site, p.sa);
    const bool to_b = p.b.count(to) > 0 || site_in(to_site, p.sb);
    if ((from_a && to_b) || (from_b && to_a)) {
      f.cut = true;
      return f;
    }
  }
  auto it = link_mods_.find(link_key(from, to));
  if (it != link_mods_.end()) {
    f.extra_delay = it->second.extra_delay;
    f.loss = it->second.loss;
  }
  return f;
}

void FaultPlan::schedule(Time t, std::string what, std::function<void()> fn) {
  script_.emplace_back(t, std::move(what));
  world_.queue().schedule_at(t, [this, alive = alive_, fn = std::move(fn)] {
    if (!*alive) return;
    ++actions_fired_;
    fn();
  });
}

void FaultPlan::remove_partition(std::uint64_t id) {
  partitions_.erase(std::remove_if(partitions_.begin(), partitions_.end(),
                                   [id](const Partition& p) { return p.id == id; }),
                    partitions_.end());
}

void FaultPlan::partition_nodes_at(Time t, std::vector<NodeId> a, std::vector<NodeId> b,
                                   Duration heal_after) {
  recorded_.push_back(Action{"partition", t, heal_after, 0, 0, 0.0, 0, a, b, {}, {}});
  std::uint64_t id = next_partition_id_++;
  Partition part;
  part.id = id;
  part.a.insert(a.begin(), a.end());
  part.b.insert(b.begin(), b.end());
  schedule(t, "partition#" + std::to_string(id),
           [this, part = std::move(part)] { partitions_.push_back(part); });
  if (heal_after > 0) {
    schedule(t + heal_after, "heal#" + std::to_string(id),
             [this, id] { remove_partition(id); });
  }
}

void FaultPlan::partition_sites_at(Time t, std::vector<Site> a, std::vector<Site> b,
                                   Duration heal_after) {
  recorded_.push_back(Action{"sitepart", t, heal_after, 0, 0, 0.0, 0, {}, {}, a, b});
  std::uint64_t id = next_partition_id_++;
  Partition part;
  part.id = id;
  part.sa = std::move(a);
  part.sb = std::move(b);
  schedule(t, "site-partition#" + std::to_string(id),
           [this, part = std::move(part)] { partitions_.push_back(part); });
  if (heal_after > 0) {
    schedule(t + heal_after, "heal#" + std::to_string(id),
             [this, id] { remove_partition(id); });
  }
}

void FaultPlan::heal_at(Time t) {
  recorded_.push_back(Action{"healall", t, 0, 0, 0, 0.0, 0, {}, {}, {}, {}});
  schedule(t, "heal-all", [this] { partitions_.clear(); });
}

void FaultPlan::apply_crash(NodeId n) {
  if (!crashed_.insert(n).second) return;  // already down
  if (on_crash) {
    on_crash(n);
  } else {
    world_.net().set_node_down(n, true);  // crash-stop fallback
  }
}

void FaultPlan::apply_restart(NodeId n) {
  if (crashed_.erase(n) == 0) return;  // not down
  if (on_restart) {
    on_restart(n);
  } else {
    world_.net().set_node_down(n, false);
  }
}

void FaultPlan::crash_at(Time t, NodeId n) {
  recorded_.push_back(Action{"crash", t, 0, n, 0, 0.0, 0, {}, {}, {}, {}});
  schedule(t, "crash node " + std::to_string(n), [this, n] { apply_crash(n); });
}

void FaultPlan::restart_at(Time t, NodeId n) {
  recorded_.push_back(Action{"restart", t, 0, n, 0, 0.0, 0, {}, {}, {}, {}});
  schedule(t, "restart node " + std::to_string(n), [this, n] { apply_restart(n); });
}

void FaultPlan::link_delay_at(Time t, NodeId a, NodeId b, Duration extra, Duration duration) {
  recorded_.push_back(
      Action{"delay", t, duration, a, b, static_cast<double>(extra), 0, {}, {}, {}, {}});
  std::uint64_t key = link_key(a, b);
  schedule(t, "delay+" + std::to_string(extra) + "us link " + std::to_string(a) + "<->" +
                  std::to_string(b),
           [this, key, extra, until = t + duration] {
             LinkMod& m = link_mods_[key];
             m.extra_delay = extra;
             m.delay_until = std::max(m.delay_until, until);
           });
  schedule(t + duration, "delay-end link " + std::to_string(a) + "<->" + std::to_string(b),
           [this, key] {
             LinkMod& m = link_mods_[key];
             if (world_.now() >= m.delay_until) m.extra_delay = 0;
           });
}

void FaultPlan::link_loss_at(Time t, NodeId a, NodeId b, double loss, Duration duration) {
  recorded_.push_back(Action{"loss", t, duration, a, b, loss, 0, {}, {}, {}, {}});
  std::uint64_t key = link_key(a, b);
  schedule(t, "loss " + std::to_string(loss) + " link " + std::to_string(a) + "<->" +
                  std::to_string(b),
           [this, key, loss, until = t + duration] {
             LinkMod& m = link_mods_[key];
             m.loss = loss;
             m.loss_until = std::max(m.loss_until, until);
           });
  schedule(t + duration, "loss-end link " + std::to_string(a) + "<->" + std::to_string(b),
           [this, key] {
             LinkMod& m = link_mods_[key];
             if (world_.now() >= m.loss_until) m.loss = 0.0;
           });
}

void FaultPlan::slow_node_at(Time t, NodeId n, double factor, Duration duration) {
  recorded_.push_back(Action{"slow", t, duration, n, 0, factor, 0, {}, {}, {}, {}});
  schedule(t, "slow node " + std::to_string(n) + " x" + std::to_string(factor),
           [this, n, factor, until = t + duration] {
             world_.net().set_node_bandwidth_factor(n, factor);
             Time& cur = slow_until_[n];
             cur = std::max(cur, until);
           });
  schedule(t + duration, "slow-end node " + std::to_string(n), [this, n] {
    if (world_.now() >= slow_until_[n]) world_.net().set_node_bandwidth_factor(n, 1.0);
  });
}

// --------------------------------------------------------- Byzantine windows

std::string FaultPlan::byz_label(std::uint8_t bits) {
  std::string out;
  auto add = [&out](const char* name) {
    if (!out.empty()) out += "+";
    out += name;
  };
  if (bits & kByzCorrupt) add("corrupt-replies");
  if (bits & kByzDropFwd) add("drop-forwarding");
  if (bits & kByzMute) add("mute");
  if (bits & kByzMuteRx) add("mute-rx");
  if (bits & kByzEquivocate) add("equivocate");
  if (bits & kByzForgeCp) add("forge-checkpoints");
  return out;
}

void FaultPlan::apply_byz(NodeId n) {
  const Time now = world_.now();
  auto active = [this, n, now](std::uint8_t bit) {
    auto it = byz_until_.find({n, bit});
    return it != byz_until_.end() && it->second > now;
  };
  ByzantineFlags& f = world_.byzantine(n);
  f.corrupt_replies = active(kByzCorrupt);
  f.drop_forwarding = active(kByzDropFwd);
  f.mute = active(kByzMute);
  f.mute_rx = active(kByzMuteRx);
  f.equivocate = active(kByzEquivocate);
  f.forge_checkpoints = active(kByzForgeCp);
}

void FaultPlan::byz_window(Time t, NodeId n, std::uint8_t bits, Duration duration) {
  recorded_.push_back(Action{"byz", t, duration, n, 0, 0.0, bits, {}, {}, {}, {}});
  schedule(t, "byz+" + byz_label(bits) + " node " + std::to_string(n),
           [this, n, bits, until = t + duration] {
             for (std::uint8_t bit = 1; bit != 0; bit = static_cast<std::uint8_t>(bit << 1)) {
               if ((bits & bit) == 0) continue;
               Time& cur = byz_until_[{n, bit}];
               cur = std::max(cur, until);
             }
             apply_byz(n);
           });
  schedule(t + duration, "byz-end node " + std::to_string(n), [this, n] { apply_byz(n); });
}

void FaultPlan::corrupt_replies_at(Time t, NodeId n, Duration duration) {
  byz_window(t, n, kByzCorrupt, duration);
}

void FaultPlan::drop_forwarding_at(Time t, NodeId n, Duration duration) {
  byz_window(t, n, kByzDropFwd, duration);
}

void FaultPlan::mute_at(Time t, NodeId n, Duration duration, bool rx_too) {
  byz_window(t, n, static_cast<std::uint8_t>(rx_too ? (kByzMute | kByzMuteRx) : kByzMute),
             duration);
}

void FaultPlan::equivocate_at(Time t, NodeId n, Duration duration) {
  byz_window(t, n, kByzEquivocate, duration);
}

void FaultPlan::forge_checkpoints_at(Time t, NodeId n, Duration duration) {
  byz_window(t, n, kByzForgeCp, duration);
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
    outage = profile.min_outage +
             static_cast<Duration>(rng.uniform(static_cast<std::uint64_t>(
                 std::max<Duration>(profile.max_outage - profile.min_outage, 1))));
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
      NodeId target =
          profile.crash_targets[rng.uniform(profile.crash_targets.size())];
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
        double loss = 0.05 + rng.uniform01() * (profile.max_loss - 0.05);
        link_loss_at(t, a, b, loss, outage);
      } else {
        Duration extra = 1 + static_cast<Duration>(rng.uniform(
                                 static_cast<std::uint64_t>(profile.max_extra_delay)));
        link_delay_at(t, a, b, extra, outage);
      }
      continue;
    }
    NodeId n = pool[rng.uniform(pool.size())];
    double factor =
        profile.min_bw_factor + rng.uniform01() * (0.5 - profile.min_bw_factor);
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
    if (bt.consensus) {
      // corrupt-replies on a consensus target exercises PBFT-baseline
      // replicas (which also execute); pure agreement replicas have no
      // client replies and ignore the flag.
      switch (rng.uniform(5)) {
        case 0: mute_at(t, bt.node, outage, /*rx_too=*/false); break;
        case 1: mute_at(t, bt.node, outage, /*rx_too=*/true); break;
        case 2: equivocate_at(t, bt.node, outage); break;
        case 3: forge_checkpoints_at(t, bt.node, outage); break;
        default: corrupt_replies_at(t, bt.node, outage); break;
      }
    } else {
      switch (rng.uniform(3)) {
        case 0: corrupt_replies_at(t, bt.node, outage); break;
        case 1: drop_forwarding_at(t, bt.node, outage); break;
        default: forge_checkpoints_at(t, bt.node, outage); break;
      }
    }
  }
}

std::string FaultPlan::serialize_script() const {
  // One line per top-level action, in the original call order — replaying
  // the lines in order reproduces the event-queue scheduling order, which
  // matters for same-time events.
  std::ostringstream out;
  auto put_nodes = [&out](const std::vector<NodeId>& v) {
    out << " " << v.size();
    for (NodeId n : v) out << " " << n;
  };
  auto put_sites = [&out](const std::vector<Site>& v) {
    out << " " << v.size();
    for (const Site& s : v) {
      out << " " << static_cast<int>(s.region) << " " << static_cast<int>(s.az);
    }
  };
  for (const Action& a : recorded_) {
    out << a.kind << " " << a.t;
    if (a.kind == "partition") {
      out << " " << a.duration;
      put_nodes(a.set_a);
      put_nodes(a.set_b);
    } else if (a.kind == "sitepart") {
      out << " " << a.duration;
      put_sites(a.sites_a);
      put_sites(a.sites_b);
    } else if (a.kind == "healall") {
      // time only
    } else if (a.kind == "crash" || a.kind == "restart") {
      out << " " << a.a;
    } else if (a.kind == "delay") {
      out << " " << a.duration << " " << a.a << " " << a.b << " "
          << static_cast<Duration>(a.x);
    } else if (a.kind == "loss") {
      out << " " << a.duration << " " << a.a << " " << a.b << " " << fmt_double(a.x);
    } else if (a.kind == "slow") {
      out << " " << a.duration << " " << a.a << " " << fmt_double(a.x);
    } else if (a.kind == "byz") {
      out << " " << a.duration << " " << a.a << " " << static_cast<unsigned>(a.bits);
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
    auto fail = [&lineno, &line]() -> std::invalid_argument {
      return std::invalid_argument("FaultPlan script line " + std::to_string(lineno) +
                                   " malformed: " + line);
    };
    // Elements are read one at a time: a corrupted count in a hand-edited
    // artifact must land on the malformed-line diagnostic, not pre-allocate
    // an absurd vector.
    auto get_nodes = [&ls, &fail] {
      std::size_t n = 0;
      if (!(ls >> n)) throw fail();
      std::vector<NodeId> v;
      for (std::size_t i = 0; i < n; ++i) {
        NodeId id = 0;
        if (!(ls >> id)) throw fail();
        v.push_back(id);
      }
      return v;
    };
    auto get_sites = [&ls, &fail] {
      std::size_t n = 0;
      if (!(ls >> n)) throw fail();
      std::vector<Site> v;
      for (std::size_t i = 0; i < n; ++i) {
        int region = 0, az = 0;
        if (!(ls >> region >> az) || region < 0 || region >= kNumRegions || az < 0 ||
            az > 255) {
          throw fail();
        }
        v.push_back(Site{static_cast<Region>(region), static_cast<std::uint8_t>(az)});
      }
      return v;
    };
    // Accept only lines serialize_script could have written: every field in
    // range and nothing after the last one.
    auto require = [&ls, &fail](bool ok) {
      std::string rest;
      if (!ok || ls >> rest) throw fail();
    };

    std::string kind;
    Time t = 0;
    if (!(ls >> kind >> t) || t < 0) throw fail();
    Duration dur = 0;
    if (kind == "partition") {
      if (!(ls >> dur)) throw fail();
      std::vector<NodeId> a = get_nodes();
      std::vector<NodeId> b = get_nodes();
      require(dur >= 0);
      partition_nodes_at(t, std::move(a), std::move(b), dur);
    } else if (kind == "sitepart") {
      if (!(ls >> dur)) throw fail();
      std::vector<Site> a = get_sites();
      std::vector<Site> b = get_sites();
      require(dur >= 0);
      partition_sites_at(t, std::move(a), std::move(b), dur);
    } else if (kind == "healall") {
      require(true);
      heal_at(t);
    } else if (kind == "crash" || kind == "restart") {
      NodeId n = 0;
      require(static_cast<bool>(ls >> n));
      if (kind == "crash") {
        crash_at(t, n);
      } else {
        restart_at(t, n);
      }
    } else if (kind == "delay") {
      Duration extra = 0;
      NodeId a = 0, b = 0;
      require((ls >> dur >> a >> b >> extra) && dur >= 0 && extra >= 0);
      link_delay_at(t, a, b, extra, dur);
    } else if (kind == "loss") {
      NodeId a = 0, b = 0;
      double loss = 0.0;
      require((ls >> dur >> a >> b >> loss) && dur >= 0 && loss >= 0.0 && loss <= 1.0);
      link_loss_at(t, a, b, loss, dur);
    } else if (kind == "slow") {
      NodeId n = 0;
      double factor = 0.0;
      require((ls >> dur >> n >> factor) && dur >= 0 && factor > 0.0 && factor <= 1.0);
      slow_node_at(t, n, factor, dur);
    } else if (kind == "byz") {
      NodeId n = 0;
      unsigned bits = 0;
      require((ls >> dur >> n >> bits) && dur >= 0 && bits != 0 && bits < (kByzForgeCp << 1));
      byz_window(t, n, static_cast<std::uint8_t>(bits), dur);
    } else {
      throw fail();
    }
  }
}

std::string FaultPlan::describe() const {
  std::vector<std::pair<Time, std::string>> sorted = script_;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::string out;
  for (const auto& [t, what] : sorted) {
    out += "t=" + std::to_string(t) + "us  " + what + "\n";
  }
  return out;
}

}  // namespace spider
