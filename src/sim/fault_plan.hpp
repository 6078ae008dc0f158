// Deterministic fault-schedule engine.
//
// A FaultPlan composes timed fault actions on top of a World: partitions
// between site sets or node sets (stacked on any user link filter), node
// crashes and restarts (crash-recovery, not just crash-stop), per-link
// delay spikes and loss rates, slow-node (reduced bandwidth) modes, and
// *Byzantine windows* — timed spans in which a replica actively misbehaves
// (equivocating primaries, corrupted client replies, dropped request
// forwarding, muted consensus, forged checkpoint certificates). Every
// action is an event on the World's EventQueue and all randomness — loss
// dice in the network, action choices in randomize() — comes from the
// World RNG, so a whole chaos scenario replays bit-identically from its
// seed. The schedule itself round-trips through text (serialize_script /
// schedule_script), so a failure artifact can be reloaded and replayed.
//
// Crash semantics are pluggable: with `on_crash`/`on_restart` hooks set
// (the systems' crash_node/restart_node), a crash destroys the replica
// process — volatile state is lost and the rebuilt process must recover
// through checkpoint state transfer. Without hooks the plan falls back to
// the crash-stop model (SimNetwork::set_node_down), which keeps state.
// Byzantine windows write the node's World::byzantine(n) entry, which the
// replica reads where it acts and which persists across a crash/restart of
// the same node, so the plan needs no hook for them.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "sim/network.hpp"

namespace spider {

class World;

class FaultPlan {
 public:
  /// Installs this plan's fault shaper on the world's network. One plan
  /// per World at a time; the destructor uninstalls it.
  explicit FaultPlan(World& world);
  ~FaultPlan();

  FaultPlan(const FaultPlan&) = delete;
  FaultPlan& operator=(const FaultPlan&) = delete;

  // ---- crash-recovery hooks --------------------------------------------
  /// Invoked when a scheduled crash/restart fires. Typically bound to a
  /// system's crash_node/restart_node (process teardown + rebuild). When
  /// unset, crashes degrade to the crash-stop model (set_node_down).
  std::function<void(NodeId)> on_crash;
  std::function<void(NodeId)> on_restart;

  // ---- timed actions (absolute simulated time) --------------------------
  /// Cuts every link between a node of `a` and a node of `b` (both
  /// directions) at time t. `heal_after` > 0 auto-heals that cut.
  void partition_nodes_at(Time t, std::vector<NodeId> a, std::vector<NodeId> b,
                          Duration heal_after = 0);
  /// Site-set partition: cuts links between any node placed in a site of
  /// `a` and any node in a site of `b` (both directions).
  void partition_sites_at(Time t, std::vector<Site> a, std::vector<Site> b,
                          Duration heal_after = 0);
  /// Removes every active partition at time t.
  void heal_at(Time t);

  void crash_at(Time t, NodeId n);
  void restart_at(Time t, NodeId n);

  /// Adds `extra` one-way delay on the (a, b) pair, both directions, for
  /// `duration` starting at t.
  void link_delay_at(Time t, NodeId a, NodeId b, Duration extra, Duration duration);
  /// Drops messages on the (a, b) pair, both directions, with probability
  /// `loss` for `duration` starting at t.
  void link_loss_at(Time t, NodeId a, NodeId b, double loss, Duration duration);
  /// Scales node n's NIC bandwidth by `factor` in (0, 1] for `duration`.
  void slow_node_at(Time t, NodeId n, double factor, Duration duration);

  // ---- timed Byzantine actions -------------------------------------------
  // Each schedules a window [t, t + duration) in which the flag is set in
  // node n's World::byzantine(n) entry. Overlapping windows on the same
  // node/flag extend the effect; windows on different flags compose into
  // one merged ByzantineFlags per node.
  /// Execution replica answers clients with tampered values.
  void corrupt_replies_at(Time t, NodeId n, Duration duration);
  /// Execution replica silently refuses to forward client requests.
  void drop_forwarding_at(Time t, NodeId n, Duration duration);
  /// Consensus replica goes fail-silent; with `rx_too` it also drops
  /// inbound protocol traffic (fully-isolated Byzantine node).
  void mute_at(Time t, NodeId n, Duration duration, bool rx_too = false);
  /// Primary sends conflicting pre-prepares for the same sequence number
  /// to disjoint halves of the group (no-op while n is not primary).
  void equivocate_at(Time t, NodeId n, Duration duration);
  /// Checkpointer emits votes and forged certificates for a tampered
  /// state digest; correct replicas must reject them.
  void forge_checkpoints_at(Time t, NodeId n, Duration duration);

  // ---- random scenario generation ---------------------------------------
  struct ChaosProfile {
    /// Nodes that may crash (each crash is paired with a restart).
    std::vector<NodeId> crash_targets;
    /// Candidate sides for partitions: a random group is cut off from the
    /// union of the others. Typically one group per site or per role.
    std::vector<std::vector<NodeId>> partition_groups;
    /// All actions start in [start, horizon) and end by horizon.
    Time start = 2 * kSecond;
    Time horizon = 20 * kSecond;
    std::size_t actions = 4;
    Duration min_outage = kSecond;
    Duration max_outage = 6 * kSecond;
    std::uint32_t max_concurrent_crashes = 1;
    double max_loss = 0.4;
    Duration max_extra_delay = 120 * kMillisecond;
    double min_bw_factor = 0.1;

    // ---- Byzantine schedules (active adversaries) ------------------------
    /// Consensus-role candidates, one entry per agreement/BFT group. At
    /// most `max_byz_per_consensus_group` distinct members of each entry
    /// ever turn Byzantine — the hard cap; set it to the group's f. A node
    /// should appear in at most one entry across both candidate lists (the
    /// caps are per group, not aggregated across roles).
    std::vector<std::vector<NodeId>> byz_consensus_groups;
    std::uint32_t max_byz_per_consensus_group = 0;
    /// Execution-role candidates, one entry per execution group; capped at
    /// `max_byz_per_exec_group` (set it to the group's fe) distinct
    /// members each.
    std::vector<std::vector<NodeId>> byz_exec_groups;
    std::uint32_t max_byz_per_exec_group = 0;
    /// Number of timed Byzantine windows drawn over the capped node sets.
    std::size_t byz_actions = 0;
  };
  /// Draws `profile.actions` random timed actions from the World RNG:
  /// crash+restart pairs, partitions, loss/delay spikes and slow-node
  /// windows — plus `profile.byz_actions` Byzantine windows (mute,
  /// equivocation, corrupt replies, dropped forwarding, forged
  /// checkpoints) over at most the capped number of distinct replicas per
  /// role. Every fault ends by `profile.horizon`, so a run driven past
  /// the horizon always returns to a fault-free, honest system.
  void randomize(const ChaosProfile& profile);

  // ---- introspection ------------------------------------------------------
  [[nodiscard]] bool crashed(NodeId n) const { return crashed_.count(n) > 0; }
  [[nodiscard]] std::size_t active_partitions() const { return partitions_.size(); }
  [[nodiscard]] std::uint64_t actions_fired() const { return actions_fired_; }
  /// Human-readable schedule (one line per scheduled action), for
  /// reproducing a failing chaos seed.
  [[nodiscard]] std::string describe() const;

  // ---- schedule round-trip ------------------------------------------------
  /// Machine-readable schedule: one line per top-level action, parseable
  /// by schedule_script. Failure artifacts embed this so a failing chaos
  /// seed can be reloaded and replayed without re-running randomize().
  [[nodiscard]] std::string serialize_script() const;
  /// Re-issues every action of a serialized script on this plan, in the
  /// original call order (same-time events keep their scheduling order, so
  /// a replay is byte-identical). Throws std::invalid_argument on a line
  /// serialize_script could not have written: an unknown kind, a missing or
  /// trailing field, or a value out of range (a negative time, duration or
  /// extra delay, loss outside [0, 1], slow factor outside (0, 1], Byzantine
  /// bits zero or naming no defined flag, an unknown region or az > 255).
  /// Call before running the world past the first action.
  void schedule_script(const std::string& script);

 private:
  struct Partition {
    std::uint64_t id = 0;
    std::set<NodeId> a, b;
    std::vector<Site> sa, sb;  // site-based cuts match by placement
  };
  struct LinkMod {
    Duration extra_delay = 0;
    double loss = 0.0;
    // Expiry bookkeeping: overlapping windows on the same pair extend the
    // effect (magnitude last-wins) instead of the earlier window's end
    // event cancelling the later window early.
    Time delay_until = 0;
    Time loss_until = 0;
  };

  /// Per-flag bits used by Byzantine windows and the script encoding.
  enum : std::uint8_t {
    kByzCorrupt = 1 << 0,
    kByzDropFwd = 1 << 1,
    kByzMute = 1 << 2,
    kByzMuteRx = 1 << 3,
    kByzEquivocate = 1 << 4,
    kByzForgeCp = 1 << 5,
  };

  /// Structured record of one top-level action (for serialize_script).
  struct Action {
    std::string kind;
    Time t = 0;
    Duration duration = 0;
    NodeId a = 0, b = 0;
    double x = 0.0;
    std::uint8_t bits = 0;
    std::vector<NodeId> set_a, set_b;
    std::vector<Site> sites_a, sites_b;
  };

  LinkFault shape(NodeId from, Site from_site, NodeId to, Site to_site) const;
  void schedule(Time t, std::string what, std::function<void()> fn);
  void apply_crash(NodeId n);
  void apply_restart(NodeId n);
  void remove_partition(std::uint64_t id);
  void byz_window(Time t, NodeId n, std::uint8_t bits, Duration duration);
  void apply_byz(NodeId n);
  static std::uint64_t link_key(NodeId a, NodeId b);
  static std::string byz_label(std::uint8_t bits);

  World& world_;
  std::shared_ptr<bool> alive_;
  std::uint64_t next_partition_id_ = 1;
  std::vector<Partition> partitions_;
  std::map<std::uint64_t, LinkMod> link_mods_;  // symmetric pair -> effect
  std::map<NodeId, Time> slow_until_;           // slow-node window expiry
  std::set<NodeId> crashed_;
  // (node, flag bit) -> window expiry; merged into the node's World entry
  // by apply_byz (same max-extend semantics as LinkMod).
  std::map<std::pair<NodeId, std::uint8_t>, Time> byz_until_;
  std::uint64_t actions_fired_ = 0;
  std::vector<std::pair<Time, std::string>> script_;  // for describe()
  std::vector<Action> recorded_;                      // for serialize_script()
};

}  // namespace spider
