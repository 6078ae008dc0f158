// Deterministic fault-schedule engine.
//
// A FaultPlan composes timed fault actions on top of a World: partitions
// between node sets (stacked on any user link filter), node crashes and
// restarts (crash-recovery, not just crash-stop), per-link delay spikes
// and loss rates, slow-node (reduced bandwidth) modes, and *Byzantine
// windows* — timed spans in which a replica actively misbehaves (any set
// of the ByzantineFlags in sim/byzantine.hpp). Every action is an event on
// the World's EventQueue and all randomness — loss dice in the network,
// action choices in randomize() — comes from the World RNG, so a whole
// chaos scenario replays bit-identically from its seed.
//
// Each scheduling call appends one typed Action to one list; the start and
// end events, describe() and the text script (serialize_script /
// schedule_script, so a failure artifact can be reloaded and replayed) all
// read that list. Windows that overlap on the same link, node or flag
// follow one rule: the later start's value wins and the effect lasts until
// the latest end.
//
// Crash semantics are pluggable: a plan built from a system's FaultSurface
// (`FaultPlan(world, sys)`) sets its `on_crash`/`on_restart` hooks to the
// system's crash_node/restart_node, so a crash destroys the replica
// process — volatile state is lost and the rebuilt process must recover
// through checkpoint state transfer. A caller may set the hooks itself on
// a plan built from the World alone. Without hooks the plan falls back to
// the crash-stop model (Transport::set_node_down on the World's installed
// transport), which keeps state.
// Byzantine windows write the node's World::byzantine(n) entry, which the
// replica reads where it acts and which persists across a crash/restart of
// the same node, so the plan needs no hook for them.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/ids.hpp"
#include "sim/byzantine.hpp"
#include "sim/network.hpp"

namespace spider {

class FaultSurface;
class World;

class FaultPlan {
 public:
  /// Installs this plan's fault shaper on the world's network. One plan
  /// per World at a time; the destructor uninstalls it.
  explicit FaultPlan(World& world);
  /// A plan against `system`: binds the crash hooks to its crash_node /
  /// restart_node and lets randomize() draw its targets from its groups.
  /// `system` must outlive the plan.
  FaultPlan(World& world, FaultSurface& system);
  ~FaultPlan();

  FaultPlan(const FaultPlan&) = delete;
  FaultPlan& operator=(const FaultPlan&) = delete;

  // ---- crash-recovery hooks --------------------------------------------
  /// Invoked when a scheduled crash/restart fires. The FaultSurface
  /// constructor binds them to the system's crash_node/restart_node
  /// (process teardown + rebuild). When unset, crashes degrade to the
  /// crash-stop model (set_node_down).
  std::function<void(NodeId)> on_crash;
  std::function<void(NodeId)> on_restart;

  // ---- timed actions (absolute simulated time) --------------------------
  /// Cuts every link between a node of `a` and a node of `b` (both
  /// directions) at time t. `heal_after` > 0 auto-heals that cut.
  void partition_nodes_at(Time t, std::vector<NodeId> a, std::vector<NodeId> b,
                          Duration heal_after = 0);

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

  /// Sets every flag of `flags` in node n's World::byzantine(n) entry for
  /// [t, t + duration). Windows on different flags of one node compose;
  /// overlapping windows on one flag extend it. Throws
  /// std::invalid_argument when `flags` sets none.
  void byzantine_at(Time t, NodeId n, ByzantineFlags flags, Duration duration);

  // ---- random scenario generation ---------------------------------------
  struct ChaosProfile {
    /// All actions start in [start, horizon) and end by horizon.
    Time start = 2 * kSecond;
    Time horizon = 20 * kSecond;
    std::size_t actions = 4;
    /// Number of timed Byzantine windows (active adversaries).
    std::size_t byz_actions = 0;
  };
  /// Draws `profile.actions` random timed actions from the World RNG over
  /// the system's fault surface: crash+restart pairs of replicas (at most
  /// the smallest group f down at once), partitions cutting one partition
  /// group off from the others, loss/delay spikes and slow-node windows,
  /// each lasting 1-6 s. Then it fixes at most f Byzantine members per
  /// replica group, consensus groups before execution groups, and draws
  /// `profile.byz_actions` windows over them (mute, equivocation, corrupt
  /// replies, dropped forwarding, forged checkpoints). Every fault ends by
  /// `profile.horizon`, so a run driven past the horizon always returns to
  /// a fault-free, honest system. Throws std::logic_error on a plan built
  /// without a FaultSurface.
  void randomize(const ChaosProfile& profile);

  // ---- introspection ------------------------------------------------------
  [[nodiscard]] bool crashed(NodeId n) const { return crashed_.count(n) > 0; }
  [[nodiscard]] std::uint64_t actions_fired() const { return actions_fired_; }
  /// Human-readable schedule (one line per start or end event, by time),
  /// for reproducing a failing chaos seed.
  [[nodiscard]] std::string describe() const;

  // ---- schedule round-trip ------------------------------------------------
  /// Machine-readable schedule: one line per action, parseable by
  /// schedule_script. Failure artifacts embed this so a failing chaos seed
  /// can be reloaded and replayed without re-running randomize().
  [[nodiscard]] std::string serialize_script() const;
  /// Re-issues every action of a serialized script on this plan, in the
  /// original call order (same-time events keep their scheduling order, so
  /// a replay is byte-identical). Throws std::invalid_argument on a line
  /// serialize_script could not have written: an unknown kind, a missing or
  /// trailing field, or a value out of range (a negative time, duration or
  /// extra delay, loss outside [0, 1], slow factor outside (0, 1], Byzantine
  /// bits zero or naming no defined flag). Call before running the world
  /// past the first action.
  void schedule_script(const std::string& script);

 private:
  enum class Kind : std::uint8_t { kPartition, kCrash, kRestart, kDelay, kLoss, kSlow, kByz };
  /// One scheduled action: what every scheduling call records and every
  /// reader of the schedule reads.
  struct Action {
    Kind kind = Kind::kCrash;
    Time t = 0;
    Duration duration = 0;
    NodeId node = 0;
    NodeId peer = 0;                         // the link's other end
    std::vector<NodeId> side_a{}, side_b{};  // partition sides
    double value = 0.0;                      // extra delay, loss rate or slow factor
    std::uint8_t bits = 0;                   // Byzantine flags: bit i is kByzantineFlags[i]

    /// Partitions end only when they heal; crashes and restarts never do.
    [[nodiscard]] bool has_end() const {
      return kind == Kind::kPartition ? duration > 0
                                      : kind != Kind::kCrash && kind != Kind::kRestart;
    }
  };
  /// An effect that overlapping windows on one link, node or flag share.
  struct Window {
    double value = 0.0;
    Time until = 0;
  };
  /// (kind, node or link end, peer or Byzantine flag index).
  using WindowKey = std::tuple<Kind, NodeId, std::uint32_t>;

  LinkFault shape(NodeId from, NodeId to) const;
  /// Records `a` and schedules its start event, then its end event.
  void add(Action a);
  void start(std::size_t i);  // the effect of action i begins
  void end(std::size_t i);    // ... and ends
  /// Clears `key`'s window once its latest end has passed; true if it did.
  bool close(const WindowKey& key);
  void apply_byz(NodeId n);
  static WindowKey link_key(Kind kind, NodeId a, NodeId b);

  World& world_;
  FaultSurface* system_ = nullptr;
  std::shared_ptr<bool> alive_;
  std::vector<Action> actions_;
  std::vector<std::size_t> partitions_;  // active partitions, by action index
  std::map<WindowKey, Window> windows_;
  std::set<NodeId> crashed_;
  std::uint64_t actions_fired_ = 0;
};

}  // namespace spider
