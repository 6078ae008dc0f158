// Sharded Spider deployment builder.
//
// Stands up N independent Spider cores (one agreement group + its
// execution groups each) inside one World and composes them behind a
// hash-partitioned keyspace: a ShardMap owns the routing table and
// ShardedClient routers give applications a single client-facing KV
// interface. Cores share nothing but the simulated world — each shard
// orders, executes, and checkpoints its own slice of the keyspace, so
// aggregate write throughput scales with the shard count instead of
// being capped by a single sequencer.
//
// NodeIds come from the shared World allocator; GroupIds are made
// disjoint by giving each core its own `first_group_id` range (stride
// `group_id_stride`), so per-group channel/checkpoint tags never collide
// across cores and diagnostics stay unambiguous.
#pragma once

#include "obs/metrics.hpp"
#include "shard/shard_map.hpp"
#include "shard/sharded_client.hpp"
#include "spider/system.hpp"

namespace spider {

struct ShardedTopology {
  /// Number of independent Spider cores (= keyspace partitions).
  std::uint32_t shards = 4;
  /// Per-shard deployment: every core uses the same agreement-region and
  /// execution-group placement rules (geo_replica_sites) as a standalone
  /// Spider instance.
  SpiderTopology base;
  /// GroupId range reserved per core; must exceed the number of execution
  /// groups a core will ever host (including runtime add_group calls).
  GroupId group_id_stride = 1024;
  /// Enables live resharding: execution replicas enforce the shard map
  /// (foreign keys answered with a WrongShard redirect) and accept
  /// MigrateOut/MigrateIn admin ops, so migrate_range works at runtime.
  /// Off by default — statically sharded deployments behave exactly as
  /// before (no ownership checks, byte-identical histories).
  bool resharding = false;
};

/// Up-front validation shared with SpiderTopology (satellite of ISSUE 2):
/// throws std::invalid_argument naming the offending field.
void validate_topology(const ShardedTopology& t);

class ShardedSpiderSystem : public FaultSurface {
 public:
  ShardedSpiderSystem(World& world, ShardedTopology topology);

  [[nodiscard]] std::uint32_t shard_count() const {
    return static_cast<std::uint32_t>(cores_.size());
  }
  SpiderSystem& core(std::uint32_t shard) { return *cores_.at(shard); }
  [[nodiscard]] const ShardMap& shard_map() const { return map_; }

  /// Creates a router at `site`: one SpiderClient per shard, each attached
  /// to that shard's nearest execution group.
  std::unique_ptr<ShardedClient> make_client(Site site);

  /// Runtime reconfiguration (§3.6), scoped to one shard: the other shards
  /// keep committing while the new group state-transfers in.
  GroupId add_group(std::uint32_t shard, Region region, std::function<void()> done = {});
  void remove_group(std::uint32_t shard, GroupId g, std::function<void()> done = {});

  // ---- fault surface ------------------------------------------------------
  /// Routes to the core owning the replica id; see SpiderSystem.
  bool crash_node(NodeId id) override;
  bool restart_node(NodeId id) override;
  /// Every core's replica groups, core by core: each shard's agreement
  /// group is a consensus group of its own.
  [[nodiscard]] std::vector<ReplicaGroup> replica_groups() const override;

  /// Installs a rebalanced shard map; the new table only reaches routers
  /// that adopt_map() it. The shard count is fixed by the deployment.
  void set_shard_map(ShardMap map);

  // ---- live resharding (requires ShardedTopology.resharding) -------------
  /// Moves the hash range [lo, hi) — hi == 0 meaning the top of the hash
  /// space — to `to_shard` while the deployment keeps serving traffic:
  /// an ordered MigrateOut at the (single) losing shard cuts the range out
  /// of every replica and certifies its state with the reply quorum, then
  /// an ordered MigrateIn at the gaining shard absorbs it. Replicas answer
  /// foreign keys with WrongShard redirects from commit time on, so routers
  /// catch up organically. One migration at a time; `done(ok)` fires when
  /// the gaining shard has committed (ok == false when a side rejected the
  /// delta). Throws std::logic_error without resharding enabled and
  /// std::invalid_argument for an unknown target or multi-owner range.
  void migrate_range(std::uint64_t lo, std::uint64_t hi, std::uint32_t to_shard,
                     std::function<void(bool ok)> done = {});
  /// Convenience: migrates the whole range owning `key` to `to_shard`.
  void migrate_key_range(const std::string& key, std::uint32_t to_shard,
                         std::function<void(bool ok)> done = {});
  [[nodiscard]] bool migration_in_flight() const { return migrating_; }
  /// Thin read of the registry counter `shard_migrations_completed`.
  [[nodiscard]] std::uint64_t migrations_completed() const;
  /// Sim-time gap between MigrateOut completing (range cut) and MigrateIn
  /// completing (range served again) for the most recent migration — the
  /// unavailability window the micro_reshard bench reports. Thin read of
  /// the registry gauge `shard_migration_pause_us`.
  [[nodiscard]] Duration last_migration_pause() const;

  [[nodiscard]] World& world() { return world_; }
  [[nodiscard]] const ShardedTopology& topology() const { return topo_; }

 private:
  static ShardedTopology checked(ShardedTopology t);

  World& world_;
  ShardedTopology topo_;
  ShardMap map_;
  std::vector<std::unique_ptr<SpiderSystem>> cores_;
  bool migrating_ = false;
  // Registry-backed migration stats (cached pointers into world_.metrics()).
  obs::Counter* migrations_ = nullptr;
  obs::Gauge* last_pause_ = nullptr;
};

}  // namespace spider
