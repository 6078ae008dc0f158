#include "shard/sharded_system.hpp"

#include <stdexcept>

#include "shard/migration.hpp"
#include "sim/world.hpp"

namespace spider {

void validate_topology(const ShardedTopology& t) {
  if (t.shards == 0) {
    throw std::invalid_argument("ShardedTopology.shards must be >= 1");
  }
  if (t.group_id_stride < t.base.exec_regions.size() + 1) {
    throw std::invalid_argument(
        "ShardedTopology.group_id_stride too small for base.exec_regions");
  }
  validate_topology(t.base);
}

ShardedTopology ShardedSpiderSystem::checked(ShardedTopology t) {
  validate_topology(t);
  return t;
}

ShardedSpiderSystem::ShardedSpiderSystem(World& world, ShardedTopology topology)
    : world_(world),
      topo_(checked(std::move(topology))),
      map_(ShardMap::uniform(topo_.shards)) {
  migrations_ = &world_.metrics().counter("shard_migrations_completed",
                                          {.role = "sharded-system"});
  last_pause_ = &world_.metrics().gauge("shard_migration_pause_us",
                                        {.role = "sharded-system"});
  for (std::uint32_t s = 0; s < topo_.shards; ++s) {
    SpiderTopology core_topo = topo_.base;
    core_topo.first_group_id = 1 + static_cast<GroupId>(s) * topo_.group_id_stride;
    if (topo_.resharding) {
      core_topo.shard_map = map_;
      core_topo.shard_index = s;
    }
    cores_.push_back(std::make_unique<SpiderSystem>(world_, std::move(core_topo)));
  }
}

std::uint64_t ShardedSpiderSystem::migrations_completed() const {
  return migrations_->value();
}

Duration ShardedSpiderSystem::last_migration_pause() const {
  return static_cast<Duration>(last_pause_->value());
}

std::unique_ptr<ShardedClient> ShardedSpiderSystem::make_client(Site site) {
  std::vector<std::unique_ptr<SpiderClient>> subs;
  for (auto& core : cores_) subs.push_back(core->make_client(site));
  return std::make_unique<ShardedClient>(world_, map_, std::move(subs));
}

GroupId ShardedSpiderSystem::add_group(std::uint32_t shard, Region region,
                                       std::function<void()> done) {
  SpiderSystem& core = *cores_.at(shard);
  // A core that outgrows its stride would reuse another core's GroupIds,
  // silently breaking the cross-core disjointness the channel/checkpoint
  // tags rely on — fail loudly instead.
  GroupId end = 1 + (static_cast<GroupId>(shard) + 1) * topo_.group_id_stride;
  if (core.next_group_id() >= end) {
    throw std::runtime_error("ShardedSpiderSystem: shard exhausted its GroupId range "
                             "(raise ShardedTopology.group_id_stride)");
  }
  return core.add_group(region, std::move(done));
}

void ShardedSpiderSystem::remove_group(std::uint32_t shard, GroupId g,
                                       std::function<void()> done) {
  cores_.at(shard)->remove_group(g, std::move(done));
}

void ShardedSpiderSystem::set_shard_map(ShardMap map) {
  if (map.shard_count() != topo_.shards) {
    throw std::invalid_argument(
        "ShardedSpiderSystem: shard map must keep the deployment's shard count");
  }
  map_ = std::move(map);
}

void ShardedSpiderSystem::migrate_range(std::uint64_t lo, std::uint64_t hi,
                                        std::uint32_t to_shard,
                                        std::function<void(bool)> done) {
  if (!topo_.resharding) {
    throw std::logic_error(
        "ShardedSpiderSystem: migrate_range requires ShardedTopology.resharding");
  }
  if (to_shard >= shard_count()) {
    throw std::invalid_argument("ShardedSpiderSystem: unknown target shard");
  }
  if (migrating_) {
    throw std::logic_error("ShardedSpiderSystem: one migration at a time");
  }
  std::uint32_t from = 0;
  if (!map_.sole_owner_of(lo, hi, &from)) {
    throw std::invalid_argument(
        "ShardedSpiderSystem: migrated range spans owners (move one range at a time)");
  }
  if (from == to_shard) {
    if (done) done(true);
    return;
  }

  const ShardMapDelta delta{map_.version(), map_.version() + 1, lo, hi, to_shard};
  (void)map_.with_delta(delta);  // validate up front: bad deltas throw, not fail async
  migrating_ = true;

  // Phase 1 — ordered MigrateOut at the losing core: every execution
  // replica cuts the range and replies with its serialized state; the
  // admin client's fe+1 matching replies certify those bytes.
  cores_[from]->admin().write(
      codec::encode(kSysOpMigrateOut, MigrateOutCmd{delta}),
      [this, delta, to_shard, done = std::move(done)](Bytes reply, Duration) mutable {
        MigrateReply out = decode_migrate_reply(reply);
        if (!out.ok) {
          migrating_ = false;
          if (done) done(false);
          return;
        }
        const Time cut_at = world_.now();
        // Phase 2 — ordered MigrateIn at the gaining core: replicas absorb
        // the certified state and start serving the range.
        cores_[to_shard]->admin().write(
            codec::encode(kSysOpMigrateIn, MigrateInCmd{delta, std::move(out.state)}),
            [this, delta, cut_at, done = std::move(done)](Bytes reply2, Duration) {
              MigrateReply in = decode_migrate_reply(reply2);
              migrating_ = false;
              if (!in.ok) {
                if (done) done(false);
                return;
              }
              map_ = map_.with_delta(delta);
              last_pause_->set(world_.now() - cut_at);
              migrations_->inc();
              if (auto* t = world_.tracer()) {
                t->instant(world_.now(), 0, "shard", "migration-complete",
                           "to_shard", delta.to_shard, "pause_us",
                           static_cast<std::uint64_t>(world_.now() - cut_at));
              }
              if (done) done(true);
            });
      });
}

void ShardedSpiderSystem::migrate_key_range(const std::string& key, std::uint32_t to_shard,
                                            std::function<void(bool)> done) {
  const std::uint64_t h = ShardMap::hash_key(key);
  const std::vector<ShardRange>& ranges = map_.ranges();
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;  // top of space unless a later range bounds it
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    const bool last = i + 1 == ranges.size();
    if (h >= ranges[i].start && (last || h < ranges[i + 1].start)) {
      lo = ranges[i].start;
      hi = last ? 0 : ranges[i + 1].start;
      break;
    }
  }
  migrate_range(lo, hi, to_shard, std::move(done));
}

bool ShardedSpiderSystem::crash_node(NodeId id) {
  for (auto& core : cores_) {
    if (core->crash_node(id)) return true;
  }
  return false;
}

bool ShardedSpiderSystem::restart_node(NodeId id) {
  for (auto& core : cores_) {
    if (core->restart_node(id)) return true;
  }
  return false;
}

std::vector<ReplicaGroup> ShardedSpiderSystem::replica_groups() const {
  std::vector<ReplicaGroup> groups;
  for (const auto& core : cores_) {
    std::vector<ReplicaGroup> core_groups = core->replica_groups();
    groups.insert(groups.end(), core_groups.begin(), core_groups.end());
  }
  return groups;
}

}  // namespace spider
