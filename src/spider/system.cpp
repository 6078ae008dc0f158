#include "spider/system.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "sim/topology.hpp"
#include "sim/world.hpp"

namespace spider {

void validate_topology(const SpiderTopology& t) {
  if (t.fa == 0) throw std::invalid_argument("SpiderTopology.fa must be >= 1");
  if (t.fe == 0) throw std::invalid_argument("SpiderTopology.fe must be >= 1");
  if (t.max_batch == 0) throw std::invalid_argument("SpiderTopology.max_batch must be >= 1");
  if (t.exec_regions.empty()) {
    throw std::invalid_argument("SpiderTopology.exec_regions must not be empty");
  }
  if (t.ag_win < t.max_batch) {
    throw std::invalid_argument("SpiderTopology.ag_win must be >= max_batch");
  }
  if (t.first_group_id == 0) {
    throw std::invalid_argument("SpiderTopology.first_group_id 0 is the agreement group");
  }
}

int az_count(Region r) {
  switch (r) {
    case Region::Virginia: return 6;  // paper: agreement leader in V-1..V-6
    case Region::Oregon:
    case Region::Tokyo:
    case Region::Seoul: return 4;
    default: return 3;
  }
}

Region nearby_region(Region r) {
  switch (r) {
    case Region::Virginia: return Region::Ohio;
    case Region::Oregon: return Region::California;
    case Region::Ireland: return Region::London;
    case Region::Tokyo: return Region::Seoul;
    case Region::Ohio: return Region::Virginia;
    case Region::California: return Region::Oregon;
    case Region::London: return Region::Ireland;
    case Region::Seoul: return Region::Tokyo;
    case Region::SaoPaulo: return Region::SaoPaulo;
  }
  return r;
}

std::vector<Site> geo_replica_sites(Region home, std::size_t n) {
  // Fill distinct AZs of the home region first (at most four, so larger
  // groups genuinely span the nearby region and intra-group quorums cross
  // a short WAN hop), then distinct AZs of the nearby region (paper §5:
  // f=2 uses Ohio/California/London/Seoul as additional fault domains).
  std::vector<Site> sites;
  int home_azs = std::min(az_count(home), 4);
  for (std::size_t i = 0; i < n; ++i) {
    if (static_cast<int>(i) < home_azs) {
      sites.push_back(Site{home, static_cast<std::uint8_t>(i)});
    } else {
      Region nb = nearby_region(home);
      int idx = static_cast<int>(i) - home_azs;
      sites.push_back(Site{nb, static_cast<std::uint8_t>(idx % az_count(nb))});
    }
  }
  return sites;
}

std::vector<Site> SpiderSystem::replica_sites(Region home, std::size_t n) const {
  return geo_replica_sites(home, n);
}

SpiderSystem::SpiderSystem(World& world, SpiderTopology topology)
    : world_(world), topo_(std::move(topology)) {
  validate_topology(topo_);
  next_group_id_ = topo_.first_group_id;

  // The admin client is constructed first so its id is known to the
  // agreement group's request validator.
  admin_ = std::make_unique<SpiderClient>(world_, Site{topo_.agreement_region, 0},
                                          ClientGroupInfo{}, topo_.client_retry);
  world_.name_node(admin_->id(), "admin-client");

  // Reserve ids: agreement replicas, then one block per execution group.
  const std::size_t na = 3 * topo_.fa + 1;
  for (std::size_t i = 0; i < na; ++i) agreement_ids_.push_back(world_.allocate_id());

  for (Region r : topo_.exec_regions) {
    GroupId g = next_group_id_++;
    std::vector<NodeId> ids;
    for (std::size_t i = 0; i < 2 * topo_.fe + 1u; ++i) ids.push_back(world_.allocate_id());
    initial_entries_.push_back(RegistryEntry{g, r, ids});
    group_members_[g] = std::move(ids);
    group_regions_[g] = r;
  }

  // Agreement group.
  agreement_sites_ = replica_sites(topo_.agreement_region, na);
  if (topo_.agreement_az_rotation != 0) {
    std::rotate(agreement_sites_.begin(),
                agreement_sites_.begin() + topo_.agreement_az_rotation % agreement_sites_.size(),
                agreement_sites_.end());
  }
  for (std::size_t i = 0; i < na; ++i) {
    agreement_.push_back(
        std::make_unique<AgreementReplica>(world_, agreement_sites_[i], agreement_config(i)));
    world_.name_node(agreement_ids_[i], std::string("ag-") +
                                            region_name(agreement_sites_[i].region) + "/" +
                                            std::to_string(i));
  }

  // Execution groups.
  for (const RegistryEntry& entry : initial_entries_) {
    groups_[entry.group] = build_group(entry.group);
  }
  wire_checkpoint_peers();

  admin_->switch_group(group_info(group_members_.begin()->first));
}

AgreementConfig SpiderSystem::agreement_config(std::size_t i) const {
  AgreementConfig cfg;
  cfg.self = agreement_ids_[i];
  cfg.members = agreement_ids_;
  cfg.my_index = static_cast<std::uint32_t>(i);
  cfg.fa = topo_.fa;
  cfg.irmc_kind = topo_.irmc_kind;
  cfg.ka = topo_.ka;
  cfg.ag_win = topo_.ag_win;
  cfg.max_batch = topo_.max_batch;
  cfg.batch_delay = topo_.batch_delay;
  cfg.z = topo_.z;
  cfg.commit_capacity = topo_.commit_capacity;
  cfg.request_timeout = topo_.request_timeout;
  cfg.view_change_timeout = topo_.view_change_timeout;
  cfg.admin = admin_->id();
  cfg.initial_groups = initial_entries_;
  return cfg;
}

ExecutionConfig SpiderSystem::exec_config(GroupId g, std::size_t i) const {
  ExecutionConfig cfg;
  cfg.self = group_members_.at(g)[i];
  cfg.group = g;
  cfg.members = group_members_.at(g);
  cfg.agreement = agreement_ids_;
  cfg.fe = topo_.fe;
  cfg.fa = topo_.fa;
  cfg.irmc_kind = topo_.irmc_kind;
  cfg.ke = topo_.ke;
  cfg.commit_capacity = topo_.commit_capacity;
  cfg.shard_map = topo_.shard_map;
  cfg.shard_index = topo_.shard_index;
  cfg.admin = admin_->id();
  return cfg;
}

std::unique_ptr<ExecutionReplica> SpiderSystem::build_exec_replica(GroupId g, std::size_t i) {
  std::vector<Site> sites = replica_sites(group_regions_.at(g), group_members_.at(g).size());
  world_.name_node(group_members_.at(g)[i],
                   std::string("exec-") + region_name(group_regions_.at(g)) + "/g" +
                       std::to_string(g) + "/" + std::to_string(i));
  return std::make_unique<ExecutionReplica>(world_, sites[i], exec_config(g, i),
                                            topo_.make_app());
}

std::vector<std::unique_ptr<ExecutionReplica>> SpiderSystem::build_group(GroupId g) {
  std::vector<std::unique_ptr<ExecutionReplica>> replicas;
  const std::size_t n = group_members_.at(g).size();
  for (std::size_t i = 0; i < n; ++i) replicas.push_back(build_exec_replica(g, i));
  return replicas;
}

void SpiderSystem::add_peer_groups(GroupId g, ExecutionReplica& r) const {
  for (const auto& [g2, ids] : group_members_) {
    if (g2 != g) r.add_peer_group(g2, ids);
  }
}

void SpiderSystem::wire_checkpoint_peers() {
  for (auto& [g, reps] : groups_) {
    for (auto& r : reps) {
      if (r) add_peer_groups(g, *r);
    }
  }
}

std::vector<NodeId> SpiderSystem::agreement_ids() const { return agreement_ids_; }

std::vector<GroupId> SpiderSystem::group_ids() const {
  std::vector<GroupId> ids;
  for (const auto& [g, _] : groups_) ids.push_back(g);
  return ids;
}

ClientGroupInfo SpiderSystem::group_info(GroupId g) const {
  ClientGroupInfo info;
  info.group = g;
  info.fe = topo_.fe;
  info.members = group_members_.at(g);
  return info;
}

GroupId SpiderSystem::nearest_group(Region r) const {
  GroupId best = group_regions_.begin()->first;
  Duration best_rtt = region_rtt(r, group_regions_.begin()->second);
  for (const auto& [g, reg] : group_regions_) {
    Duration rtt = region_rtt(r, reg);
    if (rtt < best_rtt) {
      best = g;
      best_rtt = rtt;
    }
  }
  return best;
}

std::unique_ptr<SpiderClient> SpiderSystem::make_client(Site site) {
  auto c = std::make_unique<SpiderClient>(world_, site, group_info(nearest_group(site.region)),
                                          topo_.client_retry);
  world_.name_node(c->id(), std::string("client-") + region_name(site.region) + "/" +
                                std::to_string(c->id()));
  return c;
}

SpiderClient& SpiderSystem::admin() { return *admin_; }

GroupId SpiderSystem::add_group(Region region, std::function<void()> done) {
  GroupId g = next_group_id_++;
  std::vector<NodeId> ids;
  for (std::size_t i = 0; i < 2 * topo_.fe + 1u; ++i) ids.push_back(world_.allocate_id());
  group_members_[g] = ids;
  group_regions_[g] = region;
  groups_[g] = build_group(g);
  wire_checkpoint_peers();

  ReconfigCmd cmd{true, g, region, ids};
  admin_->reconfig(cmd, [done = std::move(done)](Bytes, Duration) {
    if (done) done();
  });
  return g;
}

void SpiderSystem::remove_group(GroupId g, std::function<void()> done) {
  ReconfigCmd cmd{false, g, group_region(g), {}};
  admin_->reconfig(cmd, [this, g, done = std::move(done)](Bytes, Duration) {
    groups_.erase(g);
    group_regions_.erase(g);
    group_members_.erase(g);
    if (done) done();
  });
}

// ---------------------------------------------------------- crash-recovery

bool SpiderSystem::crash_node(NodeId id) {
  for (std::size_t i = 0; i < agreement_ids_.size(); ++i) {
    if (agreement_ids_[i] == id) {
      agreement_[i].reset();
      return true;
    }
  }
  for (auto& [g, ids] : group_members_) {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (ids[i] == id) {
        groups_.at(g)[i].reset();
        return true;
      }
    }
  }
  return false;
}

bool SpiderSystem::restart_node(NodeId id) {
  for (std::size_t i = 0; i < agreement_ids_.size(); ++i) {
    if (agreement_ids_[i] == id) {
      if (agreement_[i]) return true;  // already running
      agreement_[i] =
          std::make_unique<AgreementReplica>(world_, agreement_sites_[i], agreement_config(i));
      agreement_[i]->recover();
      return true;
    }
  }
  for (auto& [g, ids] : group_members_) {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (ids[i] == id) {
        auto& slot = groups_.at(g)[i];
        if (slot) return true;
        slot = build_exec_replica(g, i);
        add_peer_groups(g, *slot);
        return true;
      }
    }
  }
  return false;
}

bool SpiderSystem::is_crashed(NodeId id) const {
  for (std::size_t i = 0; i < agreement_ids_.size(); ++i) {
    if (agreement_ids_[i] == id) return agreement_[i] == nullptr;
  }
  for (const auto& [g, ids] : group_members_) {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (ids[i] == id) return groups_.at(g)[i] == nullptr;
    }
  }
  return false;
}

std::vector<ReplicaGroup> SpiderSystem::replica_groups() const {
  std::vector<ReplicaGroup> groups = {{agreement_ids_, topo_.fa, true}};
  for (const auto& [g, members] : group_members_) groups.push_back({members, topo_.fe, false});
  return groups;
}

}  // namespace spider
