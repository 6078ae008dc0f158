// Deployment builder: assembles a complete Spider system inside a World —
// one agreement group (3fa+1 replicas across availability zones) plus one
// execution group (2fe+1 replicas) per requested region — and offers
// helpers for clients and runtime reconfiguration.
#pragma once

#include <functional>
#include <map>
#include <memory>

#include "app/kvstore.hpp"
#include "sim/fault_surface.hpp"
#include "spider/agreement_replica.hpp"
#include "spider/client.hpp"
#include "spider/execution_replica.hpp"

namespace spider {

struct SpiderTopology {
  std::uint32_t fa = 1;
  std::uint32_t fe = 1;
  Region agreement_region = Region::Virginia;
  std::vector<Region> exec_regions = {Region::Virginia, Region::Oregon, Region::Ireland,
                                      Region::Tokyo};
  IrmcKind irmc_kind = IrmcKind::ReceiverCollect;

  std::uint64_t ka = 16;   // agreement checkpoint interval (logical requests)
  std::uint64_t ke = 16;   // execution checkpoint interval (logical requests)
  std::uint64_t ag_win = 64;
  /// Request batching on the ordered-write hot path: the PBFT leader packs
  /// up to `max_batch` requests into one consensus instance, waiting at
  /// most `batch_delay` for a batch to fill. Checkpoint intervals and
  /// flow-control windows keep counting logical requests, not batches.
  std::uint64_t max_batch = 1;
  Duration batch_delay = 0;
  Position commit_capacity = 64;
  std::uint32_t z = 0;     // trailing groups that may be skipped
  /// Rotates the agreement replicas' AZ assignment so the view-0 leader
  /// sits in a different availability zone (paper Fig. 7: "Leader in V-k").
  std::uint32_t agreement_az_rotation = 0;

  Duration request_timeout = 2 * kSecond;       // consensus liveness timer
  Duration view_change_timeout = 4 * kSecond;
  Duration client_retry = 2 * kSecond;

  /// First GroupId this deployment hands out. A sharded deployment gives
  /// every core a disjoint range so N cores coexist in one World without
  /// colliding on per-group channel/checkpoint tags (NodeIds are already
  /// disjoint: they come from the shared World allocator).
  GroupId first_group_id = 1;

  /// Live-resharding deployments: the partition table this core's execution
  /// replicas enforce and the shard index they answer for. Unset = no
  /// ownership checks (standalone cores and statically sharded deployments
  /// behave exactly as before).
  std::optional<ShardMap> shard_map;
  std::uint32_t shard_index = 0;

  /// Application factory (defaults to the KV store used in the paper).
  std::function<std::unique_ptr<Application>()> make_app = [] {
    return std::make_unique<KvStore>();
  };
};

/// Up-front sanity checks (run by the SpiderSystem constructor): throws
/// std::invalid_argument naming the offending field instead of letting a
/// nonsensical deployment misbehave downstream.
void validate_topology(const SpiderTopology& t);

/// Number of availability zones we model per region (paper §3.1: all major
/// regions have >= 3 AZs; Virginia has more and hosts the agreement group).
int az_count(Region r);
/// Nearby region used for extra fault domains in f=2 deployments (paper §5).
Region nearby_region(Region r);
/// Placement rule shared by all systems: up to four distinct AZs of the
/// home region, then AZs of the nearby region (additional fault domains).
std::vector<Site> geo_replica_sites(Region home, std::size_t n);

class SpiderSystem : public FaultSurface {
 public:
  SpiderSystem(World& world, SpiderTopology topology);

  // ---- structure --------------------------------------------------------
  [[nodiscard]] std::size_t agreement_size() const { return agreement_.size(); }
  AgreementReplica& agreement(std::size_t i) { return *agreement_[i]; }
  [[nodiscard]] std::vector<NodeId> agreement_ids() const;

  [[nodiscard]] std::vector<GroupId> group_ids() const;
  [[nodiscard]] std::size_t group_size(GroupId g) const { return groups_.at(g).size(); }
  ExecutionReplica& exec(GroupId g, std::size_t i) { return *groups_.at(g)[i]; }
  [[nodiscard]] ClientGroupInfo group_info(GroupId g) const;
  [[nodiscard]] GroupId nearest_group(Region r) const;
  [[nodiscard]] Region group_region(GroupId g) const { return group_regions_.at(g); }

  // ---- clients -----------------------------------------------------------
  /// Creates a client at `site` attached to the nearest execution group.
  std::unique_ptr<SpiderClient> make_client(Site site);

  // ---- fault surface ------------------------------------------------------
  /// Crashes the replica process with the given id: the object is
  /// destroyed, so all volatile state (app state, logs, IRMC endpoint
  /// state, timers) is lost; messages in flight to it are dropped.
  /// Returns false if no replica of this deployment has that id.
  bool crash_node(NodeId id) override;
  /// Rebuilds a crashed replica under the same NodeId/site. The fresh
  /// process re-initializes through the checkpoint/state-transfer path
  /// (fetch_cp / commit-channel replay / PBFT view rejoin). It reads the
  /// same World::byzantine(id) entry, so scheduled misbehaviour resumes.
  bool restart_node(NodeId id) override;
  [[nodiscard]] bool is_crashed(NodeId id) const;
  /// The agreement group (fa, orders), then each execution group (fe).
  [[nodiscard]] std::vector<ReplicaGroup> replica_groups() const override;

  // ---- runtime reconfiguration (paper §3.6) ------------------------------
  /// Starts 2fe+1 replicas in `region` and submits <AddGroup> through the
  /// admin client; cb fires when the reconfiguration has been agreed.
  GroupId add_group(Region region, std::function<void()> done = {});
  /// Submits <RemoveGroup>; replicas are shut down once agreed.
  void remove_group(GroupId g, std::function<void()> done = {});

  /// The privileged admin client (created lazily, attached to group 1).
  SpiderClient& admin();

  [[nodiscard]] World& world() { return world_; }
  [[nodiscard]] const SpiderTopology& topology() const { return topo_; }
  /// Next GroupId this deployment would hand out (sharded builders use it
  /// to police their per-core GroupId ranges).
  [[nodiscard]] GroupId next_group_id() const { return next_group_id_; }

 private:
  std::vector<Site> replica_sites(Region home, std::size_t n) const;
  AgreementConfig agreement_config(std::size_t i) const;
  ExecutionConfig exec_config(GroupId g, std::size_t i) const;
  std::unique_ptr<ExecutionReplica> build_exec_replica(GroupId g, std::size_t i);
  /// Builds a whole execution group from the stored identity
  /// (group_members_/group_regions_ must already hold the group).
  std::vector<std::unique_ptr<ExecutionReplica>> build_group(GroupId g);
  /// Registers every other execution group as a checkpoint peer group of
  /// r, a replica of group g (paper §3.5).
  void add_peer_groups(GroupId g, ExecutionReplica& r) const;
  void wire_checkpoint_peers();

  World& world_;
  SpiderTopology topo_;
  // Identity (NodeIds, sites, membership) is kept separately from the live
  // objects: a crashed replica leaves a nullptr slot, and a restart
  // rebuilds the object from the stored identity.
  std::vector<NodeId> agreement_ids_;
  std::vector<Site> agreement_sites_;
  std::vector<RegistryEntry> initial_entries_;
  std::map<GroupId, std::vector<NodeId>> group_members_;
  std::vector<std::unique_ptr<AgreementReplica>> agreement_;
  std::map<GroupId, std::vector<std::unique_ptr<ExecutionReplica>>> groups_;
  std::map<GroupId, Region> group_regions_;
  GroupId next_group_id_ = 1;
  std::unique_ptr<SpiderClient> admin_;
};

}  // namespace spider
