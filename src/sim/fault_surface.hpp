// The fault surface of a replicated system: what a FaultPlan may crash,
// restart, cut off and turn Byzantine.
//
// Spider's unit of fault tolerance is the replica group spread over its own
// fault domains: one agreement group of 3fa+1 replicas that order, and one
// group of 2fe+1 replicas per execution site that only execute. A PBFT
// baseline is one group whose replicas both order and execute. A system
// states its groups once, here; FaultPlan(World&, FaultSurface&) binds its
// crash hooks to crash_node/restart_node, and randomize() draws every crash
// target, partition side and ≤f Byzantine set from these lists.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/ids.hpp"

namespace spider {

struct ReplicaGroup {
  std::vector<NodeId> members;
  std::uint32_t f = 0;  // Byzantine members the group tolerates
  bool orders = false;  // runs consensus; false = only executes
};

class FaultSurface {
 public:
  virtual ~FaultSurface() = default;

  /// Destroys the replica process with this id (volatile state is lost) or
  /// rebuilds it, recovering through the protocol. False for an unknown id.
  virtual bool crash_node(NodeId id) = 0;
  virtual bool restart_node(NodeId id) = 0;
  /// Every replica group with its f, in deployment order.
  [[nodiscard]] virtual std::vector<ReplicaGroup> replica_groups() const = 0;
  /// The sets a partition may cut off from the rest: by default the replica
  /// groups, since each group spans its own fault domains.
  [[nodiscard]] virtual std::vector<std::vector<NodeId>> partition_groups() const {
    std::vector<std::vector<NodeId>> sides;
    for (ReplicaGroup& g : replica_groups()) sides.push_back(std::move(g.members));
    return sides;
  }

  /// Every replica id, group by group: the order randomize() draws crash
  /// targets in.
  [[nodiscard]] std::vector<NodeId> replica_ids() const {
    std::vector<NodeId> ids;
    for (const ReplicaGroup& g : replica_groups()) {
      ids.insert(ids.end(), g.members.begin(), g.members.end());
    }
    return ids;
  }
};

}  // namespace spider
