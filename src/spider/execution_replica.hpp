// Spider execution replica (paper Fig. 16).
//
// Hosts the application, answers clients through its ClientPort, forwards
// new requests into the request channel (per-client subchannels) and
// consumes the totally ordered Execute stream from the commit channel.
// Periodic execution checkpoints (app snapshot + reply cache) let trailing
// replicas — and newly added groups — catch up without replaying every
// request.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <set>

#include "app/application.hpp"
#include "irmc/irmc.hpp"
#include "shard/migration.hpp"
#include "sim/component.hpp"
#include "spider/checkpointer.hpp"
#include "spider/client_port.hpp"
#include "spider/messages.hpp"

namespace spider {

/// Channel tag scheme: one request + one commit channel per execution group.
constexpr std::uint32_t request_channel_tag(GroupId e) { return tags::kIrmc | (e << 1); }
constexpr std::uint32_t commit_channel_tag(GroupId e) { return tags::kIrmc | (e << 1) | 1; }

/// Per-client subchannel capacity of every request channel (paper Fig. 16,
/// L. 6).
inline constexpr Position kRequestCapacity = 2;

/// Group g's request channel (its 2fe+1 `members` -> the 3fa+1 `agreement`
/// replicas) and commit channel (the reverse), one definition for both
/// ends. fe follows from the group's size.
IrmcConfig request_channel(GroupId g, const std::vector<NodeId>& members,
                           const std::vector<NodeId>& agreement, std::uint32_t fa);
IrmcConfig commit_channel(GroupId g, const std::vector<NodeId>& members,
                          const std::vector<NodeId>& agreement, std::uint32_t fa,
                          Position capacity);

/// Appended to an execution checkpoint image (ReplicaImage) in resharding
/// deployments: the shard index served and the enforced map, encoded.
struct ShardTail {
  std::uint32_t shard_index = 0;
  BytesView map;
  static auto fields(auto& m, auto&& f) { return f(m.shard_index, m.map); }
};

struct ExecutionConfig {
  NodeId self = kInvalidNode;  // explicit id (kInvalidNode = allocate)
  GroupId group = 1;
  std::vector<NodeId> members;          // 2fe+1 including this replica
  std::vector<NodeId> agreement;        // 3fa+1 agreement replicas
  std::uint32_t fe = 1;
  std::uint32_t fa = 1;
  IrmcKind irmc_kind = IrmcKind::ReceiverCollect;
  std::uint64_t ke = 16;                // execution checkpoint interval (logical requests)
  Position commit_capacity = 64;        // >= ke + max_batch for liveness (paper §3.4)
  // Sharded deployments with live resharding: the partition table this
  // replica enforces and the shard index it answers for. Unset = no
  // ownership checks (standalone / statically sharded deployments).
  std::optional<ShardMap> shard_map;
  std::uint32_t shard_index = 0;
  // Only this client may order MigrateOut/MigrateIn system ops (the core's
  // admin client); kInvalidNode rejects all of them.
  NodeId admin = kInvalidNode;
};

class ExecutionReplica : public ComponentHost {
 public:
  ExecutionReplica(World& world, Site site, ExecutionConfig cfg,
                   std::unique_ptr<Application> app);

  /// Peers in other execution groups usable for cross-group checkpoint
  /// fetch (paper §3.5); normally populated from the registry.
  void add_checkpoint_peers(const std::vector<NodeId>& peers);

  // Introspection ---------------------------------------------------------
  [[nodiscard]] SeqNr executed_seq() const { return sn_; }
  [[nodiscard]] GroupId group() const { return cfg_.group; }
  [[nodiscard]] const Application& app() const { return *app_; }
  [[nodiscard]] std::uint64_t checkpoints_taken() const { return checkpoints_; }
  [[nodiscard]] std::uint64_t catchups() const { return catchups_; }
  [[nodiscard]] const std::optional<ShardMap>& shard_map() const { return map_; }
  [[nodiscard]] std::uint64_t migrations() const { return migrations_; }

  /// Reply cache entry u[c]; its field list is the image's entry format.
  struct ReplyCacheEntry {
    std::uint64_t counter = 0;
    Bytes result;
    bool placeholder = false;  // strong read executed by another group
    static auto fields(auto& m, auto&& f) { return f(m.counter, m.placeholder, m.result); }
  };

 private:
  void handle_request(ClientFrame frame);
  void request_next_execute();
  void process_batch(const ExecuteBatchMsg& batch);
  void process_execute(const ExecuteMsg& x);
  bool owns_keys(BytesView op) const;
  Bytes execute_sys_op(NodeId client, BytesView op);
  Bytes migrate_out(const MigrateOutCmd& cmd);
  Bytes migrate_in(const MigrateInCmd& cmd);
  void maybe_checkpoint();
  Bytes snapshot_state() const;
  void apply_state(SeqNr s, BytesView state);
  void on_stable_checkpoint(SeqNr s, BytesView state);

  ExecutionConfig cfg_;
  std::unique_ptr<Application> app_;
  std::unique_ptr<ClientPort> port_;
  std::unique_ptr<IrmcSenderEndpoint> request_tx_;
  std::unique_ptr<IrmcReceiverEndpoint> commit_rx_;
  std::unique_ptr<Checkpointer> checkpointer_;

  SeqNr sn_ = 0;
  SeqNr last_cp_ = 0;  // seq of the newest checkpoint (taken or adopted)
  std::map<NodeId, std::uint64_t> t_;            // latest forwarded counter per client
  std::map<NodeId, ReplyCacheEntry> replies_;    // reply cache u[c]
  std::shared_ptr<std::set<NodeId>> trusted_peers_;  // other groups' members
  bool waiting_checkpoint_ = false;
  std::uint64_t checkpoints_ = 0;
  std::uint64_t catchups_ = 0;
  // Live-resharding state. map_ tracks the table this replica enforces;
  // cut_checkpoint_ forces a checkpoint right after the batch that carried
  // a migration op, so the range cut/adopt is immediately certified and
  // recoverable through the normal checkpoint state-transfer path.
  std::optional<ShardMap> map_;
  std::uint32_t shard_index_ = 0;
  bool cut_checkpoint_ = false;
  std::uint64_t migrations_ = 0;
};

}  // namespace spider
