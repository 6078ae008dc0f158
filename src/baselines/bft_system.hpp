// Baseline "BFT": traditional geo-replicated PBFT (paper §5, Figure 1a).
//
// 3f+1 replicas, one per geographic site, run the full consensus protocol
// over wide-area links. Doubles as:
//   - BFT-WV (weighted voting, WHEAT-style) via `weights`/`quorum_weight`
//     with 3f+1+Δ replicas, and
//   - Spider-0E (agreement group that also executes, no IRMC) by placing
//     all replicas in availability zones of a single region.
//
// Clients reuse the SpiderClient (signed requests to all replicas, f+1
// matching replies; weak reads answered from local state).
#pragma once

#include <map>
#include <memory>

#include "app/application.hpp"
#include "app/kvstore.hpp"
#include "consensus/pbft_replica.hpp"
#include "sim/fault_surface.hpp"
#include "spider/checkpointer.hpp"
#include "spider/client.hpp"
#include "spider/client_port.hpp"
#include "spider/messages.hpp"

namespace spider {

struct BftConfig {
  std::vector<Site> sites;  // one replica per entry; index 0 = view-0 leader
  std::uint32_t f = 1;
  std::vector<std::uint32_t> weights = {};  // empty = classic
  std::uint32_t quorum_weight = 0;     // 0 = 2f+1
  std::uint64_t checkpoint_interval = 32;  // counts logical requests
  std::uint64_t max_batch = 1;             // requests per consensus instance
  Duration batch_delay = 0;                // max wait for a batch to fill
  Duration request_timeout = 2 * kSecond;
  Duration view_change_timeout = 4 * kSecond;
  std::function<std::unique_ptr<Application>()> make_app = [] {
    return std::make_unique<KvStore>();
  };
};

class BftReplica : public ComponentHost {
 public:
  BftReplica(World& world, NodeId self, Site site, std::uint32_t index, const BftConfig& cfg,
             std::vector<NodeId> all, std::unique_ptr<Application> app);

  [[nodiscard]] SeqNr executed_seq() const { return sn_; }
  [[nodiscard]] const Application& app() const { return *app_; }
  PbftReplica& consensus() { return *pbft_; }

  /// Crash-recovery bootstrap: actively fetch the group's latest stable
  /// checkpoint instead of waiting for the next periodic broadcast (which
  /// may never come if client traffic stopped).
  void recover();

  /// Reply cache entry; its field list is the checkpoint image's entry format.
  struct ReplyCacheEntry {
    std::uint64_t counter = 0;
    Bytes result;
    static auto fields(auto& m, auto&& f) { return f(m.counter, m.result); }
  };

 private:
  void handle_request(const ClientFrame& frame, BytesView body);
  void on_deliver_batch(SeqNr first, const std::vector<Bytes>& batch);
  void apply_batch(SeqNr first, const std::vector<Bytes>& batch);
  void drain_stash();
  void execute_one(const Bytes& request);
  Bytes snapshot_state() const;
  void on_stable_checkpoint(SeqNr s, BytesView state);

  std::uint32_t f_;
  std::uint64_t checkpoint_interval_;
  SeqNr last_cp_ = 0;
  std::unique_ptr<Application> app_;
  std::unique_ptr<ClientPort> port_;
  std::unique_ptr<PbftReplica> pbft_;
  std::unique_ptr<Checkpointer> checkpointer_;

  SeqNr sn_ = 0;
  std::map<NodeId, std::uint64_t> t_;  // latest ordered counter per client
  std::map<NodeId, ReplyCacheEntry> replies_;
  /// Deliveries above an execution gap (the consensus floor jumped past
  /// instances this replica never executed, e.g. a view change while it
  /// trailed). Held back until a checkpoint covers the gap — executing
  /// them on stale state would silently diverge.
  std::map<SeqNr, std::vector<Bytes>> stash_;
};

class BftSystem : public FaultSurface {
 public:
  BftSystem(World& world, BftConfig cfg);

  [[nodiscard]] std::size_t size() const { return replicas_.size(); }
  BftReplica& replica(std::size_t i) { return *replicas_[i]; }

  /// Client info: all replicas, f+1 matching replies.
  [[nodiscard]] ClientGroupInfo client_info() const;
  std::unique_ptr<SpiderClient> make_client(Site site, Duration retry = 2 * kSecond);

  // ---- fault surface ------------------------------------------------------
  /// Destroys / rebuilds the replica process with this id (same semantics
  /// as SpiderSystem: volatile state is lost, recovery happens through the
  /// checkpoint protocol and PBFT view rejoin, Byzantine flags resume).
  bool crash_node(NodeId id) override;
  bool restart_node(NodeId id) override;
  [[nodiscard]] bool is_crashed(NodeId id) const;
  /// One group of f that orders and executes.
  [[nodiscard]] std::vector<ReplicaGroup> replica_groups() const override;
  /// One replica at a time: each replica sits at its own site.
  [[nodiscard]] std::vector<std::vector<NodeId>> partition_groups() const override;

 private:
  World& world_;
  BftConfig cfg_;
  std::vector<NodeId> ids_;
  std::vector<std::unique_ptr<BftReplica>> replicas_;
};

}  // namespace spider
