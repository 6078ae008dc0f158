// Spider agreement replica (paper Fig. 17).
//
// Pulls client requests out of per-group request channels, feeds them into
// the consensus black box (PBFT), and pushes the totally ordered Execute
// stream into every execution group's commit channel. Implements the
// paper's global flow control: the agreement window (AG-WIN) advances only
// with stable agreement checkpoints, and a delivery is considered complete
// once ne - z commit channels accepted it, so up to z trailing execution
// groups cannot stall the system (§3.5). Also hosts the execution-replica
// registry and applies AddGroup / RemoveGroup commands (§3.6).
#pragma once

#include <deque>
#include <map>
#include <set>

#include "consensus/pbft_replica.hpp"
#include "irmc/irmc.hpp"
#include "spider/checkpointer.hpp"
#include "spider/execution_replica.hpp"
#include "spider/messages.hpp"

namespace spider {

struct AgreementConfig {
  NodeId self = kInvalidNode;  // explicit id (kInvalidNode = allocate)
  std::vector<NodeId> members;  // 3fa+1 agreement replicas
  std::uint32_t my_index = 0;
  std::uint32_t fa = 1;
  IrmcKind irmc_kind = IrmcKind::ReceiverCollect;
  std::uint64_t ka = 16;                 // agreement checkpoint interval (logical requests)
  std::uint64_t ag_win = 64;             // AG-WIN (>= ka; counts logical requests)
  std::uint64_t max_batch = 1;           // consensus requests per instance
  Duration batch_delay = 0;              // max wait for a batch to fill
  std::uint32_t z = 0;                   // trailing groups that may be skipped
  Position commit_capacity = 64;
  Duration request_timeout = 2 * kSecond;
  Duration view_change_timeout = 4 * kSecond;
  NodeId admin = kInvalidNode;           // only this client may reconfigure
  std::vector<RegistryEntry> initial_groups;
};

/// The agreement checkpoint image: the latest agreed counter per client,
/// the retained Execute history and the execution-replica registry.
template <template <class> class H = codec::Own>
struct AgreementImage {
  H<std::map<NodeId, std::uint64_t>> t;
  H<std::deque<ExecuteBatchMsg>> hist;
  H<RegistrySnapshot> registry;
  static auto fields(auto& m, auto&& f) {
    return f(m.t, codec::nested(m.hist), codec::nested(m.registry));
  }
};

class AgreementReplica : public ComponentHost {
 public:
  AgreementReplica(World& world, Site site, AgreementConfig cfg);

  /// Crash-recovery bootstrap: actively fetch the group's latest stable
  /// agreement checkpoint instead of waiting for the next periodic one
  /// (which may never come if client traffic stopped).
  void recover();

  // Introspection ---------------------------------------------------------
  [[nodiscard]] SeqNr ordered_seq() const { return sn_; }
  [[nodiscard]] PbftReplica& consensus() { return *pbft_; }
  [[nodiscard]] std::size_t group_count() const { return channels_.size(); }

 private:
  struct Channel {
    RegistryEntry info;
    std::unique_ptr<IrmcReceiverEndpoint> request_rx;
    std::unique_ptr<IrmcSenderEndpoint> commit_tx;
  };
  void setup_channel(const RegistryEntry& info, bool backfill);
  void remove_channel(GroupId g);
  void start_pull(GroupId g, Subchannel c);
  void start_pull_again(GroupId g, Subchannel c);
  bool validate_request(BytesView wire);

  void on_deliver(SeqNr first, const std::vector<Bytes>& batch);
  void process_queue();
  void handle_ordered(SeqNr first, const std::vector<Bytes>& batch);
  void dispatch_execute(const ExecuteBatchMsg& canonical, bool count_completions);
  ExecuteBatchMsg derive_for(GroupId g, const ExecuteBatchMsg& canonical) const;
  void trim_hist();
  void apply_reconfig(const ReconfigCmd& cmd);
  Bytes snapshot_state() const;
  void on_stable_checkpoint(SeqNr s, BytesView state);

  AgreementConfig cfg_;
  std::unique_ptr<PbftReplica> pbft_;
  std::unique_ptr<Checkpointer> checkpointer_;
  std::unique_ptr<TagHandler> registry_port_;
  std::map<GroupId, Channel> channels_;
  RegistrySnapshot registry_;

  SeqNr sn_ = 0;
  SeqNr win_hi_ = 0;  // upper bound of the agreement window
  std::map<NodeId, std::uint64_t> t_;       // latest agreed counter per client
  std::map<NodeId, std::uint64_t> t_plus_;  // next expected counter per client
  /// Recent Execute batches covering the last |commit window| logical
  /// sequence numbers; front is always a batch boundary so commit-channel
  /// window moves stay aligned with batch positions.
  std::deque<ExecuteBatchMsg> hist_;
  std::set<std::pair<GroupId, Subchannel>> pulling_;

  std::deque<std::pair<SeqNr, std::vector<Bytes>>> deliver_queue_;
  bool processing_ = false;
};

}  // namespace spider
