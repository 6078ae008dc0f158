// Baseline "HFT": hierarchical fault tolerance in the shape of Steward
// (Amir et al., paper §2.2 and Figure 1b).
//
// Each geographic site hosts a cluster of 3f+1 replicas. Site-internal
// rounds produce threshold-style certificates (f+1 partial signatures —
// our substitution for Shoup threshold RSA, same WAN message complexity),
// which turn each site into a logically crash-only entity. The wide-area
// protocol is leader-site based:
//
//   client -> local site: Update certificate        (local round)
//   local site rep -> leader site rep               (WAN)
//   leader site: Proposal certificate (assign seq)  (local round)
//   leader rep -> all site reps                     (WAN broadcast)
//   each site: Accept certificate                   (local round)
//   site reps exchange Accepts                      (WAN broadcast)
//   majority of site Accepts -> globally ordered -> execute + reply locally
//
// Simplifications vs. full Steward: fixed site representatives, no
// hierarchical view changes, no state transfer — the baseline is evaluated
// fault-free, exactly as in the paper's latency experiments.
#pragma once

#include <map>
#include <memory>
#include <set>

#include "app/application.hpp"
#include "app/kvstore.hpp"
#include "crypto/sha256.hpp"
#include "sim/component.hpp"
#include "spider/client.hpp"
#include "spider/client_port.hpp"
#include "spider/messages.hpp"

namespace spider {

struct HftConfig {
  std::vector<Region> site_regions = {Region::Virginia, Region::Oregon, Region::Ireland,
                                      Region::Tokyo};
  std::uint32_t f = 1;          // per-site Byzantine faults
  std::uint32_t leader_site = 0;
  std::function<std::unique_ptr<Application>()> make_app = [] {
    return std::make_unique<KvStore>();
  };
};

class HftSystem;

// ---- wire formats: [hft::Kind][fields] inside a MAC'd [kHft] frame --------
namespace hft {

enum class Kind : std::uint8_t {
  SignReq = 1,   // rep -> site replicas: please sign `statement`
  Partial = 2,   // replica -> rep: signature share
  Update = 3,    // site rep -> leader rep: update certificate + frame
  Proposal = 4,  // leader rep -> site reps: seq assignment certificate
  Accept = 5,    // site rep -> site reps: accept certificate
  Commit = 6,    // rep -> own site replicas: execute
};

/// (signer, signature over the statement): a site certificate.
using Certificate = std::vector<std::pair<NodeId, Bytes>>;

/// SignReq <statement, frame it names> and Partial <statement, signature
/// share>: one list, only the type byte differs.
struct SignMsg {
  Bytes statement;
  Bytes data;
  static auto fields(auto& m, auto&& f) { return f(m.statement, m.data); }
};

/// Update and Proposal: a certified statement and the frame it names.
struct CertifiedMsg {
  Bytes statement;
  Bytes frame;
  Certificate sigs;
  static auto fields(auto& m, auto&& f) { return f(m.statement, m.frame, m.sigs); }
};

struct AcceptMsg {
  Bytes statement;
  Certificate sigs;
  static auto fields(auto& m, auto&& f) { return f(m.statement, m.sigs); }
};

struct CommitMsg {
  SeqNr seq = 0;
  Bytes frame;
  std::uint32_t origin = 0;  // site whose representative answers the client
  static auto fields(auto& m, auto&& f) { return f(m.seq, m.frame, m.origin); }
};

// Statements a site certifies: [Kind][fields], the kind being Update,
// Proposal or Accept. Each digest names the client frame being ordered.
struct UpdateStmt {
  std::uint32_t site = 0;
  Sha256Digest digest{};
  static auto fields(auto& m, auto&& f) { return f(m.site, m.digest); }
};

struct ProposalStmt {
  SeqNr seq = 0;
  std::uint32_t origin = 0;
  Sha256Digest digest{};
  static auto fields(auto& m, auto&& f) { return f(m.seq, m.origin, m.digest); }
};

struct AcceptStmt {
  std::uint32_t site = 0;
  SeqNr seq = 0;
  Sha256Digest digest{};
  static auto fields(auto& m, auto&& f) { return f(m.site, m.seq, m.digest); }
};

}  // namespace hft

class HftReplica : public ComponentHost {
 public:
  HftReplica(World& world, NodeId self, Site site, std::uint32_t site_id,
             std::uint32_t index_in_site, const HftConfig& cfg,
             std::vector<std::vector<NodeId>> site_members,
             std::unique_ptr<Application> app);

  [[nodiscard]] bool is_rep() const { return index_ == 0; }
  /// Steward uses (2f+1)-of-(3f+1) threshold signatures for site
  /// certificates; our certificate substitution keeps that quorum.
  [[nodiscard]] std::uint32_t threshold() const { return 2 * f_ + 1; }
  [[nodiscard]] SeqNr executed_seq() const { return executed_; }
  [[nodiscard]] const Application& app() const { return *app_; }

 private:
  struct PendingCert {
    Bytes statement;
    Bytes payload;                       // frame carried alongside
    std::map<NodeId, Bytes> sigs;        // collected partials
    bool completed = false;
  };

  void handle_request(const ClientFrame& frame, BytesView body);
  void handle_site_frame(NodeId from, BytesView frame);
  void dispatch_site(NodeId from, BytesView body);
  /// MAC'd [kHft] frame to `to`; one addressed to this replica is handled
  /// in place.
  void send_site(NodeId to, BytesView body);
  void start_local_round(const Bytes& statement, const Bytes& payload);
  void handle_sign_req(NodeId from, BytesView fields);
  void handle_partial(NodeId from, BytesView fields);
  void on_certificate(const Bytes& statement, const Bytes& payload, hft::Certificate sigs);
  void handle_update(BytesView fields);
  void handle_proposal(BytesView fields);
  void handle_accept(BytesView fields);
  void handle_commit(NodeId from, BytesView fields);
  void try_execute();
  bool verify_cert(std::uint32_t site, BytesView statement, const hft::Certificate& sigs);

  std::uint32_t site_id_;
  std::uint32_t index_;
  std::uint32_t f_;
  std::uint32_t leader_site_;
  std::vector<std::vector<NodeId>> sites_;  // members per site (index 0 = rep)
  std::unique_ptr<Application> app_;
  std::unique_ptr<ClientPort> port_;
  std::unique_ptr<TagHandler> link_;  // [kHft] site-internal and WAN frames

  // Representative state.
  std::map<std::uint64_t, PendingCert> rounds_;  // statement key -> collection
  SeqNr next_seq_ = 1;                            // leader: next global seq
  struct Ordering {
    Bytes frame;
    std::uint32_t origin_site = 0;
    std::set<std::uint32_t> accepts;
    bool proposal_seen = false;
    bool committed = false;
  };
  std::map<SeqNr, Ordering> order_state_;

  // Execution state (all replicas).
  SeqNr executed_ = 0;
  std::map<SeqNr, std::pair<Bytes, std::uint32_t>> commit_buffer_;  // frame, origin
  std::map<NodeId, std::uint64_t> t_;
  std::map<NodeId, std::pair<std::uint64_t, Bytes>> replies_;
};

class HftSystem {
 public:
  HftSystem(World& world, HftConfig cfg);

  [[nodiscard]] std::size_t site_count() const { return sites_.size(); }
  HftReplica& replica(std::uint32_t site, std::uint32_t i) { return *sites_[site][i]; }

  /// Client info for the site nearest to `r` (2f+1... all 3f+1 site members;
  /// clients need f+1 matching replies).
  [[nodiscard]] ClientGroupInfo site_info(std::uint32_t site) const;
  [[nodiscard]] std::uint32_t nearest_site(Region r) const;
  std::unique_ptr<SpiderClient> make_client(Site site, Duration retry = 2 * kSecond);

 private:
  World& world_;
  HftConfig cfg_;
  std::vector<std::vector<std::unique_ptr<HftReplica>>> sites_;
};

}  // namespace spider
