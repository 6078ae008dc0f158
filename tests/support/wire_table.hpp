// Every wire message and checkpoint image the codec covers, as two tables
// for the codec tests:
//
//   - samples(): one sample of each type, for known-answer, prefix,
//     trailing-byte and hostile-count checks;
//   - Decoder: the (tag family, type byte) -> decoder table. It checks
//     that a captured frame [tag][message][auth trailer] decodes and encodes
//     back to itself, and does the same for what it carries (IRMC payloads,
//     HFT statements, client operations, KV and migration replies, redirect
//     tables, checkpoint proofs and images).
//
// Nothing in src/ dispatches through these tables: each component reads its
// own tag and type byte. They are the entry list for hostile-input tests.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "app/kvstore.hpp"
#include "baselines/bft_system.hpp"
#include "baselines/hft_system.hpp"
#include "common/codec.hpp"
#include "consensus/pbft_messages.hpp"
#include "crypto/provider.hpp"
#include "irmc/messages.hpp"
#include "shard/migration.hpp"
#include "sim/component.hpp"
#include "spider/agreement_replica.hpp"
#include "spider/checkpointer.hpp"
#include "spider/execution_replica.hpp"
#include "spider/messages.hpp"

namespace spider::wire {

inline constexpr int kNoType = -1;

struct Sample {
  std::string name;  // "<family>.<type>"
  int type;          // type byte written in front of the fields, or kNoType
  Bytes fields;      // codec::encode(sample)
  /// codec::encode(codec::decode<M>(b)); throws SerdeError on non-canonical b.
  std::function<Bytes(BytesView)> reencode;
  /// Offset in `fields` of the first list count, for list-bearing types.
  std::size_t list_at = std::string::npos;
};

template <class M>
Sample sample(std::string name, int type, const M& m, std::size_t list_at = std::string::npos) {
  return Sample{std::move(name), type, codec::encode(m),
                [](BytesView b) { return codec::encode(codec::decode<M>(b)); }, list_at};
}

/// One sample of every in-scope message type.
inline std::vector<Sample> samples() {
  using irmc::MsgType;
  const Sha256Digest dg = Sha256::hash(to_bytes(std::string("sample")));
  const auto t = [](auto type) { return static_cast<int>(type); };

  const ClientRequest req{OpKind::Write, 77, 5, Bytes{0x10, 0x20, 0x30}};
  const ClientFrame frame{req, Bytes(8, 0x5c)};
  const ExecuteMsg x1{ExecuteKind::Full, 12, 1, 77, 5, OpKind::Write, Bytes{0x10, 0x20}};
  const ExecuteMsg x2{ExecuteKind::Placeholder, 13, 2, 78, 9, OpKind::StrongRead, {}};
  const RegistryEntry e1{2, Region::Tokyo, {20, 21, 22}};
  const RegistryEntry e2{5, Region::Seoul, {}};
  const pbft::PrepareMsg prepare{1, 9, dg, 2};
  const pbft::PreparedProof pp1{9, 1, {Bytes{4, 5}}};
  const pbft::PreparedProof pp2{10, 1, {}};
  const ShardMapDelta delta{4, 5, 100, 0, 1};
  const Bytes sig_a(4, 0xaa);
  const Bytes sig_b(3, 0xbb);
  const Bytes sig1(5, 0x11);
  const Bytes sig3(5, 0x33);
  const CheckpointProof proof{{{1, sig1}, {3, sig3}}};
  const Bytes proof_bytes = codec::encode(proof);
  const Bytes state{0xde, 0xad};

  const Bytes v1{1};
  const Bytes v23{2, 3};
  const Bytes v123{1, 2, 3};
  const Bytes v98{9, 8};
  const Bytes v34{3, 4};
  const Bytes payload{0x10, 0x20};
  const hft::Certificate cert{{4, sig_a}, {6, sig_b}};
  const Bytes update_st = codec::encode(hft::Kind::Update, hft::UpdateStmt{1, dg});
  const Bytes proposal_st = codec::encode(hft::Kind::Proposal, hft::ProposalStmt{9, 1, dg});
  const Bytes accept_st = codec::encode(hft::Kind::Accept, hft::AcceptStmt{2, 9, dg});
  const Bytes kv_image = codec::encode(KvImage{2, {{"x", v1}, {"y", v23}}});

  return {
      sample("irmc.Send", t(MsgType::Send), irmc::SendMsg{7, 42, Bytes{1, 2, 3, 4}}),
      sample("irmc.SendMove", t(MsgType::SendMove), irmc::SendMsgView{7, 42, Bytes{1, 2, 3, 4}}),
      sample("irmc.Move", t(MsgType::Move), irmc::MoveMsg{5, 17}),
      sample("irmc.Nack", t(MsgType::Nack), irmc::NackMsg{{{1, 5}, {7, 1}, {4096, 12}}}, 0),
      sample("irmc.Windows", t(MsgType::Windows), irmc::WindowsMsg{{{2, 3}, {9, 10}}}, 0),
      sample("irmc.SigShare", t(MsgType::SigShare), irmc::SigShareMsg{3, 8, dg}),
      sample("irmc.Certificate", t(MsgType::Certificate),
             irmc::CertificateMsg{3, 8, Bytes{9, 9, 9}, {{0, sig_a}, {2, sig_b}}}, 8 + 8 + 4 + 3),
      sample("irmc.CertificateView", t(MsgType::Certificate),
             irmc::CertificateMsgView{3, 8, Bytes{9, 9, 9}, {{0, sig_a}, {2, sig_b}}},
             8 + 8 + 4 + 3),
      sample("irmc.Progress", t(MsgType::Progress), irmc::ProgressMsg{{{0, 4}, {11, 2}}}, 0),
      sample("irmc.Select", t(MsgType::Select), irmc::SelectMsg{6, 2}),

      sample("spider.ClientRequest", kNoType, req),
      sample("spider.ClientFrame", kNoType, frame),
      sample("spider.RequestMsg", kNoType, RequestMsg{frame, 3}),
      sample("spider.ExecuteMsg", kNoType, x1),
      sample("spider.ExecuteBatchMsg", kNoType, ExecuteBatchMsg{{x1, x2}}, 0),
      sample("spider.ReplyMsg", kNoType, ReplyMsg{5, Bytes{1, 2}, true}),
      sample("spider.ReconfigCmd", kNoType, ReconfigCmd{true, 4, Region::SaoPaulo, {10, 11, 12}},
             1 + 4 + 1),
      sample("spider.RegistryEntry", kNoType, e1, 4 + 1),
      sample("spider.RegistrySnapshot", kNoType, RegistrySnapshot{3, {e1, e2}}, 8),

      sample("pbft.PrePrepare", t(pbft::MsgType::PrePrepare),
             pbft::PrePrepareMsg{1, 9, {Bytes{1, 2}, Bytes{}, Bytes{3}}}, 8 + 8),
      sample("pbft.Prepare", t(pbft::MsgType::Prepare), prepare),
      sample("pbft.Commit", t(pbft::MsgType::Commit), prepare),
      sample("pbft.PreparedProof", kNoType, pp1, 8 + 8),
      sample("pbft.ViewChange", t(pbft::MsgType::ViewChange),
             pbft::ViewChangeMsg{2, 8, 3, {pp1, pp2}}, 8 + 8 + 4),
      sample("pbft.NewView", t(pbft::MsgType::NewView), pbft::NewViewMsg{2, 8, 0, {pp2}},
             8 + 8 + 4),

      sample("shard.ShardMapDelta", kNoType, delta),
      sample("shard.MigrateOutCmd", kSysOpMigrateOut, MigrateOutCmd{delta}),
      sample("shard.MigrateInCmd", kSysOpMigrateIn, MigrateInCmd{delta, Bytes{7, 7}}),
      sample("shard.ShardMap", kNoType,
             ShardMap::uniform(3).with_delta(ShardMapDelta{1, 2, 100, 200, 2}), 8 + 4),

      sample("checkpoint.Checkpoint", t(CheckpointMsgType::Checkpoint), CheckpointMsg{16, dg}),
      sample("checkpoint.Fetch", t(CheckpointMsgType::Fetch), FetchMsg{16}),
      sample("checkpoint.Proof", kNoType, proof, 0),
      sample("checkpoint.State", t(CheckpointMsgType::State), StateMsg{16, state, proof_bytes}),

      sample("kv.KvKeyOp", t(KvOp::Put), KvKeyOp{"key", v123}),
      sample("kv.KvMGetOp", t(KvOp::MGet), KvMGetOp{{"a", "bc"}}, 0),
      sample("kv.KvMPutOp", t(KvOp::MPut), KvMPutOp{{{"a", v1}, {"bc", v23}}}, 0),
      sample("kv.KvReplyMsg", kNoType, KvReplyMsg{1, v98}),
      sample("kv.KvMgetReply", kNoType, KvMgetReply{1, {{true, v1}, {false, {}}}}, 8),
      sample("kv.KvMputReply", kNoType, KvMputReply{true, 2}),
      sample("kv.KvImage", kNoType, codec::decode<KvImage>(kv_image), 8),
      sample("kv.KvRange", kNoType, KvRange{{{"a", v1}, {"c", v34}}}, 0),
      sample("shard.MigrateReply", kNoType, MigrateReply{true, 5, Bytes{7, 7}}),

      sample("hft.UpdateStmt", t(hft::Kind::Update), hft::UpdateStmt{1, dg}),
      sample("hft.ProposalStmt", t(hft::Kind::Proposal), hft::ProposalStmt{9, 1, dg}),
      sample("hft.AcceptStmt", t(hft::Kind::Accept), hft::AcceptStmt{2, 9, dg}),
      sample("hft.SignReq", t(hft::Kind::SignReq), hft::SignMsg{update_st, payload}),
      sample("hft.Partial", t(hft::Kind::Partial), hft::SignMsg{update_st, sig_a}),
      sample("hft.Update", t(hft::Kind::Update), hft::CertifiedMsg{update_st, payload, cert},
             4 + update_st.size() + 4 + payload.size()),
      sample("hft.Proposal", t(hft::Kind::Proposal),
             hft::CertifiedMsg{proposal_st, payload, cert},
             4 + proposal_st.size() + 4 + payload.size()),
      sample("hft.Accept", t(hft::Kind::Accept), hft::AcceptMsg{accept_st, cert},
             4 + accept_st.size()),
      sample("hft.Commit", t(hft::Kind::Commit), hft::CommitMsg{9, payload, 1}),

      sample("image.Exec", kNoType,
             ReplicaImage<ExecutionReplica::ReplyCacheEntry>{
                 {{77, {5, Bytes{1, 2}, false}}, {78, {9, {}, true}}}, kv_image},
             0),
      sample("image.ShardTail", kNoType, ShardTail{1, codec::encode(ShardMap::uniform(2))}),
      sample("image.Agreement", kNoType,
             AgreementImage<>{{{77, 5}, {78, 9}},
                              {ExecuteBatchMsg{{x1}}, ExecuteBatchMsg{{x2}}},
                              RegistrySnapshot{3, {e1}}},
             0),
      sample("image.Bft", kNoType,
             ReplicaImage<BftReplica::ReplyCacheEntry>{{{77, {5, Bytes{1, 2}}}}, kv_image}, 0),
  };
}

/// Who receives a captured frame: a client, or a replica of a kind whose
/// checkpoint image format the decoder must know.
enum class To { Client, Agreement, Exec, Bft, Hft };

/// The (tag family, type byte) -> decoder table for captured frames.
class Decoder {
 public:
  explicit Decoder(const CryptoProvider& crypto)
      : mac_(crypto.mac_size()), sig_(crypto.signature_size()) {}

  /// Forgets the requests of the previous capture (node ids and counters
  /// restart with every World).
  void begin_capture() { requests_.clear(); }

  /// Checks one frame sent to node `to`, whose role is `role`. Frames are
  /// fed in send order, so a reply's request has been seen before it.
  void frame(BytesView wire, NodeId to, To role) {
    Reader r(wire);
    const std::uint32_t tag = r.u32();
    const BytesView rest = r.raw(r.remaining());
    const std::uint32_t family = tag & 0xff000000u;
    try {
      if (family == tags::kClient) {
        const BytesView body = strip(rest, mac_);
        if (role == To::Client) {
          reply(to, round_trip<ReplyMsg>("spider.ReplyMsg", body));
        } else {
          client_frame(round_trip<ClientFrame>("spider.ClientFrame", body));
        }
      } else if (family == tags::kRegistry) {
        // Queries carry no body; answers are MAC'd snapshots.
        if (role == To::Client) {
          seen["spider.RegistryEntry"] +=
              round_trip<RegistrySnapshot>("spider.RegistrySnapshot", strip(rest, mac_))
                  .groups.size();
        }
      } else if (family == tags::kIrmc) {
        irmc_frame(tag, rest);
      } else if (family == tags::kPbft) {
        pbft_frame(rest);
      } else if (family == tags::kCheckpoint) {
        checkpoint_frame(rest, role);
      } else if (family == tags::kHft) {
        hft_frame(strip(rest, mac_));
      }
    } catch (const SerdeError& e) {
      fail(std::string("tag ") + std::to_string(tag) + ": " + e.what());
    }
  }

  /// Message type -> instances that round-tripped.
  std::map<std::string, std::size_t> seen;
  /// The first few failures, for the test's message.
  std::vector<std::string> failures;
  std::size_t failed = 0;

 private:
  static BytesView strip(BytesView v, std::size_t trailer) {
    if (v.size() < trailer) throw SerdeError("frame shorter than its trailer");
    return v.first(v.size() - trailer);
  }

  void fail(std::string what) {
    if (failures.size() < 8) failures.push_back(std::move(what));
    ++failed;
  }

  /// Decodes `b` as M, checks that it encodes back to `b`, and counts it.
  template <class M>
  M round_trip(const std::string& name, BytesView b) {
    M m = codec::decode<M>(b);
    if (!bytes_equal(codec::encode(m), b)) throw SerdeError(name + " re-encodes differently");
    ++seen[name];
    return m;
  }

  /// As round_trip, for [type][fields] messages.
  template <class M>
  M typed(const std::string& name, BytesView b) {
    if (b.empty()) throw SerdeError(name + " without a type byte");
    M m = round_trip<M>(name, b.subspan(1));
    if (!bytes_equal(codec::encode(b[0], m), b)) throw SerdeError(name + " type byte changed");
    return m;
  }

  void irmc_frame(std::uint32_t tag, BytesView rest) {
    using irmc::MsgType;
    if (rest.empty()) throw SerdeError("empty IRMC frame");
    const auto type = static_cast<MsgType>(rest[0]);
    // Even channel tags are request channels, odd ones commit channels
    // (spider/execution_replica.hpp).
    const bool request_channel = (tag & 1u) == 0;
    switch (type) {
      case MsgType::Send:
      case MsgType::SendMove: {
        const char* name = type == MsgType::Send ? "irmc.Send" : "irmc.SendMove";
        channel_payload(request_channel, typed<irmc::SendMsgView>(name, strip(rest, sig_)).payload);
        break;
      }
      case MsgType::Certificate:
        channel_payload(request_channel,
                        typed<irmc::CertificateMsgView>("irmc.Certificate", strip(rest, sig_))
                            .payload);
        break;
      case MsgType::SigShare: typed<irmc::SigShareMsg>("irmc.SigShare", strip(rest, sig_)); break;
      case MsgType::Move: typed<irmc::MoveMsg>("irmc.Move", strip(rest, mac_)); break;
      case MsgType::Progress: typed<irmc::ProgressMsg>("irmc.Progress", strip(rest, mac_)); break;
      case MsgType::Select: typed<irmc::SelectMsg>("irmc.Select", strip(rest, mac_)); break;
      case MsgType::Nack: typed<irmc::NackMsg>("irmc.Nack", strip(rest, mac_)); break;
      case MsgType::Windows: typed<irmc::WindowsMsg>("irmc.Windows", strip(rest, mac_)); break;
      default: throw SerdeError("unknown IRMC type");
    }
  }

  void channel_payload(bool request_channel, BytesView payload) {
    if (request_channel) {
      client_frame(round_trip<RequestMsg>("spider.RequestMsg", payload).frame);
    } else {
      execute_batch(round_trip<ExecuteBatchMsg>("spider.ExecuteBatchMsg", payload));
    }
  }

  void pbft_frame(BytesView rest) {
    using pbft::MsgType;
    if (rest.empty()) throw SerdeError("empty PBFT frame");
    switch (static_cast<MsgType>(rest[0])) {
      case MsgType::PrePrepare:
        typed<pbft::PrePrepareMsg>("pbft.PrePrepare", strip(rest, mac_));
        break;
      case MsgType::Prepare: typed<pbft::PrepareMsg>("pbft.Prepare", strip(rest, mac_)); break;
      case MsgType::Commit: typed<pbft::CommitMsg>("pbft.Commit", strip(rest, mac_)); break;
      case MsgType::ViewChange:
        seen["pbft.PreparedProof"] +=
            typed<pbft::ViewChangeMsg>("pbft.ViewChange", strip(rest, sig_)).prepared.size();
        break;
      case MsgType::NewView:
        seen["pbft.PreparedProof"] +=
            typed<pbft::NewViewMsg>("pbft.NewView", strip(rest, sig_)).proposals.size();
        break;
      default: throw SerdeError("unknown PBFT type");
    }
  }

  void checkpoint_frame(BytesView rest, To role) {
    if (rest.empty()) throw SerdeError("empty checkpoint frame");
    switch (static_cast<CheckpointMsgType>(rest[0])) {
      case CheckpointMsgType::Checkpoint:
        typed<CheckpointMsg>("checkpoint.Checkpoint", strip(rest, sig_));
        break;
      case CheckpointMsgType::Fetch: typed<FetchMsg>("checkpoint.Fetch", rest); break;
      case CheckpointMsgType::State: {
        const StateMsg m = typed<StateMsg>("checkpoint.State", rest);
        round_trip<CheckpointProof>("checkpoint.Proof", m.proof);
        image(role, m.state);
        break;
      }
      default: throw SerdeError("unknown checkpoint type");
    }
  }

  /// A checkpoint image, in the format of the replica kind receiving it.
  void image(To role, BytesView state) {
    switch (role) {
      case To::Agreement: round_trip<AgreementImage<>>("image.Agreement", state); break;
      case To::Bft:
        round_trip<KvImage>(
            "kv.KvImage",
            round_trip<ReplicaImage<BftReplica::ReplyCacheEntry>>("image.Bft", state).app);
        break;
      case To::Exec: {
        // [image][optional shard tail], read in parts as the replica does.
        using Image = ReplicaImage<ExecutionReplica::ReplyCacheEntry>;
        Reader r(state);
        Image head;
        codec::read(r, head);
        const BytesView tail = state.subspan(state.size() - r.remaining());
        round_trip<KvImage>("kv.KvImage",
                            round_trip<Image>("image.Exec", state.first(state.size() - tail.size()))
                                .app);
        if (!tail.empty()) {
          const ShardTail t = round_trip<ShardTail>("image.ShardTail", tail);
          round_trip<ShardMap>("shard.ShardMap", t.map);
        }
        break;
      }
      default: throw SerdeError("checkpoint state for a replica without checkpoints");
    }
  }

  void hft_frame(BytesView body) {
    using hft::Kind;
    if (body.empty()) throw SerdeError("empty HFT frame");
    switch (static_cast<Kind>(body[0])) {
      case Kind::SignReq: {
        const auto m = typed<hft::SignMsg>("hft.SignReq", body);
        statement(m.statement);
        if (!m.data.empty()) hft_client_frame(m.data);  // Accept rounds carry none
        break;
      }
      case Kind::Partial: statement(typed<hft::SignMsg>("hft.Partial", body).statement); break;
      case Kind::Update:
      case Kind::Proposal: {
        const bool update = static_cast<Kind>(body[0]) == Kind::Update;
        const auto m = typed<hft::CertifiedMsg>(update ? "hft.Update" : "hft.Proposal", body);
        statement(m.statement);
        hft_client_frame(m.frame);
        break;
      }
      case Kind::Accept: statement(typed<hft::AcceptMsg>("hft.Accept", body).statement); break;
      case Kind::Commit: hft_client_frame(typed<hft::CommitMsg>("hft.Commit", body).frame); break;
      default: throw SerdeError("unknown HFT type");
    }
  }

  void statement(BytesView st) {
    using hft::Kind;
    if (st.empty()) throw SerdeError("empty HFT statement");
    switch (static_cast<Kind>(st[0])) {
      case Kind::Update: typed<hft::UpdateStmt>("hft.UpdateStmt", st); break;
      case Kind::Proposal: typed<hft::ProposalStmt>("hft.ProposalStmt", st); break;
      case Kind::Accept: typed<hft::AcceptStmt>("hft.AcceptStmt", st); break;
      default: throw SerdeError("unknown HFT statement");
    }
  }

  void hft_client_frame(BytesView frame) {
    client_frame(round_trip<ClientFrame>("spider.ClientFrame", frame));
  }

  void client_frame(const ClientFrame& f) {
    ++seen["spider.ClientRequest"];
    // A direct-lane request is MAC'd only, and its reply sets `weak`.
    requests_[{f.req.client, f.req.counter, f.signature.empty()}] = {f.req.kind, f.req.op};
    operation(f.req.kind == OpKind::Reconfig, f.req.op);
  }

  void execute_batch(const ExecuteBatchMsg& batch) {
    for (const ExecuteMsg& x : batch.items) {
      ++seen["spider.ExecuteMsg"];
      if (x.kind == ExecuteKind::Reconfig || x.kind == ExecuteKind::Full) {
        operation(x.kind == ExecuteKind::Reconfig, x.op);
      }
    }
  }

  /// A client operation: a reconfiguration command, a migration command, or
  /// a KV operation.
  void operation(bool reconfig, BytesView op) {
    if (reconfig) {
      round_trip<ReconfigCmd>("spider.ReconfigCmd", op);
    } else if (is_sys_op(op)) {
      if (op[0] == kSysOpMigrateOut) {
        typed<MigrateOutCmd>("shard.MigrateOutCmd", op);
      } else if (op[0] == kSysOpMigrateIn) {
        round_trip<KvRange>("kv.KvRange", typed<MigrateInCmd>("shard.MigrateInCmd", op).state);
      } else {
        throw SerdeError("unknown system operation");
      }
      ++seen["shard.ShardMapDelta"];
    } else {
      switch (kv_kind(op)) {
        case KvOp::MGet: typed<KvMGetOp>("kv.KvMGetOp", op); break;
        case KvOp::MPut: typed<KvMPutOp>("kv.KvMPutOp", op); break;
        default: typed<KvKeyOp>("kv.KvKeyOp", op); break;
      }
    }
  }

  static KvOp kv_kind(BytesView op) {
    if (op.empty()) throw SerdeError("empty KV operation");
    return static_cast<KvOp>(op[0]);
  }

  /// A reply to `client`, decoded by the operation it answers.
  void reply(NodeId client, const ReplyMsg& m) {
    auto it = requests_.find({client, m.counter, m.weak});
    if (it == requests_.end()) throw SerdeError("reply to a request never captured");
    const auto& [kind, op] = it->second;
    if (kind == OpKind::Reconfig) {
      // The admin client's one non-KV reply.
      if (to_string(m.result) != "reconfig-ok") throw SerdeError("unexpected reconfig reply");
      return;
    }
    const KvReplyMsg frame = round_trip<KvReplyMsg>("kv.KvReplyMsg", m.result);
    if (frame.status == kWrongShardStatus) {
      round_trip<ShardMap>("shard.ShardMap", frame.body);
      return;
    }
    if (frame.status != 1) {
      if (frame.status != 0 || !frame.body.empty()) throw SerdeError("malformed failure reply");
      return;
    }
    if (is_sys_op(op)) {
      const MigrateReply r = round_trip<MigrateReply>("shard.MigrateReply", frame.body);
      if (op[0] == kSysOpMigrateOut) round_trip<KvRange>("kv.KvRange", r.state);
      return;
    }
    switch (kv_kind(op)) {
      case KvOp::Get: break;  // the body is the value
      case KvOp::Size: round_trip<std::uint64_t>("kv.Size", frame.body); break;
      case KvOp::MGet: round_trip<KvMgetReply>("kv.KvMgetReply", frame.body); break;
      case KvOp::MPut: round_trip<KvMputReply>("kv.KvMputReply", frame.body); break;
      default:
        if (!frame.body.empty()) throw SerdeError("Put/Del reply with a body");
        break;
    }
  }

  std::size_t mac_;
  std::size_t sig_;
  /// (client, counter, direct lane) -> (kind, operation) of every request seen.
  std::map<std::tuple<NodeId, std::uint64_t, bool>, std::pair<OpKind, Bytes>> requests_;
};

}  // namespace spider::wire
