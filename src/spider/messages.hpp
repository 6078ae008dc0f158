// Spider protocol messages (paper Figures 15-17). Each lists its fields
// once (common/codec.hpp).
#pragma once

#include <vector>

#include "common/bytes.hpp"
#include "common/codec.hpp"
#include "common/ids.hpp"
#include "sim/topology.hpp"

namespace spider {

/// Operation categories a client can issue (paper §3.3) plus reconfiguration
/// commands handled by the agreement group (paper §3.6).
enum class OpKind : std::uint8_t {
  Write = 1,       // ordered, executed by all groups
  StrongRead = 2,  // ordered, executed only by the client's group
  WeakRead = 3,    // unordered fast path, never enters the agreement
  Reconfig = 4,    // AddGroup / RemoveGroup admin command
};

/// What flows through the commit channel for one sequence number.
enum class ExecuteKind : std::uint8_t {
  Full = 1,         // full request: execute it
  Placeholder = 2,  // strong read executed elsewhere: only consume (c, tc)
  Noop = 3,         // null request decided during fault handling
  Reconfig = 4,     // registry change applied by the agreement group
};

// An undefined kind would fall through to the write path everywhere, and an
// undefined region has no row in the latency tables (sim/topology.cpp).
template <>
struct codec::WireEnum<OpKind> {
  static constexpr OpKind first = OpKind::Write, last = OpKind::Reconfig;
};
template <>
struct codec::WireEnum<ExecuteKind> {
  static constexpr ExecuteKind first = ExecuteKind::Full, last = ExecuteKind::Reconfig;
};
template <>
struct codec::WireEnum<Region> {
  static constexpr Region first = Region::Virginia, last = static_cast<Region>(kNumRegions - 1);
};

/// The client-signed request core: <Write, w, c, tc>. The signature covers
/// exactly these bytes.
struct ClientRequest {
  OpKind kind = OpKind::Write;
  NodeId client = kInvalidNode;
  std::uint64_t counter = 0;  // tc
  Bytes op;                   // application operation (or reconfig command)
  static auto fields(auto& m, auto&& f) { return f(m.kind, m.client, m.counter, m.op); }
};

/// Client -> execution group frame: request core + client signature
/// (writes / strong reads) and a per-replica MAC appended on the wire.
struct ClientFrame {
  ClientRequest req;
  Bytes signature;  // empty for weak reads
  static auto fields(auto& m, auto&& f) { return f(codec::nested(m.req), m.signature); }
};

/// <Request, r, e>: what execution replicas push into the request channel.
struct RequestMsg {
  ClientFrame frame;
  GroupId origin = 0;  // execution group the client is attached to
  static auto fields(auto& m, auto&& f) { return f(codec::nested(m.frame), m.origin); }
};

struct ExecuteMsg {
  ExecuteKind kind = ExecuteKind::Noop;
  SeqNr seq = 0;
  GroupId origin = 0;         // group whose client issued the request
  NodeId client = kInvalidNode;
  std::uint64_t counter = 0;  // tc
  OpKind op_kind = OpKind::Write;
  Bytes op;                   // payload for Full
  static auto fields(auto& m, auto&& f) {
    return f(m.kind, m.seq, m.origin, m.client, m.counter, m.op_kind, m.op);
  }
};

/// Atomic unit flowing through a commit channel: every Execute decided by
/// one consensus instance, stored at the IRMC position of its first
/// sequence number. Execution replicas apply the whole batch in order
/// before answering clients or checkpointing, so positions — like the
/// flow-control windows above them — keep counting logical requests.
struct ExecuteBatchMsg {
  std::vector<ExecuteMsg> items;  // >= 1 entries with consecutive seqs

  [[nodiscard]] SeqNr first() const { return items.front().seq; }
  [[nodiscard]] SeqNr last() const { return items.back().seq; }
  [[nodiscard]] SeqNr size() const { return static_cast<SeqNr>(items.size()); }

  static auto fields(auto& m, auto&& f) { return f(codec::nested(m.items)); }
  void validate() const {
    if (items.empty()) throw SerdeError("empty execute batch");
  }
};

/// Replica -> client reply <Reply, u, tc>, MAC'd per client.
struct ReplyMsg {
  std::uint64_t counter = 0;
  Bytes result;
  bool weak = false;  // weakly consistent fast-path reply
  static auto fields(auto& m, auto&& f) { return f(m.counter, m.result, m.weak); }
};

/// Reconfiguration commands (payload of OpKind::Reconfig).
struct ReconfigCmd {
  bool add = true;  // true = AddGroup, false = RemoveGroup
  GroupId group = 0;
  Region region = Region::Virginia;
  std::vector<NodeId> members;
  static auto fields(auto& m, auto&& f) { return f(m.add, m.group, m.region, m.members); }
};

/// Execution-replica registry entry (paper §3.1): served by the agreement
/// group so clients can locate active execution groups.
struct RegistryEntry {
  GroupId group = 0;
  Region region = Region::Virginia;
  std::vector<NodeId> members;
  static auto fields(auto& m, auto&& f) { return f(m.group, m.region, m.members); }
};

struct RegistrySnapshot {
  std::uint64_t version = 0;
  std::vector<RegistryEntry> groups;
  static auto fields(auto& m, auto&& f) { return f(m.version, m.groups); }
};

}  // namespace spider
