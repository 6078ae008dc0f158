// Live-resharding wire formats (the §3.6 admin path made a runtime
// protocol).
//
// A range moves in two ordered admin operations: <MigrateOut, delta> at the
// losing shard cuts the moved keys out of every replica's application state
// and certifies them with fe+1 matching replies, then <MigrateIn, delta,
// state> at the gaining shard absorbs them. Both sides install the new map
// at commit time, so from that point their replicas answer foreign keys
// with a WrongShard redirect carrying the map — routers adopt it and
// re-route. Between Out committing and In committing the moved range is
// briefly unavailable (both shards redirect); that window is the migration
// pause the micro_reshard bench measures.
#pragma once

#include <optional>

#include "app/kvstore.hpp"
#include "shard/shard_map.hpp"

namespace spider {

/// System-operation opcode space: client ops whose first byte is >=
/// kSysOpBase are interpreted by the execution replica itself and never
/// reach the application. Applications must not define opcodes here.
constexpr std::uint8_t kSysOpBase = 0xF0;
constexpr std::uint8_t kSysOpMigrateOut = 0xF1;
constexpr std::uint8_t kSysOpMigrateIn = 0xF2;

inline bool is_sys_op(BytesView op) { return !op.empty() && op[0] >= kSysOpBase; }

/// <MigrateOut, delta>: ordered at the losing shard. Every execution
/// replica installs base -> new, extracts the moved range from its
/// application and replies with the serialized range state (so fe+1
/// matching replies certify the transferred bytes).
struct MigrateOutCmd {
  ShardMapDelta delta;
  static auto fields(auto& m, auto&& f) { return f(m.delta); }
};

/// <MigrateIn, delta, state>: ordered at the gaining shard. Replicas apply
/// the delta, absorb the certified range state, and start serving the range.
struct MigrateInCmd {
  ShardMapDelta delta;
  Bytes state;
  static auto fields(auto& m, auto&& f) { return f(m.delta, m.state); }
};

// ---- replies -------------------------------------------------------------
// All replies reuse the KV reply frame (KvReplyMsg: [u8 status][bytes body])
// so they survive kv_decode_reply: 1 = ok, 0 = failed (kv_reply(false)).
// Status 2 is the versioned WrongShard redirect whose body is the
// replica's current map.
constexpr std::uint8_t kWrongShardStatus = 2;

Bytes make_wrong_shard_reply(const ShardMap& map);
/// Decodes a redirect reply; nullopt when `reply` is not a valid redirect
/// (including Byzantine redirects carrying malformed tables).
std::optional<ShardMap> try_decode_wrong_shard(BytesView reply);

/// The body of an ok migration reply: the map version the replica
/// installed and, for MigrateOut, the extracted range (an encoded KvRange).
/// `ok` is the frame's status, not a body field.
struct MigrateReply {
  bool ok = false;
  std::uint64_t version = 0;
  Bytes state;
  static auto fields(auto& m, auto&& f) { return f(m.version, m.state); }
};
/// An ok reply; MigrateIn's carries no state.
Bytes make_migrate_reply(std::uint64_t new_version, BytesView state = {});
MigrateReply decode_migrate_reply(BytesView reply);

}  // namespace spider
