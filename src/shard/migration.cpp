#include "shard/migration.hpp"

namespace spider {

Bytes make_wrong_shard_reply(const ShardMap& map) {
  return codec::encode(KvReplyMsg{kWrongShardStatus, codec::encode(map)});
}

std::optional<ShardMap> try_decode_wrong_shard(BytesView reply) {
  const auto frame = codec::try_decode<KvReplyMsg>(reply);
  if (!frame || frame->status != kWrongShardStatus) return std::nullopt;
  return codec::try_decode<ShardMap>(frame->body);
}

Bytes make_migrate_reply(std::uint64_t new_version, BytesView state) {
  return kv_reply(true, codec::encode(MigrateReply{true, new_version, to_bytes(state)}));
}

MigrateReply decode_migrate_reply(BytesView reply) {
  const auto frame = codec::decode<KvReplyMsg>(reply);
  if (frame.status != 1) return {};
  MigrateReply out = codec::decode<MigrateReply>(frame.body);
  out.ok = true;
  return out;
}

}  // namespace spider
