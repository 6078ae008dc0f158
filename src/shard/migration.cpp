#include "shard/migration.hpp"

namespace spider {

Bytes make_wrong_shard_reply(const ShardMap& map) {
  Writer w;
  w.u8(kWrongShardStatus);
  w.bytes(codec::encode(map));
  return std::move(w).take();
}

std::optional<ShardMap> try_decode_wrong_shard(BytesView reply) {
  try {
    Reader r(reply);
    if (r.u8() != kWrongShardStatus) return std::nullopt;
    BytesView table = r.bytes_view();
    r.expect_done();
    return codec::decode<ShardMap>(table);
  } catch (const SerdeError&) {
    return std::nullopt;
  }
}

Bytes make_migrate_fail_reply() {
  Writer w;
  w.u8(0);
  w.bytes({});
  return std::move(w).take();
}

namespace {
Bytes migrate_ok_reply(std::uint64_t version, BytesView state) {
  Writer body;
  body.u64(version);
  body.bytes(state);
  Writer w;
  w.u8(1);
  w.bytes(body.data());
  return std::move(w).take();
}
}  // namespace

Bytes make_migrate_out_reply(std::uint64_t new_version, BytesView state) {
  return migrate_ok_reply(new_version, state);
}

Bytes make_migrate_in_reply(std::uint64_t new_version) {
  return migrate_ok_reply(new_version, {});
}

MigrateReply decode_migrate_reply(BytesView reply) {
  MigrateReply out;
  Reader r(reply);
  if (r.u8() != 1) return out;
  Bytes body = r.bytes();
  Reader br(body);
  out.version = br.u64();
  out.state = br.bytes();
  br.expect_done();
  out.ok = true;
  return out;
}

}  // namespace spider
