// Glue between KV clients and the HistoryRecorder.
//
// Every client type in the repo (SpiderClient for Spider and the PBFT/HFT
// baselines, ShardedClient for sharded deployments) exposes the same
// write/strong_read/weak_read(Bytes op, OpCallback) surface, so one
// template issues any recorded operation and logs its invocation/response
// pair. A second one issues it through ShardedClient::fire instead, which
// also reports the serving shard, so the history attributes each op to it.
// The response is recorded from inside the client callback, i.e. with the
// completion timestamp the client observed.
#pragma once

#include "app/kvstore.hpp"
#include "check/history.hpp"
#include "spider/messages.hpp"

namespace spider {

/// The encoded KV op behind a history operation, and the kind it runs as.
inline std::pair<OpKind, Bytes> history_op(HistOp op, const std::string& key,
                                           const std::string& value) {
  if (op == HistOp::Put) return {OpKind::Write, kv_put(key, to_bytes(value))};
  if (op == HistOp::Del) return {OpKind::Write, kv_del(key)};
  return {op == HistOp::WeakGet ? OpKind::WeakRead : OpKind::StrongRead, kv_get(key)};
}

/// Records `op` on `key` (`value` is a Put's argument) and issues it through
/// the client's write, strong_read or weak_read.
template <class Client>
HistoryRecorder::OpId recorded(HistoryRecorder& h, Client& c, std::uint64_t client_id, HistOp op,
                               const std::string& key, const std::string& value = {}) {
  const HistoryRecorder::OpId id = h.invoke(client_id, op, key, to_bytes(value));
  auto [kind, bytes] = history_op(op, key, value);
  auto respond = [&h, id](Bytes reply, Duration) {
    KvReply r = kv_decode_reply(reply);
    h.respond(id, r.ok, std::move(r.value));
  };
  if (kind == OpKind::Write) {
    c.write(std::move(bytes), std::move(respond));
  } else if (kind == OpKind::StrongRead) {
    c.strong_read(std::move(bytes), std::move(respond));
  } else {
    c.weak_read(std::move(bytes), std::move(respond));
  }
  return id;
}

/// Same recording through a ShardedClient's fire, so the shard that served
/// the op lands in the history (kShardUnattributed when the op failed before
/// reaching one). Resharding tests audit these attributions against the map
/// version in force at completion time.
template <class Client>
HistoryRecorder::OpId recorded_routed(HistoryRecorder& h, Client& c, std::uint64_t client_id,
                                      HistOp op, const std::string& key,
                                      const std::string& value = {}) {
  const HistoryRecorder::OpId id = h.invoke(client_id, op, key, to_bytes(value));
  auto [kind, bytes] = history_op(op, key, value);
  c.fire(kind, std::move(bytes), [&h, id](Bytes reply, Duration, std::uint32_t shard) {
    KvReply r = kv_decode_reply(reply);
    h.attribute_shard(id, shard);
    h.respond(id, r.ok, std::move(r.value));
  });
  return id;
}

}  // namespace spider
