#include "shard/sharded_client.hpp"

#include <numeric>
#include <stdexcept>

#include "shard/migration.hpp"
#include "sim/world.hpp"

namespace spider {

namespace {
/// How long a redirected op waits before re-probing when the redirect's map
/// was not newer than ours (mid-migration window: the gaining shard has not
/// committed MigrateIn yet, so both sides still refuse the range).
constexpr Duration kRedirectRetryDelay = 250 * kMillisecond;

/// Re-encodes the keys `js` of a parsed MGET or MPUT as an op of its kind.
Bytes part_op(const KvParsedOp& op, const std::vector<std::size_t>& js) {
  if (op.kind == KvOp::MGet) {
    std::vector<std::string> keys;
    for (std::size_t j : js) keys.push_back(op.keys[j]);
    return kv_mget(keys);
  }
  std::vector<std::pair<std::string, Bytes>> pairs;
  for (std::size_t j : js) pairs.emplace_back(op.keys[j], op.values[j]);
  return kv_mput(pairs);
}
}  // namespace

/// An MGET, MPUT or SIZE in flight as per-shard parts.
struct ShardedClient::FanOut {
  std::size_t pending = 0;  // parts not yet answered
  Merge merge;
};

ShardedClient::ShardedClient(World& world, ShardMap map,
                             std::vector<std::unique_ptr<SpiderClient>> subclients)
    : world_(world), map_(std::move(map)), subclients_(std::move(subclients)) {
  if (subclients_.size() != map_.shard_count()) {
    throw std::invalid_argument("ShardedClient: one subclient per shard required");
  }
}

bool ShardedClient::adopt_map(const ShardMap& map) {
  if (map.shard_count() != map_.shard_count()) {
    throw std::invalid_argument("ShardedClient: adopted map must keep the shard count");
  }
  if (map.version() <= map_.version()) return false;  // stale or duplicate table
  map_ = map;
  ++maps_adopted_;
  reroute_pending();
  return true;
}

std::uint32_t ShardedClient::route_op(BytesView op) const {
  KvParsedOp parsed = kv_parse_op(op, /*with_values=*/false);  // keys suffice for routing
  if (parsed.keys.empty()) {
    throw std::invalid_argument("ShardedClient: op has no routing key");
  }
  std::uint32_t shard = map_.shard_of(parsed.keys.front());
  for (const std::string& k : parsed.keys) {
    if (map_.shard_of(k) != shard) {
      throw std::invalid_argument("ShardedClient: keys span shards (use mget/mput)");
    }
  }
  return shard;
}

void ShardedClient::fire(OpKind kind, Bytes op, RoutedCallback cb) {
  const std::uint32_t shard = route_op(op);  // initial routing failures throw to the caller
  issue(track({.kind = kind, .op = std::move(op), .start = world_.now(), .done = std::move(cb)}),
        shard);
}

std::uint64_t ShardedClient::track(Record rec) {
  const std::uint64_t id = next_id_++;
  active_.emplace(id, std::move(rec));
  return id;
}

void ShardedClient::issue(std::uint64_t id, std::uint32_t shard) {
  Record& rec = active_.at(id);
  rec.shard = shard;
  rec.queued = true;
  // The record is timed from the caller's submission, across redirects and
  // re-routes, so the subclient's latency for this hop is dropped.
  subclients_[shard]->fire(rec.kind, Bytes(rec.op), [this, id](Bytes reply, Duration) {
    on_sub_reply(id, std::move(reply));
  });
}

void ShardedClient::reroute(std::uint64_t id) {
  auto it = active_.find(id);
  if (it == active_.end()) return;
  // The one re-route rule: group the record's keys by the current map.
  const KvParsedOp parsed = kv_parse_op(it->second.op);
  std::map<std::uint32_t, std::vector<std::size_t>> by_shard;
  for (std::size_t j = 0; j < parsed.keys.size(); ++j) {
    by_shard[map_.shard_of(parsed.keys[j])].push_back(j);
  }
  // One owning shard, or a keyless SIZE part, which stays on its shard.
  if (by_shard.size() <= 1) {
    issue(id, by_shard.empty() ? it->second.shard : by_shard.begin()->first);
    return;
  }
  Record rec = std::move(it->second);
  active_.erase(it);
  if (rec.fan == nullptr) {
    // The adopted map split a single op's keys mid-flight; it cannot be
    // re-routed as one command. Fail it (migration caveat).
    rec.done(kv_reply(false), world_.now() - rec.start, kNoShard);
    return;
  }
  // An MGET or MPUT part becomes one part per owning shard.
  rec.fan->pending += by_shard.size() - 1;
  for (const auto& [shard, js] : by_shard) {
    Record part{.kind = rec.kind, .op = part_op(parsed, js), .start = rec.start, .fan = rec.fan};
    for (std::size_t j : js) part.idxs.push_back(rec.idxs[j]);
    issue(track(std::move(part)), shard);
  }
}

void ShardedClient::on_sub_reply(std::uint64_t id, Bytes reply) {
  auto it = active_.find(id);
  if (it == active_.end()) return;
  it->second.queued = false;
  if (auto redirect = try_decode_wrong_shard(reply)) {
    ++redirects_;
    // Adopting re-routes every queued and parked record; this one is
    // neither, so it re-routes itself here.
    if (redirect->shard_count() == map_.shard_count() && adopt_map(*redirect)) {
      reroute(id);
    } else {
      park(id);
    }
    return;
  }
  Record rec = std::move(it->second);
  active_.erase(it);
  if (rec.fan == nullptr) {
    rec.done(std::move(reply), world_.now() - rec.start, rec.shard);
  } else {
    const bool last = --rec.fan->pending == 0;
    rec.fan->merge(rec, std::move(reply), last);
  }
}

void ShardedClient::park(std::uint64_t id) {
  active_.at(id).parked = true;
  world_.queue().schedule_at(world_.now() + kRedirectRetryDelay, [this, id] {
    auto it = active_.find(id);
    if (it == active_.end() || !it->second.parked) return;  // already re-routed
    it->second.parked = false;
    reroute(id);
  });
}

void ShardedClient::reroute_pending() {
  // Cancel-and-reroute: without this, an op parked in a subclient's
  // retransmit loop keeps chasing a shard that no longer owns its keys —
  // forever, if that shard is also partitioned away. Every op on a
  // subclient belongs to a queued record, so the cancelled ops are dropped
  // and their records re-route instead, together with the parked ones.
  for (auto& sub : subclients_) sub->cancel_pending();
  std::vector<std::uint64_t> ids;
  for (auto& [id, rec] : active_) {
    if (!rec.queued && !rec.parked) continue;  // its reply is being handled
    rec.queued = rec.parked = false;
    ids.push_back(id);
  }
  reroutes_ += ids.size();
  for (std::uint64_t id : ids) reroute(id);
}

// ---- fan-out ops ---------------------------------------------------------

void ShardedClient::fan_out(OpKind kind, Bytes op, std::size_t keys, Merge merge) {
  Record all{.kind = kind,
             .op = std::move(op),
             .start = world_.now(),
             .fan = std::make_shared<FanOut>(FanOut{1, std::move(merge)})};
  all.idxs.resize(keys);
  std::iota(all.idxs.begin(), all.idxs.end(), std::size_t{0});
  reroute(track(std::move(all)));
}

void ShardedClient::mget(const std::vector<std::string>& keys, MgetCallback cb, bool weak) {
  std::vector<MgetEntry> entries(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) entries[i].key = keys[i];
  if (keys.empty()) {
    cb(std::move(entries), 0);
    return;
  }
  fan_out(weak ? OpKind::WeakRead : OpKind::StrongRead, kv_mget(keys), keys.size(),
          [this, entries = std::move(entries), cb = std::move(cb)](
              const Record& part, Bytes reply, bool last) mutable {
            KvMgetReply decoded = kv_decode_mget_reply(reply);
            if (decoded.entries.size() != part.idxs.size()) {
              // A quorum-accepted reply with the wrong shape is encoder/decoder
              // drift on our side, not a miss — surface it instead of reporting
              // the unanswered keys as absent.
              throw std::logic_error("ShardedClient: mget reply entry count mismatch");
            }
            for (std::size_t j = 0; j < part.idxs.size(); ++j) {
              MgetEntry& e = entries[part.idxs[j]];
              e.ok = decoded.entries[j].ok;
              e.value = std::move(decoded.entries[j].value);
              e.shard = part.shard;
              e.shard_seq = decoded.shard_seq;
            }
            if (last) cb(std::move(entries), world_.now() - part.start);
          });
}

void ShardedClient::mput(const std::vector<std::pair<std::string, Bytes>>& pairs,
                         MputCallback cb) {
  if (pairs.empty()) {
    cb(MputResult{}, 0);
    return;
  }
  fan_out(OpKind::Write, kv_mput(pairs), pairs.size(),
          [this, result = MputResult{}, cb = std::move(cb)](const Record& part, Bytes reply,
                                                            bool last) mutable {
            KvMputReply decoded = kv_decode_mput_reply(reply);
            result.ok = result.ok && decoded.ok;
            result.shard_seqs[part.shard] = decoded.shard_seq;
            if (last) cb(std::move(result), world_.now() - part.start);
          });
}

void ShardedClient::size(SizeCallback cb) {
  // Size has no routing key: one keyless part per shard, which the
  // re-route rule keeps on its shard.
  auto fan = std::make_shared<FanOut>(FanOut{
      subclients_.size(), [this, total = std::uint64_t{0}, cb = std::move(cb)](
                              const Record& part, Bytes reply, bool last) mutable {
        total += codec::decode<std::uint64_t>(kv_decode_reply(reply).value);
        if (last) cb(total, world_.now() - part.start);
      }});
  for (std::uint32_t s = 0; s < subclients_.size(); ++s) {
    issue(track({.kind = OpKind::StrongRead, .op = kv_size(), .start = world_.now(), .fan = fan}),
          s);
  }
}

std::uint64_t ShardedClient::retries() const {
  std::uint64_t total = 0;
  for (const auto& sub : subclients_) total += sub->retries();
  return total;
}

}  // namespace spider
