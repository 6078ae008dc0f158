#include "shard/sharded_client.hpp"

#include <stdexcept>

#include "shard/migration.hpp"
#include "sim/world.hpp"

namespace spider {

namespace {
/// How long a redirected op waits before re-probing when the redirect's map
/// was not newer than ours (mid-migration window: the gaining shard has not
/// committed MigrateIn yet, so both sides still refuse the range).
constexpr Duration kRedirectRetryDelay = 250 * kMillisecond;
}  // namespace

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

void ShardedClient::RecordCompletion::operator()(Bytes reply, Duration /*latency*/) const {
  // Latency is computed from the record's submission time instead, so it
  // spans redirect chases and re-routes, not just the last hop.
  self->on_sub_reply(id, std::move(reply));
}

std::uint64_t ShardedClient::submit_routed(Path path, std::uint32_t shard, Bytes op,
                                           RoutedCallback cb) {
  const std::uint64_t id = next_id_++;
  auto rec = std::make_shared<Inflight>();
  rec->path = path;
  rec->op = std::move(op);
  rec->start = world_.now();
  rec->done = [this, cb = std::move(cb), start = rec->start](Bytes reply,
                                                            std::uint32_t served_by) {
    cb(std::move(reply), world_.now() - start, served_by);
  };
  rec->reissue = [this, id] { reissue_single(id); };
  active_[id] = rec;
  issue_to(id, shard);
  return id;
}

void ShardedClient::issue_to(std::uint64_t id, std::uint32_t shard) {
  auto it = active_.find(id);
  if (it == active_.end()) return;
  Inflight& rec = *it->second;
  rec.shard = shard;
  SpiderClient& sub = *subclients_[shard];
  switch (rec.path) {
    case Path::Write: sub.write(Bytes(rec.op), RecordCompletion{this, id}); break;
    case Path::Strong: sub.strong_read(Bytes(rec.op), RecordCompletion{this, id}); break;
    case Path::Weak: sub.weak_read(Bytes(rec.op), RecordCompletion{this, id}); break;
  }
}

void ShardedClient::reissue_single(std::uint64_t id) {
  auto it = active_.find(id);
  if (it == active_.end()) return;
  auto rec = it->second;
  std::uint32_t shard = 0;
  try {
    shard = route_op(rec->op);
  } catch (const std::invalid_argument&) {
    // The adopted map split this op's keys across shards mid-flight; it
    // cannot be re-routed as one command. Fail it (migration caveat).
    active_.erase(it);
    rec->done(kv_reply(false), kNoShard);
    return;
  }
  issue_to(id, shard);
}

void ShardedClient::on_sub_reply(std::uint64_t id, Bytes reply) {
  auto it = active_.find(id);
  if (it == active_.end()) return;
  auto rec = it->second;
  if (auto redirect = try_decode_wrong_shard(reply)) {
    ++redirects_;
    const bool adopted =
        redirect->shard_count() == map_.shard_count() && adopt_map(*redirect);
    // adopt_map re-routed every *pending* op; this one's reply was just
    // consumed, so it is in no subclient queue and re-routes itself here.
    if (adopted) {
      rec->reissue();
    } else {
      park(id);
    }
    return;
  }
  active_.erase(it);
  rec->done(std::move(reply), rec->shard);
}

void ShardedClient::park(std::uint64_t id) {
  auto it = active_.find(id);
  if (it == active_.end()) return;
  it->second->parked = true;
  world_.queue().schedule_at(world_.now() + kRedirectRetryDelay, [this, id] {
    auto pit = active_.find(id);
    if (pit == active_.end() || !pit->second->parked) return;  // already re-routed
    // Local copy: reissue may erase the record from active_, and the record
    // owns the std::function being executed.
    auto rec = pit->second;
    rec->parked = false;
    rec->reissue();
  });
}

void ShardedClient::reroute_pending() {
  // Cancel-and-reroute: without this, an op parked in a subclient's
  // retransmit loop keeps chasing a shard that no longer owns its keys —
  // forever, if that shard is also partitioned away.
  std::vector<std::uint64_t> ids;
  for (auto& sub : subclients_) {
    for (SpiderClient::PendingOp& p : sub->cancel_pending()) {
      if (const RecordCompletion* rc = p.cb.target<RecordCompletion>()) {
        ids.push_back(rc->id);
      } else {
        // Submitted directly on the subclient (size() fan-out, tests): not
        // key-routed, so restart it on the same shard with its kind intact.
        sub->resubmit(std::move(p));
      }
    }
  }
  // Ops parked on a stale redirect are in no subclient queue; re-route them
  // now instead of waiting out their timer.
  for (auto& [id, rec] : active_) {
    if (rec->parked) {
      rec->parked = false;
      ids.push_back(id);
    }
  }
  reroutes_ += ids.size();
  for (std::uint64_t id : ids) {
    auto it = active_.find(id);
    if (it == active_.end()) continue;
    // Local copy, not the map's reference: fan-out parts re-split themselves
    // by erasing their record and issuing fresh ones, which would otherwise
    // destroy the reissue closure mid-execution.
    auto rec = it->second;
    rec->reissue();
  }
}

void ShardedClient::write(Bytes op, OpCallback cb) {
  write_routed(std::move(op),
               [cb = std::move(cb)](Bytes r, Duration l, std::uint32_t) { cb(std::move(r), l); });
}

void ShardedClient::strong_read(Bytes op, OpCallback cb) {
  strong_read_routed(std::move(op),
                     [cb = std::move(cb)](Bytes r, Duration l, std::uint32_t) { cb(std::move(r), l); });
}

void ShardedClient::weak_read(Bytes op, OpCallback cb) {
  weak_read_routed(std::move(op),
                   [cb = std::move(cb)](Bytes r, Duration l, std::uint32_t) { cb(std::move(r), l); });
}

void ShardedClient::write_routed(Bytes op, RoutedCallback cb) {
  std::uint32_t shard = route_op(op);  // initial routing failures throw to the caller
  submit_routed(Path::Write, shard, std::move(op), std::move(cb));
}

void ShardedClient::strong_read_routed(Bytes op, RoutedCallback cb) {
  std::uint32_t shard = route_op(op);
  submit_routed(Path::Strong, shard, std::move(op), std::move(cb));
}

void ShardedClient::weak_read_routed(Bytes op, RoutedCallback cb) {
  std::uint32_t shard = route_op(op);
  submit_routed(Path::Weak, shard, std::move(op), std::move(cb));
}

std::map<std::uint32_t, std::vector<std::size_t>> ShardedClient::group_by_shard(
    const std::vector<std::string>& keys) const {
  std::map<std::uint32_t, std::vector<std::size_t>> by_shard;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    by_shard[map_.shard_of(keys[i])].push_back(i);
  }
  return by_shard;
}

// ---- mget ----------------------------------------------------------------

struct ShardedClient::MgetJob {
  std::vector<std::string> keys;
  bool weak = false;
  std::vector<MgetEntry> entries;
  std::size_t pending = 0;
  Time start = 0;
  MgetCallback cb;
};

std::size_t ShardedClient::issue_mget_parts(const std::shared_ptr<MgetJob>& job,
                                            const std::vector<std::size_t>& idxs) {
  std::map<std::uint32_t, std::vector<std::size_t>> by_shard;
  for (std::size_t i : idxs) by_shard[map_.shard_of(job->keys[i])].push_back(i);
  for (auto& [shard, part] : by_shard) {
    std::vector<std::string> part_keys;
    for (std::size_t i : part) part_keys.push_back(job->keys[i]);

    const std::uint64_t id = next_id_++;
    auto rec = std::make_shared<Inflight>();
    rec->path = job->weak ? Path::Weak : Path::Strong;
    rec->op = kv_mget(part_keys);
    rec->start = job->start;
    rec->done = [this, job, part = part](Bytes reply, std::uint32_t served_by) {
      KvMgetReply decoded = kv_decode_mget_reply(reply);
      if (decoded.entries.size() != part.size()) {
        // A quorum-accepted reply with the wrong shape is encoder/decoder
        // drift on our side, not a miss — surface it instead of reporting
        // the unanswered keys as absent.
        throw std::logic_error("ShardedClient: mget reply entry count mismatch");
      }
      for (std::size_t j = 0; j < part.size(); ++j) {
        MgetEntry& e = job->entries[part[j]];
        e.ok = decoded.entries[j].ok;
        e.value = std::move(decoded.entries[j].value);
        e.shard = served_by;
        e.shard_seq = decoded.shard_seq;
      }
      if (--job->pending == 0) job->cb(std::move(job->entries), world_.now() - job->start);
    };
    // Re-split this part under the current map: the keys one shard served
    // may now belong to several.
    rec->reissue = [this, job, part = part, id] {
      active_.erase(id);
      job->pending += issue_mget_parts(job, part) - 1;
    };
    active_[id] = rec;
    issue_to(id, shard);
  }
  return by_shard.size();
}

void ShardedClient::mget(const std::vector<std::string>& keys, MgetCallback cb, bool weak) {
  auto job = std::make_shared<MgetJob>();
  job->keys = keys;
  job->weak = weak;
  job->entries.resize(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) job->entries[i].key = keys[i];
  job->start = world_.now();
  job->cb = std::move(cb);
  if (keys.empty()) {
    job->cb(std::move(job->entries), 0);
    return;
  }
  std::vector<std::size_t> all(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) all[i] = i;
  job->pending = issue_mget_parts(job, all);
}

// ---- mput ----------------------------------------------------------------

struct ShardedClient::MputJob {
  std::vector<std::pair<std::string, Bytes>> pairs;
  MputResult result;
  std::size_t pending = 0;
  Time start = 0;
  MputCallback cb;
};

std::size_t ShardedClient::issue_mput_parts(const std::shared_ptr<MputJob>& job,
                                            const std::vector<std::size_t>& idxs) {
  std::map<std::uint32_t, std::vector<std::size_t>> by_shard;
  for (std::size_t i : idxs) by_shard[map_.shard_of(job->pairs[i].first)].push_back(i);
  for (auto& [shard, part] : by_shard) {
    std::vector<std::pair<std::string, Bytes>> part_pairs;
    for (std::size_t i : part) part_pairs.push_back(job->pairs[i]);

    const std::uint64_t id = next_id_++;
    auto rec = std::make_shared<Inflight>();
    rec->path = Path::Write;
    rec->op = kv_mput(part_pairs);
    rec->start = job->start;
    rec->done = [this, job](Bytes reply, std::uint32_t served_by) {
      KvMputReply decoded = kv_decode_mput_reply(reply);
      job->result.ok = job->result.ok && decoded.ok;
      job->result.shard_seqs[served_by] = decoded.shard_seq;
      if (--job->pending == 0) job->cb(std::move(job->result), world_.now() - job->start);
    };
    rec->reissue = [this, job, part = part, id] {
      active_.erase(id);
      job->pending += issue_mput_parts(job, part) - 1;
    };
    active_[id] = rec;
    issue_to(id, shard);
  }
  return by_shard.size();
}

void ShardedClient::mput(const std::vector<std::pair<std::string, Bytes>>& pairs,
                         MputCallback cb) {
  auto job = std::make_shared<MputJob>();
  job->pairs = pairs;
  job->start = world_.now();
  job->cb = std::move(cb);
  if (pairs.empty()) {
    job->cb(MputResult{}, 0);
    return;
  }
  std::vector<std::size_t> all(pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) all[i] = i;
  job->pending = issue_mput_parts(job, all);
}

// ---- size ----------------------------------------------------------------

void ShardedClient::size(SizeCallback cb) {
  // Size has no routing key and fans out to every shard unconditionally, so
  // it bypasses the redirect machinery: replicas always own it. A map
  // adoption mid-flight restarts the sub-reads on their shards (resubmit
  // path in reroute_pending).
  struct SizeJob {
    std::uint64_t total = 0;
    std::size_t pending = 0;
    Time start = 0;
    SizeCallback cb;
  };
  auto job = std::make_shared<SizeJob>();
  job->pending = subclients_.size();
  job->start = world_.now();
  job->cb = std::move(cb);
  for (auto& sub : subclients_) {
    sub->strong_read(kv_size(), [this, job](Bytes reply, Duration) {
      job->total += codec::decode<std::uint64_t>(kv_decode_reply(reply).value);
      if (--job->pending == 0) job->cb(job->total, world_.now() - job->start);
    });
  }
}

std::uint64_t ShardedClient::retries() const {
  std::uint64_t total = 0;
  for (const auto& sub : subclients_) total += sub->retries();
  return total;
}

}  // namespace spider
