// Cross-shard client router.
//
// Holds one SpiderClient per shard (each attached to the owning shard's
// nearest execution group) plus a copy of the ShardMap. Single-key KV ops
// enter through fire(kind, op, cb), which parses the op and sends it to the
// owning shard; multi-key MGET/MPUT fan out one per-shard part each, SIZE
// one part per shard, and the parts' replies merge into one callback.
//
// Live resharding: every op the router puts on a subclient — a single op or
// a part — is one record, tracked until it completes. Redirects, park
// timeouts and map adoptions re-route a record by one rule: group its keys
// by the current map, keep a keyless SIZE part on its shard, fail a single
// op whose keys now span shards, and split an MGET or MPUT part into one
// part per owning shard. A WrongShard redirect carries the serving
// replica's map, which the router adopts if it is newer; adopting a newer
// map — from a redirect or via adopt_map — also cancels the subclients and
// re-routes every queued or parked record, so an op retrying against a
// shard that lost its key cannot livelock. Re-routing re-submits the op
// under a fresh counter: if the original was already committed, delivery
// is at-least-once. The subclients carry only records: an op fired straight
// on shard_client(s) is dropped, uncompleted, by the next adoption.
//
// Consistency caveat (documented in the README): ops are atomic *within*
// one shard — a per-shard MPUT is a single ordered command — but a
// cross-shard MGET/MPUT is NOT atomic across shards. Another client can
// observe shard A's part of an MPUT before shard B's part lands. The
// per-key shard sequence numbers returned by MGET make this visible:
// read-your-writes holds per shard (an MGET after an MPUT reports
// shard_seq >= the MPUT's shard_seq on every shard the MPUT touched).
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "app/kvstore.hpp"
#include "shard/shard_map.hpp"
#include "spider/client.hpp"

namespace spider {

class ShardedClient {
 public:
  using OpCallback = SpiderClient::OpCallback;
  /// Like OpCallback, but also reports the shard that served the op
  /// (kNoShard when routing failed), for at-commit-time attribution.
  using RoutedCallback =
      std::function<void(Bytes result, Duration latency, std::uint32_t shard)>;

  /// `subclients[s]` serves shard s; one per map.shard_count().
  ShardedClient(World& world, ShardMap map,
                std::vector<std::unique_ptr<SpiderClient>> subclients);

  // ---- single-shard ops (parsed + routed) --------------------------------
  /// Routes an encoded KV op of kind Write, StrongRead or WeakRead to the
  /// shard owning its key; `cb` also reports the serving shard. Multi-key
  /// ops are accepted when every key maps to the same shard; a cross-shard
  /// op throws std::invalid_argument (use mget/mput instead). An op whose
  /// keys are split across shards by a map adopted *mid-flight* does not
  /// throw — it completes with a failure reply and kNoShard (documented
  /// migration caveat).
  void fire(OpKind kind, Bytes op, RoutedCallback cb);
  void write(Bytes op, OpCallback cb) {
    fire(OpKind::Write, std::move(op), unrouted(std::move(cb)));
  }
  void strong_read(Bytes op, OpCallback cb) {
    fire(OpKind::StrongRead, std::move(op), unrouted(std::move(cb)));
  }
  void weak_read(Bytes op, OpCallback cb) {
    fire(OpKind::WeakRead, std::move(op), unrouted(std::move(cb)));
  }

  // Convenience wrappers over the routed paths.
  void put(const std::string& key, Bytes value, OpCallback cb) {
    write(kv_put(key, value), std::move(cb));
  }
  void del(const std::string& key, OpCallback cb) { write(kv_del(key), std::move(cb)); }
  void get(const std::string& key, OpCallback cb) { strong_read(kv_get(key), std::move(cb)); }
  void weak_get(const std::string& key, OpCallback cb) {
    weak_read(kv_get(key), std::move(cb));
  }

  // ---- cross-shard ops (fan-out + merge; NOT atomic across shards) -------
  struct MgetEntry {
    std::string key;
    bool ok = false;
    Bytes value;
    std::uint32_t shard = 0;
    std::uint64_t shard_seq = 0;  // owning shard's mutation count at read time
  };
  using MgetCallback = std::function<void(std::vector<MgetEntry>, Duration)>;
  /// One ordered (or weak) MGet per involved shard; entries come back in
  /// request order. Latency is the slowest shard's completion. Weak MGETs
  /// report shard_seq 0 (only ordered reads carry the mutation count, so
  /// weak replies stay quorum-matchable under concurrent writes).
  void mget(const std::vector<std::string>& keys, MgetCallback cb, bool weak = false);

  struct MputResult {
    bool ok = true;                                    // all shards applied
    std::map<std::uint32_t, std::uint64_t> shard_seqs; // shard -> seq after apply
  };
  using MputCallback = std::function<void(MputResult, Duration)>;
  /// One ordered MPut per involved shard (atomic per shard only).
  void mput(const std::vector<std::pair<std::string, Bytes>>& pairs, MputCallback cb);

  /// Aggregated key count: one *ordered* Size read per shard. Size is a
  /// global progress counter, so a weak fan-out could never collect
  /// byte-identical quorum replies while any shard is being written.
  using SizeCallback = std::function<void(std::uint64_t total, Duration)>;
  void size(SizeCallback cb);

  /// Version-gated rebalance visibility: adopts `map` iff it is strictly
  /// newer than the router's current table (same shard count); stale or
  /// equal versions are ignored. Returns whether the table was adopted.
  /// Adoption cancels the subclients and re-routes every queued or parked
  /// record, SIZE parts included, so nothing keeps chasing a shard that no
  /// longer owns its keys.
  bool adopt_map(const ShardMap& map);

  // ---- introspection -----------------------------------------------------
  [[nodiscard]] std::uint32_t route_key(const std::string& key) const {
    return map_.shard_of(key);
  }
  /// Shard an encoded op routes to; throws std::invalid_argument if the op
  /// has no routing key (Size) or its keys span shards.
  [[nodiscard]] std::uint32_t route_op(BytesView op) const;
  [[nodiscard]] std::uint32_t shard_count() const { return map_.shard_count(); }
  /// Shard s's subclient, for its id, group and counters; ops go through
  /// the router (see the file comment).
  SpiderClient& shard_client(std::uint32_t s) { return *subclients_.at(s); }
  [[nodiscard]] const ShardMap& map() const { return map_; }
  [[nodiscard]] std::uint64_t retries() const;
  /// WrongShard redirects received (each one re-routes or parks an op).
  [[nodiscard]] std::uint64_t redirects() const { return redirects_; }
  /// Newer maps installed (via adopt_map or redirect).
  [[nodiscard]] std::uint64_t maps_adopted() const { return maps_adopted_; }
  /// Records cancelled-and-re-routed by map adoptions: single ops and
  /// MGET, MPUT and SIZE parts alike, each counted once per adoption.
  [[nodiscard]] std::uint64_t reroutes() const { return reroutes_; }
  /// Records not yet completed: single ops plus unanswered parts.
  [[nodiscard]] std::size_t pending_ops() const { return active_.size(); }

 private:
  struct FanOut;
  /// One op the router put on a subclient: a single op, or one shard's part
  /// of an MGET, MPUT or SIZE. It lives until its reply (or a routing
  /// failure) completes it, across redirects and re-routes.
  struct Record {
    OpKind kind = OpKind::Write;
    Bytes op{};
    Time start = 0;                  // the caller's submission
    std::uint32_t shard = kNoShard;  // shard whose subclient carries it
    bool queued = false;             // on that subclient, awaiting its reply
    bool parked = false;             // waiting out a stale redirect
    RoutedCallback done{};           // a single op's caller
    std::shared_ptr<FanOut> fan{};   // a part's multi-shard op; null for a single op
    std::vector<std::size_t> idxs{}; // a part's keys, as positions in the caller's request
  };

  /// Folds one answered part into its MGET, MPUT or SIZE; `last` is set on
  /// the final part, which fires the caller's callback.
  using Merge = std::function<void(const Record& part, Bytes reply, bool last)>;

  static RoutedCallback unrouted(OpCallback cb) {
    return [cb = std::move(cb)](Bytes r, Duration l, std::uint32_t) { cb(std::move(r), l); };
  }
  std::uint64_t track(Record rec);
  void issue(std::uint64_t id, std::uint32_t shard);
  void reroute(std::uint64_t id);
  void on_sub_reply(std::uint64_t id, Bytes reply);
  void park(std::uint64_t id);
  void reroute_pending();
  /// Routes an MGET or MPUT as one part holding all `keys` of `op`; the
  /// re-route rule splits it into one part per owning shard.
  void fan_out(OpKind kind, Bytes op, std::size_t keys, Merge merge);

  World& world_;
  ShardMap map_;
  std::vector<std::unique_ptr<SpiderClient>> subclients_;
  std::map<std::uint64_t, Record> active_;
  std::uint64_t next_id_ = 1;
  std::uint64_t redirects_ = 0;
  std::uint64_t maps_adopted_ = 0;
  std::uint64_t reroutes_ = 0;
};

}  // namespace spider
