#include "spider/execution_replica.hpp"

#include <set>

#include "obs/trace.hpp"
#include "sim/world.hpp"

namespace spider {

namespace {
// Modeled CPU cost of executing one application operation.
constexpr Duration kExecCost = 8;
}  // namespace

IrmcConfig request_channel(GroupId g, const std::vector<NodeId>& members,
                           const std::vector<NodeId>& agreement, std::uint32_t fa) {
  IrmcConfig cfg;
  cfg.senders = members;
  cfg.receivers = agreement;
  cfg.fs = static_cast<std::uint32_t>((members.size() - 1) / 2);
  cfg.fr = fa;
  cfg.capacity = kRequestCapacity;
  cfg.channel_tag = request_channel_tag(g);
  return cfg;
}

IrmcConfig commit_channel(GroupId g, const std::vector<NodeId>& members,
                          const std::vector<NodeId>& agreement, std::uint32_t fa,
                          Position capacity) {
  IrmcConfig cfg;
  cfg.senders = agreement;
  cfg.receivers = members;
  cfg.fs = fa;
  cfg.fr = static_cast<std::uint32_t>((members.size() - 1) / 2);
  cfg.capacity = capacity;
  cfg.channel_tag = commit_channel_tag(g);
  cfg.announce_window = true;  // revived execution replicas must learn
                               // that the commit window moved on
  return cfg;
}

ExecutionReplica::ExecutionReplica(World& world, Site site, ExecutionConfig cfg,
                                   std::unique_ptr<Application> app)
    : ComponentHost(world, cfg.self == kInvalidNode ? world.allocate_id() : cfg.self, site),
      cfg_(std::move(cfg)), app_(std::move(app)), map_(cfg_.shard_map),
      shard_index_(cfg_.shard_index) {
  port_ = std::make_unique<ClientPort>(
      *this, [this](ClientFrame frame, BytesView) { handle_request(std::move(frame)); });

  request_tx_ = make_irmc_sender(cfg_.irmc_kind, *this,
                                 request_channel(cfg_.group, cfg_.members, cfg_.agreement,
                                                 cfg_.fa));
  commit_rx_ = make_irmc_receiver(cfg_.irmc_kind, *this,
                                  commit_channel(cfg_.group, cfg_.members, cfg_.agreement,
                                                 cfg_.fa, cfg_.commit_capacity));

  auto trusted = std::make_shared<std::set<NodeId>>(cfg_.members.begin(), cfg_.members.end());
  trusted_peers_ = trusted;
  checkpointer_ = std::make_unique<Checkpointer>(
      *this, tags::kCheckpoint, cfg_.members, cfg_.fe,
      [this](SeqNr s, BytesView state) { on_stable_checkpoint(s, state); },
      [trusted](NodeId n) { return trusted->count(n) > 0; });
  checkpointer_->snapshot_now = [this] {
    last_cp_ = std::max(last_cp_, sn_);
    return std::make_pair(sn_, snapshot_state());
  };

  request_next_execute();
}

void ExecutionReplica::add_checkpoint_peers(const std::vector<NodeId>& peers) {
  checkpointer_->add_fetch_peers(peers);
  for (NodeId p : peers) trusted_peers_->insert(p);
}

void ExecutionReplica::handle_request(ClientFrame frame) {
  const ClientRequest& req = frame.req;
  if (req.kind == OpKind::WeakRead) {
    // Fast path: answer from local state, no ordering (paper §3.3). Keys
    // this shard no longer owns get a versioned redirect instead of a
    // stale answer.
    if (!owns_keys(req.op)) {
      port_->reply(req.client, req.counter, make_wrong_shard_reply(*map_), /*weak=*/true);
      return;
    }
    charge_app(kExecCost);
    if (auto* t = tracer()) {
      t->async(obs::Ph::kAsyncInstant, now(), id(),
               obs::request_id(req.client, req.counter, /*weak=*/true), "request",
               "weak-exec");
    }
    if (auto result = execute_op(*app_, OpKind::WeakRead, req.op)) {
      port_->reply(req.client, req.counter, *result, /*weak=*/true);
    }
    return;
  }

  std::uint64_t& last = t_[req.client];
  if (req.counter < last) return;  // superseded by a newer request
  if (req.counter == last) {
    // Retry of the latest request: serve the cached reply if we have it.
    auto uit = replies_.find(req.client);
    if (uit != replies_.end() && uit->second.counter == req.counter &&
        !uit->second.placeholder) {
      port_->reply(req.client, req.counter, uit->second.result, /*weak=*/false);
      return;
    }
    // No reply yet: the request is still in flight, and our original
    // forward may have been lost before reaching fs+1 agreement receivers
    // (e.g. a partition cut the request channel right after we recorded
    // the counter). Fall through and re-drive the channel: our window
    // already moved to this counter, so it goes out as a plain Send at a
    // slot we already voted in. A receiver that counted our first vote
    // drops it unverified, so the worst case is a redundant transmission
    // (reliable-link retransmission model).
  }

  if (!verify_client_signature(*this, frame)) return;

  last = req.counter;
  if (byzantine().drop_forwarding) return;  // Byzantine: silently refuse to forward
  if (auto* t = tracer()) {
    t->async(obs::Ph::kAsyncInstant, now(), id(),
             obs::request_id(req.client, req.counter), "request", "forward");
  }
  // Keep only the client's newest request: move its subchannel window to
  // this counter and send, in one signed frame where the window allows.
  request_tx_->move_and_send(req.client, req.counter,
                             codec::encode(RequestMsg{std::move(frame), cfg_.group}), {});
}

void ExecutionReplica::request_next_execute() {
  // Batches are stored at the position of their first sequence number, and
  // sn_ always rests on a batch boundary, so sn_ + 1 addresses the next
  // stored batch.
  commit_rx_->receive(0, sn_ + 1, [this](RecvResult res) {
    if (!res.too_old) {
      if (auto batch = codec::try_decode<ExecuteBatchMsg>(res.message)) {
        process_batch(*batch);
      } else {
        // Channel contents are vouched for by fa+1 agreement replicas;
        // malformed content would indicate a local bug. Skip defensively.
        ++sn_;
      }
      request_next_execute();
      return;
    }
    if (sn_ + 1 >= res.window_start) {
      // Already caught up (e.g. a checkpoint applied before this fired).
      request_next_execute();
      return;
    }
    // We missed garbage-collected Executes: fetch an execution checkpoint
    // from our group or any other group (paper §3.4/3.5).
    waiting_checkpoint_ = true;
    checkpointer_->fetch_cp(res.window_start - 1);
  });
}

void ExecutionReplica::process_batch(const ExecuteBatchMsg& batch) {
  // Apply the whole batch atomically (in one event, checkpointing only at
  // the end), so a recovering replica never resumes mid-batch.
  for (const ExecuteMsg& x : batch.items) process_execute(x);
  if (cut_checkpoint_) {
    // A migration op executed in this batch: certify the cut/adopt
    // immediately so trailing or recovering replicas pick up the new map
    // and range state through ordinary checkpoint transfer.
    cut_checkpoint_ = false;
    last_cp_ = sn_;
    ++checkpoints_;
    checkpointer_->gen_cp(sn_, snapshot_state());
    return;
  }
  maybe_checkpoint();
}

void ExecutionReplica::process_execute(const ExecuteMsg& x) {
  sn_ += 1;

  switch (x.kind) {
    case ExecuteKind::Full: {
      ReplyCacheEntry& e = replies_[x.client];
      if (e.counter >= x.counter) {
        // Duplicate/old: resend cached reply if this is our client.
        if (x.origin == cfg_.group && e.counter == x.counter && !e.placeholder) {
          port_->reply(x.client, x.counter, e.result, false);
        }
        break;
      }
      charge_app(kExecCost);
      if (auto* t = tracer()) {
        t->async(obs::Ph::kAsyncInstant, now(), id(),
                 obs::request_id(x.client, x.counter), "request", "execute",
                 "seq", sn_);
      }
      // Ownership is decided at commit time — the op was ordered, but if a
      // migration committed first this shard must redirect, not execute,
      // so every replica attributes the key to the same owner.
      std::optional<Bytes> result;
      if (is_sys_op(x.op)) {
        result = execute_sys_op(x.client, x.op);
      } else if (!owns_keys(x.op)) {
        result = make_wrong_shard_reply(*map_);
      } else {
        result = execute_op(*app_, x.op_kind, x.op);
      }
      // An op the application rejects gets no reply (as in the baselines);
      // its sequence number is spent and the rest of the batch executes.
      if (!result) break;
      e.counter = x.counter;
      e.result = std::move(*result);
      e.placeholder = false;
      if (x.origin == cfg_.group) port_->reply(x.client, x.counter, e.result, false);
      break;
    }
    case ExecuteKind::Placeholder: {
      ReplyCacheEntry& e = replies_[x.client];
      if (x.counter > e.counter) {
        e.counter = x.counter;
        e.result.clear();
        e.placeholder = true;
      }
      break;
    }
    case ExecuteKind::Reconfig: {
      ReplyCacheEntry& e = replies_[x.client];
      if (x.counter > e.counter) {
        e.counter = x.counter;
        e.result = to_bytes(std::string("reconfig-ok"));
        e.placeholder = false;
        if (x.origin == cfg_.group) port_->reply(x.client, x.counter, e.result, false);
      }
      break;
    }
    case ExecuteKind::Noop:
      break;
  }
}

bool ExecutionReplica::owns_keys(BytesView op) const {
  if (!map_) return true;
  for (const std::string& key : app_->op_keys(op)) {
    if (map_->shard_of(key) != shard_index_) return false;
  }
  return true;
}

Bytes ExecutionReplica::execute_sys_op(NodeId client, BytesView op) {
  if (client != cfg_.admin) return kv_reply(false);
  const BytesView fields = op.subspan(1);  // is_sys_op: op[0] is the code
  if (op[0] == kSysOpMigrateOut) {
    if (auto cmd = codec::try_decode<MigrateOutCmd>(fields)) return migrate_out(*cmd);
  } else if (op[0] == kSysOpMigrateIn) {
    if (auto cmd = codec::try_decode<MigrateInCmd>(fields)) return migrate_in(*cmd);
  }
  return kv_reply(false);
}

Bytes ExecutionReplica::migrate_out(const MigrateOutCmd& cmd) {
  if (!map_ || cmd.delta.base_version != map_->version()) return kv_reply(false);
  std::optional<ShardMap> next;
  try {
    next = map_->with_delta(cmd.delta);
  } catch (const std::invalid_argument&) {
    return kv_reply(false);
  }
  // Cut exactly the keys this shard owned under the old map but does not
  // own under the new one. data_ iteration order is deterministic, so fe+1
  // replicas produce byte-identical state and the reply quorum certifies it.
  Bytes state = app_->extract_keys([&](std::string_view key) {
    const std::uint64_t h = ShardMap::hash_key(key);
    return map_->shard_of_hash(h) == shard_index_ && next->shard_of_hash(h) != shard_index_;
  });
  map_ = std::move(next);
  cut_checkpoint_ = true;
  ++migrations_;
  return make_migrate_reply(map_->version(), state);
}

Bytes ExecutionReplica::migrate_in(const MigrateInCmd& cmd) {
  if (!map_ || cmd.delta.base_version != map_->version()) return kv_reply(false);
  std::optional<ShardMap> next;
  try {
    next = map_->with_delta(cmd.delta);
  } catch (const std::invalid_argument&) {
    return kv_reply(false);
  }
  try {
    app_->absorb_keys(cmd.state);
  } catch (const SerdeError&) {
    return kv_reply(false);
  }
  map_ = std::move(next);
  cut_checkpoint_ = true;
  ++migrations_;
  return make_migrate_reply(map_->version());
}

void ExecutionReplica::maybe_checkpoint() {
  // `ke` counts logical requests; with batching sn_ may jump past an exact
  // multiple, so checkpoint whenever a full interval has elapsed. sn_ is a
  // batch boundary here, keeping checkpoints aligned with stored batches.
  if (sn_ < last_cp_ + cfg_.ke) return;
  last_cp_ = sn_;
  ++checkpoints_;
  if (auto* t = tracer()) {
    t->instant(now(), id(), "checkpoint", "gen_cp", "seq", sn_);
  }
  checkpointer_->gen_cp(sn_, snapshot_state());
}

Bytes ExecutionReplica::snapshot_state() const {
  Writer w;
  codec::write(w, ReplicaImage<ReplyCacheEntry, codec::Ref>{replies_, app_->snapshot()});
  // Resharding deployments append the enforced map so adopted checkpoints
  // carry ownership along with state. Absent map = absent section, which
  // keeps the original byte format for every existing deployment.
  if (map_) codec::write(w, ShardTail{shard_index_, codec::encode(*map_)});
  return std::move(w).take();
}

void ExecutionReplica::apply_state(SeqNr s, BytesView state) {
  // Decode the whole image before touching any state.
  Reader r(state);
  ReplicaImage<ReplyCacheEntry> image;
  codec::read(r, image);
  std::optional<ShardMap> map;
  ShardTail tail;
  if (!r.done()) {
    codec::read(r, tail);
    map = codec::decode<ShardMap>(tail.map);
  }
  r.expect_done();
  app_->restore(image.app);
  if (map) {
    shard_index_ = tail.shard_index;
    map_ = std::move(map);
  }
  replies_ = std::move(image.replies);
  sn_ = s;
  ++catchups_;
  if (auto* t = tracer()) {
    t->instant(now(), id(), "checkpoint", "catchup", "seq", s);
  }
}

void ExecutionReplica::on_stable_checkpoint(SeqNr s, BytesView state) {
  commit_rx_->move_window(0, s + 1);  // allow garbage collection (L. 42-44)
  if (s > sn_) {
    try {
      apply_state(s, state);
    } catch (const SerdeError&) {
      return;  // defensive; see request_next_execute
    }
  }
  last_cp_ = std::max(last_cp_, s);
  if (waiting_checkpoint_) {
    waiting_checkpoint_ = false;
    request_next_execute();
  }
}

}  // namespace spider
