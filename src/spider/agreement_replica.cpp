#include "spider/agreement_replica.hpp"

#include <algorithm>

#include "obs/trace.hpp"
#include "sim/world.hpp"
#include "spider/client_port.hpp"

namespace spider {

AgreementReplica::AgreementReplica(World& world, Site site, AgreementConfig cfg)
    : ComponentHost(world, cfg.self == kInvalidNode ? world.allocate_id() : cfg.self, site),
      cfg_(std::move(cfg)) {
  win_hi_ = cfg_.ag_win;

  PbftConfig pc;
  pc.replicas = cfg_.members;
  pc.my_index = cfg_.my_index;
  pc.f = cfg_.fa;
  pc.request_timeout = cfg_.request_timeout;
  pc.view_change_timeout = cfg_.view_change_timeout;
  pc.window = cfg_.ag_win + cfg_.ka;  // consensus pipeline never below AG-WIN
  pc.max_batch = cfg_.max_batch;
  pc.batch_delay = cfg_.batch_delay;
  pbft_ = std::make_unique<PbftReplica>(
      *this, pc,
      [this](SeqNr first, const std::vector<Bytes>& batch) { on_deliver(first, batch); });
  pbft_->validate = [this](BytesView wire) { return validate_request(wire); };

  checkpointer_ = std::make_unique<Checkpointer>(
      *this, tags::kCheckpoint, cfg_.members, cfg_.fa,
      [this](SeqNr s, BytesView state) { on_stable_checkpoint(s, state); });
  checkpointer_->snapshot_now = [this] {
    last_cp_ = std::max(last_cp_, sn_);
    return std::make_pair(sn_, snapshot_state());
  };

  // Registry lookups (paper §3.1): a query is the bare tag, answered with
  // the MAC'd snapshot. Queries stay unauthenticated, since clients this
  // group does not know yet look the registry up; a frame with bytes after
  // the tag is refused.
  registry_port_ = std::make_unique<TagHandler>(
      *this, tags::kRegistry,
      [this](NodeId from, BytesView body) {
        if (!body.empty()) {
          drop(Drop::kMalformed);
          return;
        }
        registry_port_->send_maced({from}, codec::encode(registry_));
      });

  registry_.version = 0;
  for (const RegistryEntry& g : cfg_.initial_groups) {
    registry_.groups.push_back(g);
    setup_channel(g, /*backfill=*/false);
  }
}

bool AgreementReplica::validate_request(BytesView wire) {
  // A-Validity: only correctly authenticated client requests are ordered.
  auto req = codec::try_decode<RequestMsg>(wire);
  if (!req) return false;
  const ClientRequest& cr = req->frame.req;
  if (cr.kind == OpKind::WeakRead) return false;  // never ordered
  if (cr.kind == OpKind::Reconfig && cr.client != cfg_.admin) return false;
  return verify_client_signature(*this, req->frame);
}

void AgreementReplica::setup_channel(const RegistryEntry& info, bool backfill) {
  if (channels_.count(info.group)) return;
  Channel ch;
  ch.info = info;
  ch.request_rx = make_irmc_receiver(
      cfg_.irmc_kind, *this,
      request_channel(info.group, info.members, cfg_.members, cfg_.fa));
  ch.commit_tx = make_irmc_sender(
      cfg_.irmc_kind, *this,
      commit_channel(info.group, info.members, cfg_.members, cfg_.fa, cfg_.commit_capacity));
  GroupId g = info.group;
  ch.request_rx->on_new_subchannel = [this, g](Subchannel c) { start_pull(g, c); };
  channels_.emplace(g, std::move(ch));

  if (backfill && !hist_.empty()) {
    // Give the new group the recent Execute history; everything older must
    // come from an execution checkpoint of another group (paper §3.6).
    Channel& nc = channels_.at(g);
    for (const ExecuteBatchMsg& h : hist_) {
      nc.commit_tx->send(0, h.first(), codec::encode(derive_for(g, h)), {});
    }
    nc.commit_tx->move_window(0, hist_.front().first());
  }
}

void AgreementReplica::remove_channel(GroupId g) {
  channels_.erase(g);
  for (auto it = pulling_.begin(); it != pulling_.end();) {
    if (it->first == g) {
      it = pulling_.erase(it);
    } else {
      ++it;
    }
  }
}

void AgreementReplica::start_pull(GroupId g, Subchannel c) {
  if (!pulling_.insert({g, c}).second) return;
  // Pull loop (paper Fig. 17, L. 13-22). Client subchannels carry the
  // client's request counter as position.
  std::function<void()> pull = [this, g, c]() {
    auto it = channels_.find(g);
    if (it == channels_.end()) return;  // group removed
    NodeId client = static_cast<NodeId>(c);
    std::uint64_t pos = std::max<std::uint64_t>(t_plus_[client], 1);
    it->second.request_rx->receive(c, pos, [this, g, c](RecvResult res) {
      NodeId client = static_cast<NodeId>(c);
      if (res.too_old) {
        // The client already confirmed a newer request (L. 16-18).
        t_plus_[client] = std::max(t_plus_[client], res.window_start);
      } else {
        pbft_->order(res.message.to_bytes());
        t_plus_[client] = std::max<std::uint64_t>(t_plus_[client] + 1, 1);
      }
      auto again = channels_.find(g);
      if (again == channels_.end()) return;
      start_pull_again(g, c);
    });
  };
  pull();
}

void AgreementReplica::start_pull_again(GroupId g, Subchannel c) {
  pulling_.erase({g, c});
  start_pull(g, c);
}

void AgreementReplica::on_deliver(SeqNr first, const std::vector<Bytes>& batch) {
  deliver_queue_.emplace_back(first, batch);
  process_queue();
}

void AgreementReplica::process_queue() {
  while (!processing_ && !deliver_queue_.empty()) {
    auto& [first, batch] = deliver_queue_.front();
    const SeqNr last = first + static_cast<SeqNr>(batch.size()) - 1;
    if (last <= sn_) {
      deliver_queue_.pop_front();  // covered by an adopted checkpoint
      continue;
    }
    if (first > sn_ + 1) {
      // Processing gap: the consensus floor jumped past batches this
      // replica never processed (view change while trailing). Handling
      // the batch now would build t_/hist_ on stale state and diverge;
      // recover the missing prefix through an agreement checkpoint —
      // its adoption re-enters process_queue.
      checkpointer_->fetch_cp(first - 1);
      return;
    }
    if (first > win_hi_) return;  // L. 27: sleep until the window allows
    SeqNr start = first;
    std::vector<Bytes> requests = std::move(batch);
    deliver_queue_.pop_front();
    processing_ = true;
    handle_ordered(start, requests);
  }
}

void AgreementReplica::handle_ordered(SeqNr first, const std::vector<Bytes>& batch) {
  // One consensus instance = one Execute batch, forwarded atomically over
  // every commit channel. Sequence numbers inside stay request-granular.
  ExecuteBatchMsg canonical;
  canonical.items.reserve(batch.size());
  SeqNr s = first;
  for (const Bytes& request : batch) {
    // A no-op unless the request decodes and orders something. `items` is
    // reserved, so `x` stays valid while the loop appends.
    ExecuteMsg& x = canonical.items.emplace_back();
    x.seq = s++;
    if (request.empty()) continue;
    auto req = codec::try_decode<RequestMsg>(request);
    if (!req) continue;
    const ClientRequest& cr = req->frame.req;
    x.origin = req->origin;
    x.client = cr.client;
    x.counter = cr.counter;
    x.op_kind = cr.kind;

    if (cr.counter <= t_[cr.client] && cr.kind != OpKind::Reconfig) {
      // Old/duplicate request: stays a no-op (Fig. 17, L. 30).
    } else if (cr.kind == OpKind::Reconfig) {
      auto cmd = codec::try_decode<ReconfigCmd>(cr.op);
      if (!cmd) continue;
      apply_reconfig(*cmd);
      x.kind = ExecuteKind::Reconfig;
      x.op = cr.op;
      t_[cr.client] = cr.counter;
      t_plus_[cr.client] = std::max(t_plus_[cr.client], cr.counter + 1);
    } else {
      x.kind = ExecuteKind::Full;
      x.op = cr.op;
      t_[cr.client] = cr.counter;
      t_plus_[cr.client] = std::max(t_plus_[cr.client], cr.counter + 1);
    }
    if (auto* t = tracer()) {
      t->async(obs::Ph::kAsyncInstant, now(), id(), obs::request_id(cr.client, cr.counter),
               "request", "ordered", "seq", x.seq);
    }
  }
  sn_ = canonical.last();

  hist_.push_back(canonical);
  trim_hist();

  dispatch_execute(canonical, /*count_completions=*/true);
  maybe_checkpoint();
}

void AgreementReplica::trim_hist() {
  // Drop batches that lie entirely below the last |commit window| logical
  // requests. A batch straddling the window edge is kept whole, so every
  // retained position is reachable at its batch's stored IRMC position.
  while (hist_.size() > 1 && hist_.front().last() + cfg_.commit_capacity <= sn_) {
    hist_.pop_front();
  }
}

ExecuteBatchMsg AgreementReplica::derive_for(GroupId g, const ExecuteBatchMsg& canonical) const {
  // Strong reads are executed only by the origin group; everyone else gets
  // a placeholder carrying just (client, counter) (paper §3.3).
  ExecuteBatchMsg derived = canonical;
  for (ExecuteMsg& x : derived.items) {
    if (x.kind == ExecuteKind::Full && x.op_kind == OpKind::StrongRead && x.origin != g) {
      x.kind = ExecuteKind::Placeholder;
      x.op.clear();
    }
  }
  return derived;
}

void AgreementReplica::dispatch_execute(const ExecuteBatchMsg& canonical, bool count_completions) {
  if (!count_completions) {
    for (auto& [g, ch] : channels_) {
      ch.commit_tx->send(0, canonical.first(), codec::encode(derive_for(g, canonical)), {});
    }
    return;
  }

  // Global flow control: resume processing once ne - z channels accepted
  // the Execute batch; slow channels finish in the background (paper §3.5).
  std::size_t ne = channels_.size();
  std::size_t needed = ne > cfg_.z ? ne - cfg_.z : 0;
  auto done = std::make_shared<std::size_t>(0);
  auto resumed = std::make_shared<bool>(false);
  auto resume = [this, done, resumed, needed](bool /*too_old*/, Position /*ws*/) {
    ++*done;
    if (*done >= needed && !*resumed) {
      *resumed = true;
      // Defer to a fresh event to keep the delivery pipeline iterative
      // (defer is alive-guarded and cost-free: harmless if this replica
      // crashes before the event fires, and no spurious CPU charge on the
      // commit hot path).
      defer(0, [this] {
        processing_ = false;
        process_queue();
      });
    }
  };
  if (needed == 0) resume(false, 0);
  for (auto& [g, ch] : channels_) {
    ch.commit_tx->send(0, canonical.first(), codec::encode(derive_for(g, canonical)), resume);
  }
}

void AgreementReplica::apply_reconfig(const ReconfigCmd& cmd) {
  if (cmd.add) {
    if (channels_.count(cmd.group)) return;
    RegistryEntry entry{cmd.group, cmd.region, cmd.members};
    registry_.groups.push_back(entry);
    ++registry_.version;
    setup_channel(entry, /*backfill=*/true);
  } else {
    auto it = std::find_if(registry_.groups.begin(), registry_.groups.end(),
                           [&](const RegistryEntry& e) { return e.group == cmd.group; });
    if (it == registry_.groups.end()) return;
    registry_.groups.erase(it);
    ++registry_.version;
    remove_channel(cmd.group);
  }
}

void AgreementReplica::maybe_checkpoint() {
  // `ka` counts logical requests, and checkpoints land on batch boundaries
  // (sn_ only ever rests at the end of a processed batch), which keeps
  // commit-channel window moves aligned with stored batch positions.
  if (sn_ < last_cp_ + cfg_.ka) return;
  last_cp_ = sn_;
  checkpointer_->gen_cp(sn_, snapshot_state());
}

Bytes AgreementReplica::snapshot_state() const {
  Writer w;
  codec::write(w, AgreementImage<codec::Ref>{t_, hist_, registry_});
  return std::move(w).take();
}

void AgreementReplica::on_stable_checkpoint(SeqNr s, BytesView state) {
  // Adopt BEFORE telling consensus to collect garbage: gc() advances the
  // floor and synchronously delivers committed instances above it, so a
  // trailing replica checking `s > sn_` after gc would see the post-gap
  // sequence number and skip the adoption — permanently losing the
  // Execute batches below s (state divergence; found by the chaos suite
  // in the equivalent BFT-baseline path).
  bool adopted = false;
  SeqNr old_sn = sn_;
  if (s > sn_) {
    // This replica fell behind: adopt the checkpoint state (L. 47-56).
    if (auto image = codec::try_decode<AgreementImage<>>(state)) {
      sn_ = s;
      t_ = std::move(image->t);
      for (const auto& [c, tc] : t_) {
        t_plus_[c] = std::max(t_plus_[c], tc + 1);
      }
      hist_ = std::move(image->hist);
      // Pending requests the checkpoint proves already agreed must stop
      // driving view changes (their commit happened while we were cut
      // off; it will not be delivered here again).
      pbft_->drop_pending_if([this](BytesView wire) {
        auto req = codec::try_decode<RequestMsg>(wire);
        if (!req) return false;
        auto it = t_.find(req->frame.req.client);
        return it != t_.end() && req->frame.req.counter <= it->second;
      });
      RegistrySnapshot& reg = image->registry;
      if (reg.version > registry_.version) {
        // Reconcile channels with the checkpointed registry.
        for (const RegistryEntry& e : reg.groups) setup_channel(e, /*backfill=*/false);
        for (auto it = channels_.begin(); it != channels_.end();) {
          GroupId g = it->first;
          bool keep = std::any_of(reg.groups.begin(), reg.groups.end(),
                                  [&](const RegistryEntry& e) { return e.group == g; });
          ++it;
          if (!keep) remove_channel(g);
        }
        registry_ = std::move(reg);
      }
      adopted = true;
    }
    // A stable checkpoint is created by >= 1 correct replica; an image that
    // does not decode would indicate a local bug, not a Byzantine peer.
  }

  // Let consensus collect garbage before s+1 (Fig. 17, L. 42-46).
  pbft_->gc(s + 1);

  // Move commit windows to the oldest retained batch boundary so stored
  // positions and window starts stay aligned.
  Position new_lo = hist_.empty() ? s + 1 : hist_.front().first();
  for (auto& [g, ch] : channels_) ch.commit_tx->move_window(0, new_lo);

  if (adopted) {
    // Push the skipped Execute batches out on all commit channels (L. 52-55).
    for (const ExecuteBatchMsg& h : hist_) {
      if (h.first() > old_sn && h.last() <= s) dispatch_execute(h, false);
    }
  }

  last_cp_ = std::max(last_cp_, s);
  win_hi_ = s + cfg_.ag_win;
  process_queue();
}

void AgreementReplica::recover() { checkpointer_->fetch_cp(1); }

}  // namespace spider
