#include "consensus/pbft_replica.hpp"

#include <algorithm>

#include "obs/trace.hpp"
#include "sim/world.hpp"

namespace spider {

using pbft::MsgType;

namespace {
constexpr std::size_t kKnownCap = 200'000;  // bounded dedup memory
}

PbftReplica::PbftReplica(ComponentHost& host, PbftConfig config, BatchDeliverFn deliver,
                         std::uint32_t tag)
    : Component(host, tag),
      cfg_(std::move(config)),
      deliver_(std::move(deliver)),
      views_adopted_(host.world().metrics().counter(
          "pbft_views_adopted", {.node = host.id(), .role = "consensus"})) {
  vc_timeout_cur_ = cfg_.view_change_timeout;
}

std::uint32_t PbftReplica::weight(const std::set<std::uint32_t>& s) const {
  std::uint32_t sum = 0;
  for (std::uint32_t idx : s) sum += cfg_.weight_of(idx);
  return sum;
}

std::optional<std::uint32_t> PbftReplica::index_of(NodeId node) const {
  for (std::uint32_t i = 0; i < cfg_.n(); ++i) {
    if (cfg_.replicas[i] == node) return i;
  }
  return std::nullopt;
}

bool PbftReplica::instance_relevant(SeqNr s) const {
  if (in_window(s)) return true;
  auto it = log_.find(s);
  return it != log_.end() && s + it->second.covers() - 1 > floor_;
}

// --------------------------------------------------------------- auth I/O

void PbftReplica::broadcast(BytesView inner, bool sign) {
  if (host().byzantine().mute) return;
  if (sign) {
    host().charge_sign();
    Bytes sig = crypto().sign(self(), auth_bytes(inner));
    // One signature, one serialization: every group member shares the frame.
    Payload wire = wire_frame(inner, sig);
    for (std::uint32_t i = 0; i < cfg_.n(); ++i) {
      if (i == cfg_.my_index) continue;
      send_wire(cfg_.replicas[i], wire);
    }
  } else {
    // Per-pair MACs differ, but the domain-separated auth bytes are shared.
    Bytes auth = auth_bytes(inner);
    for (std::uint32_t i = 0; i < cfg_.n(); ++i) {
      if (i == cfg_.my_index) continue;
      host().charge_mac();
      send_framed(cfg_.replicas[i], inner, crypto().mac(self(), cfg_.replicas[i], auth));
    }
  }
}

void PbftReplica::send_authed(std::uint32_t idx, BytesView inner) {
  if (host().byzantine().mute || idx == cfg_.my_index) return;
  host().charge_mac();
  Bytes tag_bytes = crypto().mac(self(), cfg_.replicas[idx], auth_bytes(inner));
  send_framed(cfg_.replicas[idx], inner, tag_bytes);
}

void PbftReplica::on_message(NodeId from, BytesView all) {
  if (host().byzantine().mute_rx) return;  // fully-isolated Byzantine node: deaf as well
  if (all.empty()) return host().drop(Drop::kMalformed);
  auto type = static_cast<MsgType>(all[0]);
  const bool signed_msg = type == MsgType::ViewChange || type == MsgType::NewView;
  std::optional<std::uint32_t> idx = index_of(from);
  if (!idx) return host().drop(Drop::kNotMember);
  std::optional<BytesView> body = host().verified_body(from, tag(), all, signed_msg);
  if (!body) return;

  const BytesView fields = body->subspan(1);  // after the type, already inspected
  auto handle = [&]<class M>(void (PbftReplica::*fn)(std::uint32_t, M)) {
    if (auto m = host().decode<M>(fields)) (this->*fn)(*idx, std::move(*m));
  };
  switch (type) {
    case MsgType::PrePrepare: handle(&PbftReplica::handle_preprepare); break;
    case MsgType::Prepare: handle(&PbftReplica::handle_prepare); break;
    case MsgType::Commit: handle(&PbftReplica::handle_commit); break;
    case MsgType::ViewChange: handle(&PbftReplica::handle_viewchange); break;
    case MsgType::NewView: handle(&PbftReplica::handle_newview); break;
    default: host().drop(Drop::kMalformed); break;
  }
}

// --------------------------------------------------------------- ordering

bool PbftReplica::already_known(std::uint64_t key) const { return known_.count(key) > 0; }

void PbftReplica::note_delivered(std::uint64_t key) {
  if (known_.insert(key).second) {
    known_order_.push_back(key);
    if (known_order_.size() > kKnownCap) {
      known_.erase(known_order_.front());
      known_order_.pop_front();
    }
  }
  pending_reqs_.erase(key);
  in_log_.erase(key);
  cancel_request_timer(key);
}

void PbftReplica::order(Bytes m) {
  host().charge_hash(m.size());
  std::uint64_t key = digest_prefix(pbft::request_digest(m));
  if (already_known(key) || pending_reqs_.count(key)) return;
  if (!validate(m)) return;
  pending_reqs_.emplace(key, std::move(m));
  pending_order_.push_back(key);
  arm_request_timer(key);
  try_propose();
}

void PbftReplica::arm_request_timer(std::uint64_t key) {
  if (request_timers_.count(key)) return;
  request_timers_[key] = set_timer(cfg_.request_timeout, [this, key] {
    request_timers_.erase(key);
    if (pending_reqs_.count(key)) start_view_change(view_ + 1);
  });
}

void PbftReplica::cancel_request_timer(std::uint64_t key) {
  auto it = request_timers_.find(key);
  if (it == request_timers_.end()) return;
  cancel_timer(it->second);
  request_timers_.erase(it);
}

void PbftReplica::try_propose() {
  if (!is_primary() || vc_active_) return;
  while (true) {
    if (next_seq_ > floor_ + cfg_.window) return;  // pipeline full until gc
    std::uint64_t fresh = 0;
    for (std::uint64_t key : pending_order_) {
      if (pending_reqs_.count(key) != 0 && in_log_.count(key) == 0) {
        if (++fresh >= cfg_.max_batch) break;  // enough for a full batch
      }
    }
    if (fresh == 0) return;
    if (cfg_.max_batch <= 1 || fresh >= cfg_.max_batch) {
      cut_batch();
      continue;
    }
    // Partial batch: wait up to batch_delay for more requests to coalesce.
    arm_batch_timer();
    return;
  }
}

void PbftReplica::arm_batch_timer() {
  if (batch_timer_ != EventQueue::kInvalidEvent) return;
  batch_timer_ = set_timer(cfg_.batch_delay, [this] {
    batch_timer_ = EventQueue::kInvalidEvent;
    cut_batch();
    try_propose();
  });
}

std::vector<Bytes> PbftReplica::take_pending(std::uint64_t limit) {
  std::vector<Bytes> batch;
  while (!pending_order_.empty() && batch.size() < limit) {
    std::uint64_t key = pending_order_.front();
    auto it = pending_reqs_.find(key);
    if (it == pending_reqs_.end() || in_log_.count(key) != 0) {
      pending_order_.pop_front();
      continue;
    }
    batch.push_back(it->second);
    in_log_.insert(key);
    pending_order_.pop_front();
  }
  return batch;
}

void PbftReplica::cut_batch() {
  if (!is_primary() || vc_active_) return;
  if (next_seq_ > floor_ + cfg_.window) return;
  std::uint64_t room = floor_ + cfg_.window - next_seq_ + 1;
  std::vector<Bytes> batch = take_pending(std::min<std::uint64_t>(cfg_.max_batch, room));
  if (batch.empty()) return;
  propose(std::move(batch));
}

void PbftReplica::propose(std::vector<Bytes> batch) {
  SeqNr s = next_seq_;
  next_seq_ += static_cast<SeqNr>(batch.size());
  Entry& e = log_[s];
  e.view = view_;
  e.has_preprepare = true;
  for (const Bytes& m : batch) host().charge_hash(m.size());
  e.digest = pbft::batch_digest(batch);
  e.requests = std::move(batch);
  e.prepares.insert(cfg_.my_index);  // pre-prepare counts as primary's prepare
  ++batches_proposed_;
  requests_proposed_ += e.requests.size();
  if (auto* t = host().tracer()) {
    t->instant(host().now(), host().id(), "consensus", "propose", "seq", s,
               "batch", e.requests.size());
  }

  pbft::PrePrepareMsg m{view_, s, e.requests};
  if (host().byzantine().equivocate && cfg_.n() >= 3) {
    // Byzantine primary: conflicting but individually plausible proposals
    // for the same sequence number. The first half of the other replicas
    // receives the real batch, the second half a conflicting one (the
    // batch reversed, or a null instance for a singleton batch). Both
    // pass receiver-side validation, but their digests differ, so quorum
    // intersection lets at most one commit; the resulting stall is
    // resolved by the next view change.
    std::vector<Bytes> alt = e.requests;
    if (alt.size() >= 2) {
      std::reverse(alt.begin(), alt.end());
    } else {
      alt.clear();
    }
    pbft::PrePrepareMsg alt_m{view_, s, std::move(alt)};
    const Bytes real_enc = codec::encode(MsgType::PrePrepare, m);
    const Bytes alt_enc = codec::encode(MsgType::PrePrepare, alt_m);
    std::uint32_t others_seen = 0;
    for (std::uint32_t i = 0; i < cfg_.n(); ++i) {
      if (i == cfg_.my_index) continue;
      send_authed(i, others_seen++ < (cfg_.n() - 1) / 2 ? real_enc : alt_enc);
    }
  } else {
    broadcast(codec::encode(MsgType::PrePrepare, m), /*sign=*/false);
  }
  maybe_send_commit(s, e);
}

void PbftReplica::note_view_hint(std::uint32_t from_idx, ViewNr v) {
  if (v <= view_) return;
  ViewNr& h = view_hints_[from_idx];
  h = std::max(h, v);

  // Adopt the highest view v' > view_ that f+1 weight of members have
  // authenticated traffic in: at least one correct replica reached v', and
  // a correct replica only enters a view through a legitimate view change,
  // so jumping there is safe (the log is reconciled below; sequence-number
  // state recovers through gc()/checkpoints).
  ViewNr best = view_;
  for (const auto& [idx1, v1] : view_hints_) {
    if (v1 <= view_) continue;
    std::set<std::uint32_t> idxs;
    for (const auto& [idx2, v2] : view_hints_) {
      if (v2 >= v1) idxs.insert(idx2);
    }
    if (weight(idxs) >= cfg_.f + 1) best = std::max(best, v1);
  }
  if (best > view_) adopt_view(best);
}

void PbftReplica::adopt_view(ViewNr v) {
  // Forward jump without a NewView message (crash-recovery rejoin). We
  // never saw how the new primary resolved in-flight instances, so drop
  // every uncommitted entry — the live quorum's traffic (or the next
  // checkpoint) re-establishes them — and requeue their requests.
  view_ = v;
  views_adopted_.inc();
  if (auto* t = host().tracer()) {
    t->instant(host().now(), host().id(), "consensus", "adopt-view", "view", v);
  }
  vc_active_ = false;
  if (vc_timer_ != EventQueue::kInvalidEvent) {
    cancel_timer(vc_timer_);
    vc_timer_ = EventQueue::kInvalidEvent;
  }
  if (batch_timer_ != EventQueue::kInvalidEvent) {
    cancel_timer(batch_timer_);
    batch_timer_ = EventQueue::kInvalidEvent;
  }
  vc_timeout_cur_ = cfg_.view_change_timeout;
  for (auto it = vcs_.begin(); it != vcs_.end() && it->first <= view_;) it = vcs_.erase(it);

  for (auto it = log_.begin(); it != log_.end();) {
    if (it->second.committed) {
      ++it;
      continue;
    }
    for (const Bytes& req : it->second.requests) {
      if (!req.empty()) in_log_.erase(digest_prefix(pbft::request_digest(req)));
    }
    it = log_.erase(it);
  }
  pending_order_.clear();
  for (auto& [key, req] : pending_reqs_) {
    if (!in_log_.count(key)) pending_order_.push_back(key);
    arm_request_timer(key);
  }
  try_propose();
  try_deliver();
}

void PbftReplica::handle_preprepare(std::uint32_t from_idx, pbft::PrePrepareMsg m) {
  note_view_hint(from_idx, m.view);
  if (vc_active_ || m.view != view_) return;
  if (from_idx != primary_index(m.view)) return;
  if (m.requests.size() > std::max<std::uint64_t>(cfg_.max_batch, 1)) return;
  const SeqNr covers = m.requests.empty() ? 1 : static_cast<SeqNr>(m.requests.size());
  const SeqNr end = m.seq + covers - 1;
  // The whole batch must sit inside the watermark window; the head may
  // straddle a floor this replica already advanced past.
  if (end <= floor_ || m.seq > floor_ + cfg_.window) return;
  for (const Bytes& req : m.requests) {
    if (!validate(req) && !req.empty()) return;
  }

  // Reject proposals overlapping an accepted neighbouring batch (only a
  // Byzantine primary would produce them).
  auto nx = log_.lower_bound(m.seq + 1);
  if (nx != log_.end() && nx->second.has_preprepare && nx->first <= end) return;
  auto pv = log_.lower_bound(m.seq);
  if (pv != log_.begin()) {
    --pv;
    if (pv->second.has_preprepare && pv->first + pv->second.covers() - 1 >= m.seq) return;
  }

  Entry& e = log_[m.seq];
  if (e.has_preprepare) {
    // Duplicate or equivocation: keep the first accepted pre-prepare.
    return;
  }
  e.view = m.view;
  e.has_preprepare = true;
  for (const Bytes& req : m.requests) host().charge_hash(req.size());
  e.digest = pbft::batch_digest(m.requests);
  e.requests = std::move(m.requests);
  e.prepares.insert(from_idx);
  for (const Bytes& req : e.requests) {
    in_log_.insert(digest_prefix(pbft::request_digest(req)));
  }

  if (!is_primary() && !e.prepare_sent) {
    e.prepare_sent = true;
    e.prepares.insert(cfg_.my_index);
    pbft::PrepareMsg p{view_, m.seq, e.digest, cfg_.my_index};
    broadcast(codec::encode(MsgType::Prepare, p), /*sign=*/false);
  }
  maybe_send_commit(m.seq, e);
  try_deliver();
}

void PbftReplica::handle_prepare(std::uint32_t from_idx, pbft::PrepareMsg m) {
  note_view_hint(from_idx, m.view);
  if (vc_active_ || m.view != view_ || !instance_relevant(m.seq)) return;
  Entry& e = log_[m.seq];
  if (e.has_preprepare && !(e.digest == m.digest)) return;  // digest mismatch
  e.prepares.insert(from_idx);
  maybe_send_commit(m.seq, e);
}

void PbftReplica::maybe_send_commit(SeqNr s, Entry& e) {
  if (!e.has_preprepare || e.commit_sent) return;
  if (weight(e.prepares) < cfg_.quorum()) return;
  e.commit_sent = true;
  e.commits.insert(cfg_.my_index);
  if (auto* t = host().tracer()) {
    t->instant(host().now(), host().id(), "consensus", "prepared", "seq", s);
  }
  pbft::CommitMsg c{view_, s, e.digest, cfg_.my_index};
  broadcast(codec::encode(MsgType::Commit, c), /*sign=*/false);
  if (e.has_preprepare && weight(e.commits) >= cfg_.quorum()) {
    e.committed = true;
    if (auto* t = host().tracer()) {
      t->instant(host().now(), host().id(), "consensus", "committed", "seq", s);
    }
    try_deliver();
  }
}

void PbftReplica::handle_commit(std::uint32_t from_idx, pbft::CommitMsg m) {
  note_view_hint(from_idx, m.view);
  if (m.view != view_ || !instance_relevant(m.seq)) return;
  Entry& e = log_[m.seq];
  if (e.has_preprepare && !(e.digest == m.digest)) return;
  e.commits.insert(from_idx);
  if (e.has_preprepare && !e.committed && weight(e.prepares) >= cfg_.quorum() &&
      weight(e.commits) >= cfg_.quorum()) {
    e.committed = true;
    if (auto* t = host().tracer()) {
      t->instant(host().now(), host().id(), "consensus", "committed", "seq", m.seq);
    }
    try_deliver();
  }
}

void PbftReplica::deliver_requests(SeqNr start, SeqNr from, const std::vector<Bytes>& requests) {
  if (requests.empty()) {
    // Null instance: consumes one sequence number.
    deliver_(from, std::vector<Bytes>{Bytes{}});
    return;
  }
  for (const Bytes& req : requests) {
    if (!req.empty()) note_delivered(digest_prefix(pbft::request_digest(req)));
  }
  if (from == start) {
    deliver_(start, requests);
  } else {
    // Head of the batch was already skipped past by gc(); deliver the tail.
    std::vector<Bytes> tail(requests.begin() + static_cast<std::ptrdiff_t>(from - start),
                            requests.end());
    deliver_(from, tail);
  }
}

void PbftReplica::try_deliver() {
  while (true) {
    const SeqNr want = last_delivered_ + 1;
    auto it = log_.upper_bound(want);
    if (it == log_.begin()) return;
    --it;
    Entry& e = it->second;
    const SeqNr start = it->first;
    if (start + e.covers() - 1 < want) return;  // gap before the next instance
    if (!e.committed) return;
    // Copy: callbacks may mutate the log via gc().
    std::vector<Bytes> requests = e.requests;
    last_delivered_ = start + e.covers() - 1;
    if (auto* t = host().tracer()) {
      t->instant(host().now(), host().id(), "consensus", "deliver", "seq", want,
                 "batch", requests.size());
    }
    deliver_requests(start, want, requests);
  }
}

void PbftReplica::drop_pending_if(const std::function<bool(BytesView)>& stale) {
  for (auto it = pending_reqs_.begin(); it != pending_reqs_.end();) {
    if (stale(it->second)) {
      cancel_request_timer(it->first);
      it = pending_reqs_.erase(it);
      // Stale keys left in pending_order_ are skipped by take_pending.
    } else {
      ++it;
    }
  }
}

void PbftReplica::gc(SeqNr s) {
  if (s == 0) return;
  SeqNr new_floor = s - 1;
  if (new_floor <= floor_) return;
  floor_ = new_floor;
  for (auto it = log_.begin(); it != log_.end() && it->first <= floor_;) {
    if (it->first + it->second.covers() - 1 <= floor_) {
      it = log_.erase(it);
    } else {
      ++it;  // batch straddles the floor: its tail is still live
    }
  }
  if (last_delivered_ < floor_) last_delivered_ = floor_;
  if (next_seq_ <= floor_) next_seq_ = floor_ + 1;
  try_deliver();
  try_propose();
}

// --------------------------------------------------------------- view change

void PbftReplica::start_view_change(ViewNr target) {
  if (target <= view_) return;
  if (vc_active_ && vc_target_ >= target) return;
  vc_active_ = true;
  vc_target_ = target;
  ++vc_started_;
  if (auto* t = host().tracer()) {
    t->instant(host().now(), host().id(), "consensus", "view-change", "target",
               target);
  }

  // Suspend request timers; the view-change timer now guards liveness.
  for (auto& [key, timer] : request_timers_) cancel_timer(timer);
  request_timers_.clear();
  if (batch_timer_ != EventQueue::kInvalidEvent) {
    cancel_timer(batch_timer_);
    batch_timer_ = EventQueue::kInvalidEvent;
  }
  if (vc_timer_ != EventQueue::kInvalidEvent) cancel_timer(vc_timer_);
  vc_timer_ = set_timer(vc_timeout_cur_, [this] {
    vc_timer_ = EventQueue::kInvalidEvent;
    if (vc_active_) {
      vc_timeout_cur_ *= 2;
      start_view_change(vc_target_ + 1);
    }
  });

  pbft::ViewChangeMsg vc;
  vc.new_view = target;
  vc.stable_floor = floor_;
  vc.replica = cfg_.my_index;
  for (const auto& [seq, e] : log_) {
    if (seq + e.covers() - 1 <= floor_) continue;
    if (e.has_preprepare && weight(e.prepares) >= cfg_.quorum()) {
      vc.prepared.push_back(pbft::PreparedProof{seq, e.view, e.requests});
    }
  }
  vcs_[target][cfg_.my_index] = vc;
  broadcast(codec::encode(MsgType::ViewChange, vc), /*sign=*/true);
  maybe_complete_view_change(target);
}

void PbftReplica::handle_viewchange(std::uint32_t from_idx, pbft::ViewChangeMsg m) {
  if (m.replica != from_idx) return;  // claimed index must match sender
  if (m.new_view <= view_) return;
  vcs_[m.new_view][from_idx] = std::move(m);
  ViewNr nv = vcs_.rbegin()->first;

  // Join rule: f+1 weight asking for a higher view means at least one
  // correct replica timed out; join to preserve liveness.
  for (auto& [target, senders] : vcs_) {
    if (target <= view_) continue;
    std::set<std::uint32_t> idxs;
    for (auto& [idx, msg] : senders) idxs.insert(idx);
    if (weight(idxs) >= cfg_.f + 1 && (!vc_active_ || vc_target_ < target)) {
      start_view_change(target);
      break;
    }
  }
  maybe_complete_view_change(nv);
}

void PbftReplica::maybe_complete_view_change(ViewNr target) {
  if (target <= view_) return;
  if (primary_index(target) != cfg_.my_index) return;
  auto vit = vcs_.find(target);
  if (vit == vcs_.end()) return;
  std::set<std::uint32_t> idxs;
  for (auto& [idx, msg] : vit->second) idxs.insert(idx);
  if (weight(idxs) < cfg_.quorum()) return;

  // Assemble the new-view proposal set. Proofs cover logical ranges and
  // ranges from different views may overlap with different batch
  // boundaries, so the per-seq "highest view wins" rule must be applied
  // position-wise: at every position the highest-view proof covering it
  // is re-proposed (trimmed to the positions it won), and positions
  // claimed by no prepared batch become null requests.
  SeqNr max_floor = 0;
  SeqNr max_end = 0;
  std::vector<const pbft::PreparedProof*> proofs;
  for (auto& [idx, msg] : vit->second) {
    max_floor = std::max(max_floor, msg.stable_floor);
    for (const pbft::PreparedProof& p : msg.prepared) {
      max_end = std::max(max_end, p.seq + p.covers() - 1);
      proofs.push_back(&p);
    }
  }

  pbft::NewViewMsg nv;
  nv.new_view = target;
  nv.stable_floor = max_floor;
  nv.replica = cfg_.my_index;
  SeqNr s = max_floor + 1;
  while (s <= max_end) {
    const pbft::PreparedProof* chosen = nullptr;
    for (const pbft::PreparedProof* p : proofs) {
      if (p->seq > s || p->seq + p->covers() - 1 < s) continue;  // not covering s
      if (chosen == nullptr || p->view > chosen->view ||
          (p->view == chosen->view && p->seq == s && chosen->seq != s)) {
        chosen = p;
      }
    }
    if (chosen == nullptr) {
      nv.proposals.push_back(pbft::PreparedProof{s, 0, {}});  // null request
      s += 1;
      continue;
    }
    // The chosen batch holds positions [s, cut]: it loses any tail that a
    // higher-view proof (e.g. a committed re-proposal of requeued
    // requests with different batch boundaries) prepared over.
    const SeqNr end = chosen->seq + chosen->covers() - 1;
    SeqNr cut = end;
    for (const pbft::PreparedProof* q : proofs) {
      if (q->view > chosen->view && q->seq > s && q->seq <= end) cut = std::min(cut, q->seq - 1);
    }
    if (chosen->seq == s && cut == end) {
      nv.proposals.push_back(*chosen);
    } else {
      pbft::PreparedProof trimmed;
      trimmed.seq = s;
      trimmed.view = chosen->view;
      if (!chosen->requests.empty()) {
        trimmed.requests.assign(
            chosen->requests.begin() + static_cast<std::ptrdiff_t>(s - chosen->seq),
            chosen->requests.begin() + static_cast<std::ptrdiff_t>(cut - chosen->seq + 1));
      }
      nv.proposals.push_back(std::move(trimmed));
    }
    s = cut + 1;
  }

  broadcast(codec::encode(MsgType::NewView, nv), /*sign=*/true);
  enter_view(target, max_floor, nv.proposals);
}

void PbftReplica::handle_newview(std::uint32_t from_idx, pbft::NewViewMsg m) {
  if (m.new_view <= view_) return;
  if (from_idx != primary_index(m.new_view)) return;
  enter_view(m.new_view, m.stable_floor, m.proposals);
}

void PbftReplica::enter_view(ViewNr v, SeqNr floor_hint, const std::vector<pbft::PreparedProof>& proposals) {
  view_ = v;
  if (auto* t = host().tracer()) {
    t->instant(host().now(), host().id(), "consensus", "new-view", "view", v);
  }
  vc_active_ = false;
  if (vc_timer_ != EventQueue::kInvalidEvent) {
    cancel_timer(vc_timer_);
    vc_timer_ = EventQueue::kInvalidEvent;
  }
  if (batch_timer_ != EventQueue::kInvalidEvent) {
    cancel_timer(batch_timer_);
    batch_timer_ = EventQueue::kInvalidEvent;
  }
  vc_timeout_cur_ = cfg_.view_change_timeout;
  floor_ = std::max(floor_, floor_hint);
  if (last_delivered_ < floor_) last_delivered_ = floor_;

  // Rebuild the log from the new-view proposals.
  log_.clear();
  in_log_.clear();
  next_seq_ = floor_ + 1;
  const std::uint32_t p_idx = primary_index(v);

  for (const pbft::PreparedProof& p : proposals) {
    if (p.seq + p.covers() - 1 <= floor_) continue;
    Entry& e = log_[p.seq];
    e.view = v;
    e.has_preprepare = true;
    e.requests = p.requests;
    e.digest = pbft::batch_digest(p.requests);
    e.prepares.insert(p_idx);
    for (const Bytes& req : e.requests) {
      if (!req.empty()) in_log_.insert(digest_prefix(pbft::request_digest(req)));
    }
    next_seq_ = std::max(next_seq_, p.seq + p.covers());

    if (cfg_.my_index != p_idx) {
      e.prepare_sent = true;
      e.prepares.insert(cfg_.my_index);
      pbft::PrepareMsg pm{v, p.seq, e.digest, cfg_.my_index};
      broadcast(codec::encode(MsgType::Prepare, pm), /*sign=*/false);
    }
    maybe_send_commit(p.seq, e);
  }

  // Requests that lost their instance go back into the proposal queue.
  pending_order_.clear();
  for (auto& [key, req] : pending_reqs_) {
    if (!in_log_.count(key)) pending_order_.push_back(key);
    arm_request_timer(key);
  }
  try_propose();
  try_deliver();
}

}  // namespace spider
