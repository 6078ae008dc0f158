#include "irmc/rc.hpp"

#include <algorithm>

#include "obs/trace.hpp"
#include "sim/world.hpp"

namespace spider {

using irmc::MsgType;

namespace {
/// k+1-highest value of `vals` padded with `def` to `total` entries.
Position kth_highest(std::vector<Position> vals, std::size_t total, std::size_t k, Position def) {
  while (vals.size() < total) vals.push_back(def);
  std::sort(vals.rbegin(), vals.rend());
  return vals[std::min(k, vals.size() - 1)];
}
}  // namespace

// ------------------------------------------------------------------ sender

RcSender::RcSender(ComponentHost& host, IrmcConfig cfg)
    : Component(host, cfg.channel_tag), cfg_(std::move(cfg)) {
  if (cfg_.announce_window) {
    announce_timer_ = set_timer(cfg_.window_announce_interval, [this] { on_announce_timer(); });
  }
}

RcSender::~RcSender() {
  if (announce_timer_ != EventQueue::kInvalidEvent) cancel_timer(announce_timer_);
}

void RcSender::send_move(Subchannel sc, Position p) {
  irmc::MoveMsg mv{sc, p};
  Bytes body = mv.encode();
  Bytes auth = auth_bytes(body);  // shared by all per-receiver MACs
  for (NodeId r : cfg_.receivers) {
    host().charge_mac();
    send_framed(r, body, crypto().mac(self(), r, auth));
  }
}

void RcSender::on_announce_timer() {
  announce_timer_ = set_timer(cfg_.window_announce_interval, [this] { on_announce_timer(); });
  for (const auto& [sc, p] : own_move_) send_move(sc, p);
}

Position RcSender::win_lo(Subchannel sc) const {
  auto it = awin_.find(sc);
  return it == awin_.end() ? 1 : it->second;
}

Position RcSender::window_start(Subchannel sc) const { return win_lo(sc); }

std::optional<std::uint32_t> RcSender::receiver_index(NodeId node) const {
  for (std::uint32_t i = 0; i < cfg_.nr(); ++i) {
    if (cfg_.receivers[i] == node) return i;
  }
  return std::nullopt;
}

void RcSender::transmit(Subchannel sc, Position p, const Bytes& m, bool move) {
  if (auto* t = host().tracer()) {
    t->instant(host().now(), host().id(), "irmc", "rc-send", "sc", sc, "pos", p);
  }
  irmc::SendMsg msg{sc, p, m, move};
  Bytes body = msg.encode();
  // One signature, shared by all receivers (paper A.8).
  host().charge_sign();
  host().charge_hash(body.size());
  Bytes sig = crypto().sign(self(), auth_bytes(body));
  // Serialize the frame once; every receiver, retained retransmission copy
  // and future replay shares this one buffer.
  Payload wire = wire_frame(body, sig);
  for (NodeId r : cfg_.receivers) send_wire(r, wire);
  sent_[sc][p] = std::move(wire);
}

void RcSender::send(Subchannel sc, Position p, Bytes m, SendCallback done) {
  Position lo = win_lo(sc);
  if (p < lo) {
    if (done) done(/*too_old=*/true, lo);
    return;
  }
  if (p <= lo + cfg_.capacity - 1) {
    transmit(sc, p, m);
    if (done) done(false, lo);
    return;
  }
  queued_[sc].emplace(p, Queued{std::move(m), std::move(done)});
}

void RcSender::move_window(Subchannel sc, Position p) {
  Position& cur = own_move_[sc];
  if (p <= cur) return;
  cur = p;
  send_move(sc, p);
}

void RcSender::move_and_send(Subchannel sc, Position p, Bytes m, SendCallback done) {
  Position lo = win_lo(sc);
  auto own = own_move_.find(sc);
  bool repeat = own != own_move_.end() && p <= own->second;
  if (repeat || p < lo || p > lo + cfg_.capacity - 1) {
    // The move already went out (a re-driven request), or the position is
    // outside the window: a separate Move, then a Send that may wait.
    IrmcSenderEndpoint::move_and_send(sc, p, std::move(m), std::move(done));
    return;
  }
  own_move_[sc] = p;
  transmit(sc, p, m, /*move=*/true);
  if (done) done(false, lo);
}

void RcSender::recompute_window(Subchannel sc) {
  std::vector<Position> vals;
  for (std::uint32_t i = 0; i < cfg_.nr(); ++i) {
    auto it = rwin_.find({i, sc});
    vals.push_back(it == rwin_.end() ? 1 : it->second);
  }
  // fr+1 highest requested start: at least one correct receiver allowed it.
  Position lo = kth_highest(std::move(vals), cfg_.nr(), cfg_.fr, 1);
  Position& cur = awin_[sc];
  if (lo > cur) {
    cur = lo;
    auto sit = sent_.find(sc);
    if (sit != sent_.end()) {
      sit->second.erase(sit->second.begin(), sit->second.lower_bound(lo));
    }
    flush_queue(sc);
  }
}

void RcSender::flush_queue(Subchannel sc) {
  auto qit = queued_.find(sc);
  if (qit == queued_.end()) return;
  Position lo = win_lo(sc);
  Position hi = lo + cfg_.capacity - 1;
  auto& q = qit->second;
  for (auto it = q.begin(); it != q.end();) {
    if (it->first < lo) {
      if (it->second.cb) it->second.cb(true, lo);
      it = q.erase(it);
    } else if (it->first <= hi) {
      transmit(sc, it->first, it->second.m);
      if (it->second.cb) it->second.cb(false, lo);
      it = q.erase(it);
    } else {
      break;  // multimap is position-ordered
    }
  }
  if (q.empty()) queued_.erase(qit);
}

void RcSender::on_message(NodeId from, Reader& r) {
  BytesView all = r.raw(r.remaining());
  if (all.empty()) return;
  auto type = static_cast<MsgType>(all[0]);
  if (type != MsgType::Move && type != MsgType::Nack) return;
  std::optional<std::uint32_t> idx = receiver_index(from);
  if (!idx) return;
  std::size_t mac_len = crypto().mac_size();
  if (all.size() <= mac_len) return;
  BytesView body = all.subspan(0, all.size() - mac_len);
  BytesView tag = all.subspan(all.size() - mac_len);
  host().charge_mac();
  if (!host().check_auth_frame(from, Component::tag(), body, tag, /*is_sig=*/false)) return;

  Reader br(body);
  br.u8();
  if (type == MsgType::Nack) {
    answer_nack(from, irmc::NackMsg::decode(br).stalled);
    return;
  }
  irmc::MoveMsg mv = irmc::MoveMsg::decode(br);
  Position& cur = rwin_[{*idx, mv.sc}];
  if (mv.p <= cur) return;  // only accept forward moves
  cur = mv.p;
  recompute_window(mv.sc);
}

void RcSender::answer_nack(NodeId to, const irmc::PositionList& stalled) {
  // The receiver missed transmissions (e.g. it was unreachable): replay the
  // retained wires from each requested position on. First tell it, in one
  // Windows frame, where each window stands, for two chaos-found livelocks
  // (Byzantine sweep seeds 103 / 154):
  //   - our own Move request may have been lost (sent into a partition)
  //     and move_window() dedups repeats, so the receiver would keep
  //     rejecting the replayed Sends as beyond its storage horizon;
  //   - a receiver that crashed and restarted empty nacks position 1,
  //     which fr+1 receivers (itself included, before the crash) already
  //     moved the window past — it must learn the granted window start
  //     so its TooOld path can recover through a checkpoint instead of
  //     waiting forever for garbage-collected content.
  // The window only moves at the receiver once fs+1 senders state it
  // (>= 1 correct), and execution below the new start resumes only after
  // an f+1-signed checkpoint is adopted, so a Byzantine sender cannot
  // use this to skip live content. FIFO links deliver the Windows frame
  // before the replayed Sends.
  irmc::WindowsMsg answer;
  answer.windows.reserve(stalled.size());
  for (const auto& [sc, p] : stalled) {
    Position floor = win_lo(sc);
    auto own = own_move_.find(sc);
    if (own != own_move_.end()) floor = std::max(floor, own->second);
    answer.windows.emplace_back(sc, floor);
  }
  Bytes body = answer.encode();
  host().charge_mac();
  send_framed(to, body, crypto().mac(self(), to, auth_bytes(body)));

  for (const auto& [sc, p] : stalled) {
    auto sit = sent_.find(sc);
    if (sit == sent_.end()) continue;
    int budget = 64;  // bounded replay per entry; the receiver re-nacks if needed
    for (auto it = sit->second.lower_bound(p); it != sit->second.end() && budget > 0;
         ++it, --budget) {
      send_wire(to, it->second);
    }
  }
}

// ---------------------------------------------------------------- receiver

RcReceiver::RcReceiver(ComponentHost& host, IrmcConfig cfg)
    : Component(host, cfg.channel_tag),
      cfg_(std::move(cfg)),
      nack_frames_(host.world().metrics().counter("irmc_nack_frames",
                                                  {.node = host.id(), .role = "irmc"})),
      nack_entries_(host.world().metrics().counter("irmc_nack_entries",
                                                   {.node = host.id(), .role = "irmc"})),
      votes_unverified_(host.world().metrics().counter("irmc_votes_unverified",
                                                       {.node = host.id(), .role = "irmc"})) {}

RcReceiver::~RcReceiver() {
  if (nack_timer_ != EventQueue::kInvalidEvent) cancel_timer(nack_timer_);
}

void RcReceiver::arm_nack_timer() {
  if (nack_timer_ != EventQueue::kInvalidEvent) return;
  nack_timer_ = set_timer(cfg_.window_announce_interval + cfg_.collector_timeout,
                          [this] { on_nack_timer(); });
}

void RcReceiver::on_nack_timer() {
  nack_timer_ = EventQueue::kInvalidEvent;
  bool still_pending = false;
  std::map<Subchannel, Position> stalled_now;
  irmc::NackMsg nack;
  for (const auto& [sc, by_pos] : pending_) {
    if (by_pos.empty()) continue;
    Position want = by_pos.begin()->first;
    if (want < win_lo(sc)) continue;  // TooOld will fire instead
    still_pending = true;
    stalled_now[sc] = want;
    // Only nack when the subchannel made NO progress during a full timer
    // period: steady-state traffic must not trigger retransmissions. An
    // idle subchannel (no Send exists yet) is indistinguishable from one
    // whose Sends were all lost, so it is probed too.
    auto prev = last_stalled_.find(sc);
    if (prev == last_stalled_.end() || prev->second != want) continue;
    nack.stalled.emplace_back(sc, want);
  }
  last_stalled_ = std::move(stalled_now);
  if (!nack.stalled.empty()) {
    // One frame per sender covers every stalled subchannel.
    Bytes body = nack.encode();
    Bytes auth = auth_bytes(body);
    for (NodeId s : cfg_.senders) {
      host().charge_mac();
      send_framed(s, body, crypto().mac(self(), s, auth));
    }
    nack_frames_.inc(cfg_.ns());
    nack_entries_.inc(std::uint64_t{cfg_.ns()} * nack.stalled.size());
  }
  if (still_pending) arm_nack_timer();
}

Position RcReceiver::win_lo(Subchannel sc) const {
  auto it = awin_.find(sc);
  return it == awin_.end() ? 1 : it->second;
}

Position RcReceiver::window_start(Subchannel sc) const { return win_lo(sc); }

std::optional<std::uint32_t> RcReceiver::sender_index(NodeId node) const {
  for (std::uint32_t i = 0; i < cfg_.ns(); ++i) {
    if (cfg_.senders[i] == node) return i;
  }
  return std::nullopt;
}

void RcReceiver::receive(Subchannel sc, Position p, ReceiveCallback cb) {
  Position lo = win_lo(sc);
  if (p < lo) {
    cb(RecvResult{true, lo, {}});
    return;
  }
  auto rit = ready_.find(sc);
  if (rit != ready_.end()) {
    auto mit = rit->second.find(p);
    if (mit != rit->second.end()) {
      cb(RecvResult{false, 0, mit->second});
      return;
    }
  }
  pending_[sc][p].push_back(std::move(cb));
  arm_nack_timer();
}

void RcReceiver::move_window(Subchannel sc, Position p) {
  internal_move(sc, p);
}

void RcReceiver::internal_move(Subchannel sc, Position p) {
  Position& cur = awin_[sc];
  if (p <= cur) return;
  cur = p;

  // Garbage-collect stored state below the window.
  auto sit = slots_.find(sc);
  if (sit != slots_.end()) {
    sit->second.erase(sit->second.begin(), sit->second.lower_bound(p));
  }
  auto rit = ready_.find(sc);
  if (rit != ready_.end()) {
    rit->second.erase(rit->second.begin(), rit->second.lower_bound(p));
  }

  // Abort superseded receive() calls with TooOld (paper Fig. 14).
  auto pit = pending_.find(sc);
  if (pit != pending_.end()) {
    auto& by_pos = pit->second;
    for (auto it = by_pos.begin(); it != by_pos.end() && it->first < p;) {
      for (ReceiveCallback& cb : it->second) cb(RecvResult{true, p, {}});
      it = by_pos.erase(it);
    }
  }

  // Tell the senders.
  irmc::MoveMsg mv{sc, p};
  Bytes body = mv.encode();
  Bytes auth = auth_bytes(body);
  for (NodeId s : cfg_.senders) {
    host().charge_mac();
    send_framed(s, body, crypto().mac(self(), s, auth));
  }
}

bool RcReceiver::vote_counts(std::uint32_t idx, Subchannel sc, Position p) const {
  auto rit = ready_.find(sc);
  if (rit != ready_.end() && rit->second.count(p) > 0) return false;
  auto sit = slots_.find(sc);
  if (sit == slots_.end()) return true;
  auto slot = sit->second.find(p);
  return slot == sit->second.end() || slot->second.voters.count(idx) == 0;
}

bool RcReceiver::move_counts(std::uint32_t idx, Subchannel sc, Position p) const {
  auto it = smoves_.find({idx, sc});
  return p > win_lo(sc) && (it == smoves_.end() || p > it->second);
}

void RcReceiver::try_deliver(Subchannel sc, Position p) {
  auto sit = slots_.find(sc);
  if (sit == slots_.end()) return;
  auto slot_it = sit->second.find(p);
  if (slot_it == sit->second.end()) return;

  for (auto& [digest, cand] : slot_it->second.candidates) {
    if (cand.second >= cfg_.fs + 1) {
      ready_[sc][p] = cand.first;
      if (auto* t = host().tracer()) {
        t->instant(host().now(), host().id(), "irmc", "rc-deliver", "sc", sc,
                   "pos", p);
      }
      auto pit = pending_.find(sc);
      if (pit != pending_.end()) {
        auto cb_it = pit->second.find(p);
        if (cb_it != pit->second.end()) {
          std::vector<ReceiveCallback> cbs = std::move(cb_it->second);
          pit->second.erase(cb_it);
          for (ReceiveCallback& cb : cbs) cb(RecvResult{false, 0, ready_[sc][p]});
        }
      }
      return;
    }
  }
}

void RcReceiver::on_message(NodeId from, Reader& r) {
  BytesView all = r.raw(r.remaining());
  if (all.empty()) return;
  std::optional<std::uint32_t> idx = sender_index(from);
  if (!idx) return;

  auto type = static_cast<MsgType>(all[0]);
  if (type == MsgType::Send || type == MsgType::SendMove) {
    std::size_t sig_len = crypto().signature_size();
    if (all.size() <= sig_len) return;
    BytesView body = all.subspan(0, all.size() - sig_len);
    BytesView sig = all.subspan(all.size() - sig_len);
    Reader br(body);
    br.u8();
    irmc::SendMsgView msg = irmc::SendMsgView::decode(br);
    const bool moves = type == MsgType::SendMove;
    // Skip the signature check when the frame can change nothing: the vote
    // cannot count, and it carries no window statement that could.
    const bool counts = vote_counts(*idx, msg.sc, msg.p);
    if (!counts && !(moves && move_counts(*idx, msg.sc, msg.p))) {
      votes_unverified_.inc();
      return;
    }
    host().charge_verify();
    if (!host().check_auth_frame(from, Component::tag(), body, sig, /*is_sig=*/true)) return;

    note_subchannel(msg.sc);
    // Where a separate Move preceding this Send would have been applied.
    if (moves) apply_move(from, *idx, msg.sc, msg.p);
    if (!counts) return;
    Position lo = win_lo(msg.sc);
    // Store only within a bounded horizon (window + one extra window of
    // slack for senders running ahead of this receiver).
    if (msg.p < lo || msg.p > lo + 2 * cfg_.capacity - 1) return;

    host().charge_hash(msg.payload.size());
    std::uint64_t key = digest_prefix(host().hash_cached(msg.payload));
    Slot& slot = slots_[msg.sc][msg.p];
    slot.voters.insert(*idx);
    auto& cand = slot.candidates[key];
    if (cand.second++ == 0) cand.first = host().capture(msg.payload);
    try_deliver(msg.sc, msg.p);
  } else if (type == MsgType::Move || type == MsgType::Windows) {
    std::size_t mac_len = crypto().mac_size();
    if (all.size() <= mac_len) return;
    BytesView body = all.subspan(0, all.size() - mac_len);
    BytesView tag = all.subspan(all.size() - mac_len);
    host().charge_mac();
    if (!host().check_auth_frame(from, Component::tag(), body, tag, /*is_sig=*/false)) return;

    Reader br(body);
    br.u8();
    if (type == MsgType::Move) {
      irmc::MoveMsg mv = irmc::MoveMsg::decode(br);
      apply_move(from, *idx, mv.sc, mv.p);
    } else {
      for (const auto& [sc, p] : irmc::WindowsMsg::decode(br).windows) {
        apply_move(from, *idx, sc, p);
      }
    }
  }
}

void RcReceiver::apply_move(NodeId from, std::uint32_t idx, Subchannel sc, Position p) {
  note_subchannel(sc);

  if (win_lo(sc) > p) {
    // The sender requested a window we already moved past — it is behind
    // on window state (e.g. a crash-recovered sender endpoint that lost
    // its view of the channel). Grant it our current window start so it
    // can flush sends queued behind the stale window.
    irmc::MoveMsg grant{sc, win_lo(sc)};
    Bytes gbody = grant.encode();
    host().charge_mac();
    send_framed(from, gbody, crypto().mac(self(), from, auth_bytes(gbody)));
  }

  Position& cur = smoves_[{idx, sc}];
  if (p <= cur) return;
  cur = p;

  // fs+1-highest sender request forces our window forward (A.19).
  std::vector<Position> vals;
  for (std::uint32_t i = 0; i < cfg_.ns(); ++i) {
    auto it = smoves_.find({i, sc});
    vals.push_back(it == smoves_.end() ? 1 : it->second);
  }
  std::sort(vals.rbegin(), vals.rend());
  Position nw = vals[std::min<std::size_t>(cfg_.fs, vals.size() - 1)];
  if (win_lo(sc) < nw) internal_move(sc, nw);
}

}  // namespace spider
