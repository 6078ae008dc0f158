#include "irmc/sc.hpp"

#include <algorithm>

#include "irmc/rc.hpp"
#include "obs/trace.hpp"
#include "sim/world.hpp"

namespace spider {

using irmc::MsgType;

namespace {
Position kth_highest(std::vector<Position> vals, std::size_t k) {
  std::sort(vals.rbegin(), vals.rend());
  return vals[std::min(k, vals.size() - 1)];
}

}  // namespace

// ------------------------------------------------------------------ sender

ScSender::ScSender(ComponentHost& host, IrmcConfig cfg)
    : Component(host, cfg.channel_tag), cfg_(std::move(cfg)) {
  for (std::uint32_t i = 0; i < cfg_.ns(); ++i) {
    if (cfg_.senders[i] == self()) my_index_ = i;
  }
  progress_timer_ = set_timer(cfg_.progress_interval, [this] { on_progress_timer(); });
  if (cfg_.announce_window) {
    announce_timer_ = set_timer(cfg_.window_announce_interval, [this] { on_announce_timer(); });
  }
}

ScSender::~ScSender() {
  if (progress_timer_ != EventQueue::kInvalidEvent) cancel_timer(progress_timer_);
  if (announce_timer_ != EventQueue::kInvalidEvent) cancel_timer(announce_timer_);
}

void ScSender::send_move(Subchannel sc, Position p) {
  irmc::MoveMsg mv{sc, p};
  Bytes body = mv.encode();
  Bytes auth = auth_bytes(body);  // shared by all per-receiver MACs
  for (NodeId r : cfg_.receivers) {
    host().charge_mac();
    send_framed(r, body, crypto().mac(self(), r, auth));
  }
}

void ScSender::on_announce_timer() {
  announce_timer_ = set_timer(cfg_.window_announce_interval, [this] { on_announce_timer(); });
  for (const auto& [sc, p] : own_move_) send_move(sc, p);
}

Position ScSender::win_lo(Subchannel sc) const {
  auto it = awin_.find(sc);
  return it == awin_.end() ? 1 : it->second;
}

Position ScSender::window_start(Subchannel sc) const { return win_lo(sc); }

std::optional<std::uint32_t> ScSender::sender_index(NodeId node) const {
  for (std::uint32_t i = 0; i < cfg_.ns(); ++i) {
    if (cfg_.senders[i] == node) return i;
  }
  return std::nullopt;
}

std::optional<std::uint32_t> ScSender::receiver_index(NodeId node) const {
  for (std::uint32_t i = 0; i < cfg_.nr(); ++i) {
    if (cfg_.receivers[i] == node) return i;
  }
  return std::nullopt;
}

void ScSender::send(Subchannel sc, Position p, Bytes m, SendCallback done) {
  Position lo = win_lo(sc);
  if (p < lo) {
    if (done) done(true, lo);
    return;
  }
  if (p <= lo + cfg_.capacity - 1) {
    start_transmit(sc, p, std::move(m));
    if (done) done(false, lo);
    return;
  }
  queued_[sc].emplace(p, Queued{std::move(m), std::move(done)});
}

void ScSender::start_transmit(Subchannel sc, Position p, Bytes m) {
  if (auto* t = host().tracer()) {
    t->instant(host().now(), host().id(), "irmc", "sc-send", "sc", sc, "pos", p);
  }
  Payload payload(std::move(m));
  host().charge_hash(payload.size());
  irmc::SigShareMsg share{sc, p, payload.digest()};
  Bytes body = share.encode();
  host().charge_sign();
  Bytes sig = crypto().sign(self(), auth_bytes(body));

  payloads_[sc][p] = std::move(payload);
  shares_[sc][p].shares[my_index_] = {digest_prefix(share.digest), sig};

  // Distribute the share within the sender group (intra-region traffic):
  // one frame, shared by every group member.
  Payload wire = wire_frame(body, sig);
  for (std::uint32_t i = 0; i < cfg_.ns(); ++i) {
    if (i == my_index_) continue;
    send_wire(cfg_.senders[i], wire);
  }
  try_certificate(sc, p);
}

void ScSender::try_certificate(Subchannel sc, Position p) {
  if (certificates_[sc].count(p)) return;
  auto pit = payloads_[sc].find(p);
  if (pit == payloads_[sc].end()) return;

  // Memoized: start_transmit already hashed this payload.
  irmc::SigShareMsg my_share{sc, p, pit->second.digest()};
  std::uint64_t want = digest_prefix(my_share.digest);

  auto sit = shares_[sc].find(p);
  if (sit == shares_[sc].end()) return;
  std::vector<std::pair<std::uint32_t, Bytes>> matching;
  for (const auto& [idx, entry] : sit->second.shares) {
    if (entry.first == want) matching.emplace_back(idx, entry.second);
    if (matching.size() == cfg_.fs + 1) break;
  }
  if (matching.size() < cfg_.fs + 1) return;

  irmc::CertificateMsg cert{sc, p, pit->second.to_bytes(), std::move(matching)};
  Bytes body = cert.encode();
  // The collector signs the certificate (paper Fig. 19, L. 23 signs; we
  // follow the paper text: "sends it in a signed Certificate message").
  host().charge_sign();
  Bytes sig = crypto().sign(self(), auth_bytes(body));
  certificates_[sc][p] = wire_frame(body, sig);

  for (std::uint32_t ri = 0; ri < cfg_.nr(); ++ri) {
    auto cit = collector_[sc].find(ri);
    std::uint32_t chosen = cit != collector_[sc].end() ? cit->second : ri % cfg_.ns();
    if (chosen == my_index_) send_certificate_to(ri, sc, p);
  }
}

void ScSender::send_certificate_to(std::uint32_t receiver_idx, Subchannel sc, Position p) {
  auto cit = certificates_[sc].find(p);
  if (cit == certificates_[sc].end()) return;
  send_wire(cfg_.receivers[receiver_idx], cit->second);
}

void ScSender::on_progress_timer() {
  progress_timer_ = set_timer(cfg_.progress_interval, [this] { on_progress_timer(); });
  irmc::ProgressMsg pm;
  for (const auto& [sc, certs] : certificates_) {
    Position lo = win_lo(sc);
    Position p = 0;
    for (Position q = lo;; ++q) {
      if (!certs.count(q)) break;
      p = q;
    }
    if (p != 0) pm.progress.emplace_back(sc, p);
  }
  if (pm.progress.empty()) return;
  Bytes body = pm.encode();
  Bytes auth = auth_bytes(body);
  for (NodeId r : cfg_.receivers) {
    host().charge_mac();
    send_framed(r, body, crypto().mac(self(), r, auth));
  }
}

void ScSender::move_window(Subchannel sc, Position p) {
  Position& cur = own_move_[sc];
  if (p <= cur) return;
  cur = p;
  send_move(sc, p);
}

void ScSender::recompute_window(Subchannel sc) {
  std::vector<Position> vals;
  for (std::uint32_t i = 0; i < cfg_.nr(); ++i) {
    auto it = rwin_.find({i, sc});
    vals.push_back(it == rwin_.end() ? 1 : it->second);
  }
  Position lo = kth_highest(std::move(vals), cfg_.fr);
  Position& cur = awin_[sc];
  if (lo > cur) {
    cur = lo;
    // Garbage-collect per-position state below the window.
    auto gc = [&](auto& by_sc) {
      auto it = by_sc.find(sc);
      if (it == by_sc.end()) return;
      it->second.erase(it->second.begin(), it->second.lower_bound(lo));
    };
    gc(payloads_);
    gc(shares_);
    gc(certificates_);
    flush_queue(sc);
  }
}

void ScSender::flush_queue(Subchannel sc) {
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
      start_transmit(sc, it->first, std::move(it->second.m));
      if (it->second.cb) it->second.cb(false, lo);
      it = q.erase(it);
    } else {
      break;
    }
  }
  if (q.empty()) queued_.erase(qit);
}

void ScSender::on_message(NodeId from, Reader& r) {
  BytesView all = r.raw(r.remaining());
  if (all.empty()) return;
  auto type = static_cast<MsgType>(all[0]);

  if (type == MsgType::SigShare) {
    std::optional<std::uint32_t> idx = sender_index(from);
    if (!idx) return;
    std::size_t sig_len = crypto().signature_size();
    if (all.size() <= sig_len) return;
    BytesView body = all.subspan(0, all.size() - sig_len);
    BytesView sig = all.subspan(all.size() - sig_len);
    host().charge_verify();
    if (!host().check_auth_frame(from, Component::tag(), body, sig, /*is_sig=*/true)) return;

    Reader br(body);
    br.u8();
    irmc::SigShareMsg share = irmc::SigShareMsg::decode(br);
    Position lo = win_lo(share.sc);
    if (share.p < lo || share.p > lo + 2 * cfg_.capacity - 1) return;
    auto& slot = shares_[share.sc][share.p].shares;
    if (!slot.count(*idx)) {
      slot[*idx] = {digest_prefix(share.digest), to_bytes(sig)};
      try_certificate(share.sc, share.p);
    }
  } else if (type == MsgType::Move) {
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
    irmc::MoveMsg mv = irmc::MoveMsg::decode(br);
    Position& cur = rwin_[{*idx, mv.sc}];
    if (mv.p <= cur) return;
    cur = mv.p;
    recompute_window(mv.sc);
  } else if (type == MsgType::Select) {
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
    irmc::SelectMsg sel = irmc::SelectMsg::decode(br);
    collector_[sel.sc][*idx] = sel.collector;
    if (sel.collector == my_index_) {
      // Queued certificates for this subchannel go out to the new selector.
      auto cit = certificates_.find(sel.sc);
      if (cit != certificates_.end()) {
        for (const auto& [p, wire] : cit->second) send_wire(cfg_.receivers[*idx], wire);
      }
    }
  }
}

// ---------------------------------------------------------------- receiver

ScReceiver::ScReceiver(ComponentHost& host, IrmcConfig cfg)
    : Component(host, cfg.channel_tag), cfg_(std::move(cfg)) {
  for (std::uint32_t i = 0; i < cfg_.nr(); ++i) {
    if (cfg_.receivers[i] == self()) my_index_ = i;
  }
}

ScReceiver::~ScReceiver() {
  for (auto& [sc, timer] : gap_timers_) cancel_timer(timer);
}

Position ScReceiver::win_lo(Subchannel sc) const {
  auto it = awin_.find(sc);
  return it == awin_.end() ? 1 : it->second;
}

Position ScReceiver::window_start(Subchannel sc) const { return win_lo(sc); }

std::uint32_t ScReceiver::collector(Subchannel sc) const {
  auto it = collector_.find(sc);
  return it == collector_.end() ? my_index_ % cfg_.ns() : it->second;
}

std::optional<std::uint32_t> ScReceiver::sender_index(NodeId node) const {
  for (std::uint32_t i = 0; i < cfg_.ns(); ++i) {
    if (cfg_.senders[i] == node) return i;
  }
  return std::nullopt;
}

void ScReceiver::receive(Subchannel sc, Position p, ReceiveCallback cb) {
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
}

void ScReceiver::move_window(Subchannel sc, Position p) { internal_move(sc, p); }

void ScReceiver::internal_move(Subchannel sc, Position p) {
  Position& cur = awin_[sc];
  if (p <= cur) return;
  cur = p;

  auto rit = ready_.find(sc);
  if (rit != ready_.end()) {
    rit->second.erase(rit->second.begin(), rit->second.lower_bound(p));
  }
  auto pit = pending_.find(sc);
  if (pit != pending_.end()) {
    auto& by_pos = pit->second;
    for (auto it = by_pos.begin(); it != by_pos.end() && it->first < p;) {
      for (ReceiveCallback& cb : it->second) cb(RecvResult{true, p, {}});
      it = by_pos.erase(it);
    }
  }

  irmc::MoveMsg mv{sc, p};
  Bytes body = mv.encode();
  Bytes auth = auth_bytes(body);
  for (NodeId s : cfg_.senders) {
    host().charge_mac();
    send_framed(s, body, crypto().mac(self(), s, auth));
  }
}

void ScReceiver::deliver_ready(Subchannel sc, Position p) {
  auto pit = pending_.find(sc);
  if (pit == pending_.end()) return;
  auto cb_it = pit->second.find(p);
  if (cb_it == pit->second.end()) return;
  if (auto* t = host().tracer()) {
    t->instant(host().now(), host().id(), "irmc", "sc-deliver", "sc", sc, "pos", p);
  }
  std::vector<ReceiveCallback> cbs = std::move(cb_it->second);
  pit->second.erase(cb_it);
  const Payload& msg = ready_[sc][p];
  for (ReceiveCallback& cb : cbs) cb(RecvResult{false, 0, msg});
}

bool ScReceiver::has_gap(Subchannel sc) const {
  auto pmit = pm_.find(sc);
  if (pmit == pm_.end()) return false;
  Position lo = win_lo(sc);
  Position hi = std::min(pmit->second, lo + cfg_.capacity - 1);
  auto rit = ready_.find(sc);
  for (Position p = lo; p <= hi; ++p) {
    if (rit == ready_.end() || !rit->second.count(p)) return true;
  }
  return false;
}

void ScReceiver::arm_gap_timer(Subchannel sc) {
  if (gap_timers_.count(sc)) return;
  gap_timers_[sc] = set_timer(cfg_.collector_timeout, [this, sc] { on_gap_timer(sc); });
}

void ScReceiver::on_gap_timer(Subchannel sc) {
  gap_timers_.erase(sc);
  if (!has_gap(sc)) return;
  // Collector failed to provide certificates other senders claim to have:
  // switch to the next sender (paper Fig. 20, L. 30-35).
  std::uint32_t next = (collector(sc) + 1) % cfg_.ns();
  collector_[sc] = next;
  irmc::SelectMsg sel{sc, next};
  Bytes body = sel.encode();
  Bytes auth = auth_bytes(body);
  for (NodeId s : cfg_.senders) {
    host().charge_mac();
    send_framed(s, body, crypto().mac(self(), s, auth));
  }
  arm_gap_timer(sc);
}

void ScReceiver::on_message(NodeId from, Reader& r) {
  BytesView all = r.raw(r.remaining());
  if (all.empty()) return;
  std::optional<std::uint32_t> idx = sender_index(from);
  if (!idx) return;
  auto type = static_cast<MsgType>(all[0]);

  if (type == MsgType::Certificate) {
    std::size_t sig_len = crypto().signature_size();
    if (all.size() <= sig_len) return;
    BytesView body = all.subspan(0, all.size() - sig_len);
    BytesView sig = all.subspan(all.size() - sig_len);
    host().charge_verify();
    if (!host().check_auth_frame(from, Component::tag(), body, sig, /*is_sig=*/true)) return;

    Reader br(body);
    br.u8();
    irmc::CertificateMsgView cert = irmc::CertificateMsgView::decode(br);
    note_subchannel(cert.sc);
    Position lo = win_lo(cert.sc);
    if (cert.p < lo || cert.p > lo + 2 * cfg_.capacity - 1) return;
    if (ready_[cert.sc].count(cert.p)) return;

    // Verify fs+1 share signatures from distinct senders over the
    // reconstructed SigShare bytes.
    if (cert.shares.size() != cfg_.fs + 1) return;
    host().charge_hash(cert.payload.size());
    irmc::SigShareMsg expect{cert.sc, cert.p, host().hash_cached(cert.payload)};
    Bytes share_auth = auth_bytes(expect.encode());
    std::set<std::uint32_t> seen;
    for (const auto& [sidx, ssig] : cert.shares) {
      if (sidx >= cfg_.ns() || seen.count(sidx)) return;
      host().charge_verify();
      if (!crypto().verify(cfg_.senders[sidx], share_auth, ssig)) return;
      seen.insert(sidx);
    }

    ready_[cert.sc][cert.p] = host().capture(cert.payload);
    deliver_ready(cert.sc, cert.p);
    if (!has_gap(cert.sc)) {
      auto tit = gap_timers_.find(cert.sc);
      if (tit != gap_timers_.end()) {
        cancel_timer(tit->second);
        gap_timers_.erase(tit);
      }
    }
  } else if (type == MsgType::Move || type == MsgType::Progress) {
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
      note_subchannel(mv.sc);
      Position& cur = smoves_[{*idx, mv.sc}];
      if (mv.p <= cur) return;
      cur = mv.p;
      std::vector<Position> vals;
      for (std::uint32_t i = 0; i < cfg_.ns(); ++i) {
        auto it = smoves_.find({i, mv.sc});
        vals.push_back(it == smoves_.end() ? 1 : it->second);
      }
      Position nw = kth_highest(std::move(vals), cfg_.fs);
      if (win_lo(mv.sc) < nw) internal_move(mv.sc, nw);
    } else {
      irmc::ProgressMsg pmsg = irmc::ProgressMsg::decode(br);
      for (const auto& [sc, p] : pmsg.progress) {
        Position& pe = pe_[{*idx, sc}];
        pe = std::max(pe, p);
        std::vector<Position> vals;
        for (std::uint32_t i = 0; i < cfg_.ns(); ++i) {
          auto it = pe_.find({i, sc});
          vals.push_back(it == pe_.end() ? 0 : it->second);
        }
        pm_[sc] = kth_highest(std::move(vals), cfg_.fs);
        if (has_gap(sc)) arm_gap_timer(sc);
      }
    }
  }
}

// ------------------------------------------------------------------ factory

std::unique_ptr<IrmcSenderEndpoint> make_irmc_sender(IrmcKind kind, ComponentHost& host,
                                                     IrmcConfig cfg) {
  if (kind == IrmcKind::ReceiverCollect) return std::make_unique<RcSender>(host, std::move(cfg));
  return std::make_unique<ScSender>(host, std::move(cfg));
}

std::unique_ptr<IrmcReceiverEndpoint> make_irmc_receiver(IrmcKind kind, ComponentHost& host,
                                                         IrmcConfig cfg) {
  if (kind == IrmcKind::ReceiverCollect) return std::make_unique<RcReceiver>(host, std::move(cfg));
  return std::make_unique<ScReceiver>(host, std::move(cfg));
}

}  // namespace spider
