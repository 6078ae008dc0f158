#include "irmc/sc.hpp"

#include <algorithm>
#include <set>

#include "obs/trace.hpp"

namespace spider {

using irmc::MsgType;

// ------------------------------------------------------------------ sender

ScSender::ScSender(ComponentHost& host, IrmcConfig cfg)
    : IrmcSenderEndpoint(host, std::move(cfg)),
      my_index_(irmc::index_of(cfg_.senders, self()).value_or(0)) {
  progress_timer_ = set_timer(cfg_.progress_interval, [this] { on_progress_timer(); });
}

ScSender::~ScSender() {
  if (progress_timer_ != EventQueue::kInvalidEvent) cancel_timer(progress_timer_);
}

void ScSender::transmit(Subchannel sc, Position p, Bytes m, bool move) {
  if (move) send_move(sc, p);
  if (auto* t = host().tracer()) {
    t->instant(host().now(), host().id(), "irmc", "sc-send", "sc", sc, "pos", p);
  }
  Payload payload(std::move(m));
  host().charge_hash(payload.size());
  irmc::SigShareMsg share{sc, p, payload.digest()};
  Bytes body = codec::encode(MsgType::SigShare, share);
  host().charge_sign();
  Bytes sig = crypto().sign(self(), auth_bytes(body));

  Collect& c = collect(sc);
  Slot& slot = c.slots[p];
  slot.payload = std::move(payload);
  slot.shares[my_index_] = {digest_prefix(share.digest), sig};

  // Distribute the share within the sender group (intra-region traffic):
  // one frame, shared by every group member.
  Payload wire = wire_frame(body, sig);
  for (std::uint32_t i = 0; i < cfg_.ns(); ++i) {
    if (i != my_index_) send_wire(cfg_.senders[i], wire);
  }
  try_certificate(sc, p, c, slot);
}

void ScSender::drop_below(Subchannel sc, Position lo) {
  auto it = collect_.find(sc);
  if (it == collect_.end()) return;
  auto& slots = it->second.slots;
  slots.erase(slots.begin(), slots.lower_bound(lo));
}

void ScSender::try_certificate(Subchannel sc, Position p, const Collect& c, Slot& slot) {
  if (!slot.certificate.empty() || !slot.payload) return;
  // Memoized: transmit() already hashed this payload.
  const std::uint64_t want = digest_prefix(slot.payload->digest());
  std::vector<std::pair<std::uint32_t, BytesView>> matching;
  for (const auto& [idx, entry] : slot.shares) {
    if (entry.first == want) matching.emplace_back(idx, entry.second);
    if (matching.size() == cfg_.fs + 1) break;
  }
  if (matching.size() < cfg_.fs + 1) return;

  Bytes body = codec::encode(
      MsgType::Certificate,
      irmc::CertificateMsgView{sc, p, slot.payload->view(), std::move(matching)});
  // The collector signs the certificate (paper Fig. 19, L. 23 signs; we
  // follow the paper text: "sends it in a signed Certificate message").
  host().charge_sign();
  Bytes sig = crypto().sign(self(), auth_bytes(body));
  slot.certificate = wire_frame(body, sig);

  for (std::uint32_t ri = 0; ri < cfg_.nr(); ++ri) {
    if (c.collector[ri] == my_index_) send_wire(cfg_.receivers[ri], slot.certificate);
  }
}

void ScSender::on_progress_timer() {
  progress_timer_ = set_timer(cfg_.progress_interval, [this] { on_progress_timer(); });
  // Per subchannel: the last position of the certificate run that starts
  // at the window start.
  irmc::ProgressMsg pm;
  for (const auto& [sc, c] : collect_) {
    const Position lo = window_start(sc);
    Position next = lo;
    for (auto it = c.slots.lower_bound(lo);
         it != c.slots.end() && it->first == next && !it->second.certificate.empty(); ++it) {
      ++next;
    }
    if (next > lo) pm.progress.emplace_back(sc, next - 1);
  }
  if (!pm.progress.empty()) send_maced(cfg_.receivers, codec::encode(MsgType::Progress, pm));
}

void ScSender::on_message(NodeId from, BytesView frame) {
  if (frame.empty()) return host().drop(Drop::kMalformed);
  auto type = static_cast<MsgType>(frame[0]);
  // Fellow senders sign their SigShares; receivers MAC Move and Select.
  const bool share = type == MsgType::SigShare;
  if (!share && type != MsgType::Move && type != MsgType::Select) {
    return host().drop(Drop::kMalformed);
  }
  std::optional<std::uint32_t> idx = irmc::index_of(share ? cfg_.senders : cfg_.receivers, from);
  if (!idx) return host().drop(Drop::kNotMember);
  std::optional<BytesView> body = host().verified_body(from, tag(), frame, /*is_sig=*/share);
  if (!body) return;

  const BytesView fields = body->subspan(1);
  if (type == MsgType::Move) {
    if (auto mv = host().decode<irmc::MoveMsg>(fields)) on_receiver_move(*idx, mv->sc, mv->p);
  } else if (share) {
    auto s = host().decode<irmc::SigShareMsg>(fields);
    if (!s) return;
    Position lo = window_start(s->sc);
    if (s->p < lo || s->p > lo + 2 * cfg_.capacity - 1) return;
    Collect& c = collect(s->sc);
    Slot& slot = c.slots[s->p];
    auto [entry, fresh] = slot.shares.try_emplace(*idx);
    if (!fresh) return;
    entry->second = {digest_prefix(s->digest), to_bytes(frame.subspan(body->size()))};
    try_certificate(s->sc, s->p, c, slot);
  } else {
    auto sel = host().decode<irmc::SelectMsg>(fields);
    if (!sel) return;
    Collect& c = collect(sel->sc);
    c.collector[*idx] = sel->collector;
    if (sel->collector != my_index_) return;
    // Held certificates for this subchannel go out to the new selector.
    for (const auto& [p, slot] : c.slots) {
      if (!slot.certificate.empty()) send_wire(cfg_.receivers[*idx], slot.certificate);
    }
  }
}

// ---------------------------------------------------------------- receiver

ScReceiver::ScReceiver(ComponentHost& host, IrmcConfig cfg)
    : IrmcReceiverEndpoint(host, std::move(cfg)),
      my_index_(irmc::index_of(cfg_.receivers, self()).value_or(0)) {}

ScReceiver::~ScReceiver() {
  for (auto& [sc, g] : gaps_) {
    if (g.timer != EventQueue::kInvalidEvent) cancel_timer(g.timer);
  }
}

std::uint32_t ScReceiver::collector(Subchannel sc) const {
  auto it = gaps_.find(sc);
  return it == gaps_.end() ? my_index_ % cfg_.ns() : it->second.collector;
}

bool ScReceiver::has_gap(const Window& w, const Gap& g) const {
  const Position hi = std::min(g.merged, w.start + cfg_.capacity - 1);
  for (Position p = w.start; p <= hi; ++p) {
    if (!w.ready.count(p)) return true;
  }
  return false;
}

void ScReceiver::arm_gap_timer(Subchannel sc, Gap& g) {
  if (g.timer != EventQueue::kInvalidEvent) return;
  g.timer = set_timer(cfg_.collector_timeout, [this, sc] { on_gap_timer(sc); });
}

void ScReceiver::on_gap_timer(Subchannel sc) {
  Gap& g = gap(sc);
  g.timer = EventQueue::kInvalidEvent;
  if (!has_gap(window(sc), g)) return;
  // Collector failed to provide certificates other senders claim to have:
  // switch to the next sender (paper Fig. 20, L. 30-35).
  g.collector = (g.collector + 1) % cfg_.ns();
  send_maced(cfg_.senders, codec::encode(MsgType::Select, irmc::SelectMsg{sc, g.collector}));
  arm_gap_timer(sc, g);
}

void ScReceiver::on_message(NodeId from, BytesView frame) {
  if (frame.empty()) return host().drop(Drop::kMalformed);
  std::optional<std::uint32_t> idx = irmc::index_of(cfg_.senders, from);
  if (!idx) return host().drop(Drop::kNotMember);
  auto type = static_cast<MsgType>(frame[0]);
  // Collectors sign Certificates; senders MAC Move and Progress.
  const bool cert = type == MsgType::Certificate;
  if (!cert && type != MsgType::Move && type != MsgType::Progress) {
    return host().drop(Drop::kMalformed);
  }
  std::optional<BytesView> body = host().verified_body(from, tag(), frame, /*is_sig=*/cert);
  if (!body) return;

  const BytesView fields = body->subspan(1);
  if (cert) {
    if (auto c = host().decode<irmc::CertificateMsgView>(fields)) {
      on_certificate(note_subchannel(c->sc), *c);
    }
  } else if (type == MsgType::Move) {
    if (auto mv = host().decode<irmc::MoveMsg>(fields)) {
      on_sender_move(note_subchannel(mv->sc), *idx, mv->p);
    }
  } else if (auto pm = host().decode<irmc::ProgressMsg>(fields)) {
    for (const auto& [sc, p] : pm->progress) {
      Gap& g = gap(sc);
      g.progress[*idx] = std::max(g.progress[*idx], p);
      g.merged = irmc::kth_highest(g.progress, cfg_.fs);
      if (has_gap(window(sc), g)) arm_gap_timer(sc, g);
    }
  }
}

void ScReceiver::on_certificate(Window& w, const irmc::CertificateMsgView& cert) {
  if (cert.p < w.start || cert.p > w.start + 2 * cfg_.capacity - 1) return;
  if (w.ready.count(cert.p)) return;

  // Verify fs+1 share signatures from distinct senders over the
  // reconstructed SigShare bytes.
  if (cert.shares.size() != cfg_.fs + 1) return;
  host().charge_hash(cert.payload.size());
  irmc::SigShareMsg expect{cert.sc, cert.p, host().hash_cached(cert.payload)};
  Bytes share_auth = auth_bytes(codec::encode(MsgType::SigShare, expect));
  std::set<std::uint32_t> seen;
  for (const auto& [sidx, ssig] : cert.shares) {
    if (sidx >= cfg_.ns() || !seen.insert(sidx).second) return;
    host().charge_verify();
    if (!crypto().verify(cfg_.senders[sidx], share_auth, ssig)) return;
  }

  if (auto* t = host().tracer(); t && w.pending.count(cert.p)) {
    t->instant(host().now(), host().id(), "irmc", "sc-deliver", "sc", cert.sc, "pos", cert.p);
  }
  deliver(w, cert.p, host().capture(cert.payload));
  auto g = gaps_.find(cert.sc);
  if (g != gaps_.end() && g->second.timer != EventQueue::kInvalidEvent && !has_gap(w, g->second)) {
    cancel_timer(g->second.timer);
    g->second.timer = EventQueue::kInvalidEvent;
  }
}

}  // namespace spider
