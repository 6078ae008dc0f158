#include "irmc/rc.hpp"

#include <algorithm>

#include "obs/trace.hpp"
#include "sim/world.hpp"

namespace spider {

using irmc::MsgType;

// ------------------------------------------------------------------ sender

void RcSender::transmit(Subchannel sc, Position p, Bytes m, bool move) {
  if (auto* t = host().tracer()) {
    t->instant(host().now(), host().id(), "irmc", "rc-send", "sc", sc, "pos", p);
  }
  Bytes body =
      codec::encode(move ? MsgType::SendMove : MsgType::Send, irmc::SendMsgView{sc, p, m});
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

void RcSender::drop_below(Subchannel sc, Position lo) {
  auto it = sent_.find(sc);
  if (it != sent_.end()) it->second.erase(it->second.begin(), it->second.lower_bound(lo));
}

void RcSender::on_message(NodeId from, BytesView frame) {
  if (frame.empty()) return host().drop(Drop::kMalformed);
  auto type = static_cast<MsgType>(frame[0]);
  if (type != MsgType::Move && type != MsgType::Nack) return host().drop(Drop::kMalformed);
  std::optional<std::uint32_t> idx = irmc::index_of(cfg_.receivers, from);
  if (!idx) return host().drop(Drop::kNotMember);
  std::optional<BytesView> body = host().verified_body(from, tag(), frame, /*is_sig=*/false);
  if (!body) return;

  const BytesView fields = body->subspan(1);
  if (type == MsgType::Nack) {
    if (auto nack = host().decode<irmc::NackMsg>(fields)) answer_nack(from, nack->stalled);
  } else if (auto mv = host().decode<irmc::MoveMsg>(fields)) {
    on_receiver_move(*idx, mv->sc, mv->p);
  }
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
    auto w = windows_.find(sc);
    answer.windows.emplace_back(
        sc, w == windows_.end() ? 1 : std::max(w->second.start, w->second.own_move));
  }
  send_maced({to}, codec::encode(MsgType::Windows, answer));

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
    : IrmcReceiverEndpoint(host, std::move(cfg)),
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
  nack_timer_ = set_timer(IrmcConfig::kWindowAnnounceInterval + cfg_.collector_timeout,
                          [this] { on_nack_timer(); });
}

void RcReceiver::on_nack_timer() {
  nack_timer_ = EventQueue::kInvalidEvent;
  irmc::PositionList stalled_now;
  irmc::NackMsg nack;
  for (const auto& [sc, w] : windows_) {
    if (w.pending.empty()) continue;
    Position want = w.pending.begin()->first;
    if (want < w.start) continue;  // TooOld will fire instead
    stalled_now.emplace_back(sc, want);
    // Only nack when the subchannel made NO progress during a full timer
    // period: steady-state traffic must not trigger retransmissions. An
    // idle subchannel (no Send exists yet) is indistinguishable from one
    // whose Sends were all lost, so it is probed too.
    if (std::binary_search(stalled_.begin(), stalled_.end(), stalled_now.back())) {
      nack.stalled.push_back(stalled_now.back());
    }
  }
  stalled_ = std::move(stalled_now);
  if (!nack.stalled.empty()) {
    // One frame per sender covers every stalled subchannel.
    send_maced(cfg_.senders, codec::encode(MsgType::Nack, nack));
    nack_frames_.inc(cfg_.ns());
    nack_entries_.inc(std::uint64_t{cfg_.ns()} * nack.stalled.size());
  }
  if (!stalled_.empty()) arm_nack_timer();
}

void RcReceiver::drop_below(Subchannel sc, Position lo) {
  auto it = slots_.find(sc);
  if (it != slots_.end()) it->second.erase(it->second.begin(), it->second.lower_bound(lo));
}

bool RcReceiver::vote_counts(std::uint32_t idx, Subchannel sc, Position p) const {
  auto w = windows_.find(sc);
  if (w != windows_.end() && w->second.ready.count(p) > 0) return false;
  auto sit = slots_.find(sc);
  if (sit == slots_.end()) return true;
  auto slot = sit->second.find(p);
  return slot == sit->second.end() || slot->second.voters.count(idx) == 0;
}

bool RcReceiver::move_counts(std::uint32_t idx, Subchannel sc, Position p) const {
  auto w = windows_.find(sc);
  if (w == windows_.end()) return p > 1;
  return p > w->second.start && p > w->second.moves[idx];
}

void RcReceiver::on_message(NodeId from, BytesView frame) {
  if (frame.empty()) return host().drop(Drop::kMalformed);
  std::optional<std::uint32_t> idx = irmc::index_of(cfg_.senders, from);
  if (!idx) return host().drop(Drop::kNotMember);

  auto type = static_cast<MsgType>(frame[0]);
  if (type == MsgType::Send || type == MsgType::SendMove) {
    on_send(from, *idx, frame, type == MsgType::SendMove);
    return;
  }
  if (type != MsgType::Move && type != MsgType::Windows) return host().drop(Drop::kMalformed);
  std::optional<BytesView> body = host().verified_body(from, tag(), frame, /*is_sig=*/false);
  if (!body) return;

  const BytesView fields = body->subspan(1);
  if (type == MsgType::Move) {
    if (auto mv = host().decode<irmc::MoveMsg>(fields)) {
      apply_move(from, *idx, note_subchannel(mv->sc), mv->p);
    }
  } else if (auto ws = host().decode<irmc::WindowsMsg>(fields)) {
    for (const auto& [sc, p] : ws->windows) apply_move(from, *idx, note_subchannel(sc), p);
  }
}

void RcReceiver::on_send(NodeId from, std::uint32_t idx, BytesView frame, bool moves) {
  // Decoded before the signature check, which is skipped when the frame
  // can change nothing: the vote cannot count, and it carries no window
  // statement that could.
  std::size_t sig_len = crypto().signature_size();
  if (frame.size() <= sig_len) return host().drop(Drop::kMalformed);
  auto msg = host().decode<irmc::SendMsgView>(frame.subspan(1, frame.size() - sig_len - 1));
  if (!msg) return;
  const bool counts = vote_counts(idx, msg->sc, msg->p);
  if (!counts && !(moves && move_counts(idx, msg->sc, msg->p))) {
    votes_unverified_.inc();
    return;
  }
  if (!host().verified_body(from, tag(), frame, /*is_sig=*/true)) return;

  Window& w = note_subchannel(msg->sc);
  // Where a separate Move preceding this Send would have been applied.
  if (moves) apply_move(from, idx, w, msg->p);
  if (!counts) return;
  // Store only within a bounded horizon (window + one extra window of
  // slack for senders running ahead of this receiver).
  if (msg->p < w.start || msg->p > w.start + 2 * cfg_.capacity - 1) return;

  host().charge_hash(msg->payload.size());
  std::uint64_t key = digest_prefix(host().hash_cached(msg->payload));
  Slot& slot = slots_[msg->sc][msg->p];
  slot.voters.insert(idx);
  auto& [payload, votes] = slot.candidates[key];
  if (votes++ == 0) payload = host().capture(msg->payload);
  // Only this candidate's count moved, and a delivered slot takes no more
  // votes: it is the one to deliver.
  if (votes < cfg_.fs + 1) return;
  if (auto* t = host().tracer()) {
    t->instant(host().now(), host().id(), "irmc", "rc-deliver", "sc", msg->sc, "pos", msg->p);
  }
  deliver(w, msg->p, payload);
}

void RcReceiver::apply_move(NodeId from, std::uint32_t idx, Window& w, Position p) {
  if (p < w.start) {
    // The sender requested a window we already moved past — it is behind
    // on window state (e.g. a crash-recovered sender endpoint that lost
    // its view of the channel). Grant it our current window start so it
    // can flush sends queued behind the stale window.
    send_maced({from}, codec::encode(MsgType::Move, irmc::MoveMsg{w.sc, w.start}));
  }
  on_sender_move(w, idx, p);
}

}  // namespace spider
