#include "irmc/irmc.hpp"

#include <algorithm>

#include "irmc/messages.hpp"
#include "irmc/rc.hpp"
#include "irmc/sc.hpp"
#include "sim/world.hpp"

namespace spider {

namespace irmc {

Position kth_highest(const std::vector<Position>& vals, std::size_t k) {
  // Groups are small: count instead of sorting a copy.
  const std::size_t need = std::min(k, vals.size() - 1) + 1;
  Position best = 0;
  for (Position v : vals) {
    if (v <= best) continue;
    std::size_t reach = 0;
    for (Position w : vals) reach += w >= v ? 1 : 0;
    if (reach >= need) best = v;
  }
  return best;
}

std::optional<std::uint32_t> index_of(const std::vector<NodeId>& group, NodeId node) {
  auto it = std::find(group.begin(), group.end(), node);
  if (it == group.end()) return std::nullopt;
  return static_cast<std::uint32_t>(it - group.begin());
}

}  // namespace irmc

// ------------------------------------------------------------------ sender

IrmcSenderEndpoint::IrmcSenderEndpoint(ComponentHost& host, IrmcConfig cfg)
    : Component(host, cfg.channel_tag),
      cfg_(std::move(cfg)),
      window_waits_(host.world().metrics().counter("irmc_window_waits",
                                                   {.node = host.id(), .role = "irmc"})) {
  if (cfg_.announce_window) {
    announce_timer_ =
        set_timer(IrmcConfig::kWindowAnnounceInterval, [this] { on_announce_timer(); });
  }
}

IrmcSenderEndpoint::~IrmcSenderEndpoint() {
  if (announce_timer_ != EventQueue::kInvalidEvent) cancel_timer(announce_timer_);
}

Position IrmcSenderEndpoint::window_start(Subchannel sc) const {
  auto it = windows_.find(sc);
  return it == windows_.end() ? 1 : it->second.start;
}

void IrmcSenderEndpoint::send(Subchannel sc, Position p, Bytes m, SendCallback done) {
  Window& w = window(sc);
  if (p < w.start) {
    if (done) done(/*too_old=*/true, w.start);
  } else if (p <= w.start + cfg_.capacity - 1) {
    transmit(sc, p, std::move(m), /*move=*/false);
    if (done) done(false, w.start);
  } else {
    window_waits_.inc();
    w.queued.emplace(p, Queued{std::move(m), std::move(done)});
  }
}

void IrmcSenderEndpoint::move_window(Subchannel sc, Position p) {
  Window& w = window(sc);
  if (p <= w.own_move) return;
  w.own_move = p;
  send_move(sc, p);
}

void IrmcSenderEndpoint::move_and_send(Subchannel sc, Position p, Bytes m, SendCallback done) {
  Window& w = window(sc);
  if (p <= w.own_move || p < w.start || p > w.start + cfg_.capacity - 1) {
    // The move already went out (a re-driven request), or the position is
    // outside the window: a separate Move, then a send that may wait.
    move_window(sc, p);
    send(sc, p, std::move(m), std::move(done));
    return;
  }
  w.own_move = p;
  transmit(sc, p, std::move(m), /*move=*/true);
  if (done) done(false, w.start);
}

void IrmcSenderEndpoint::send_move(Subchannel sc, Position p) {
  send_maced(cfg_.receivers, codec::encode(irmc::MsgType::Move, irmc::MoveMsg{sc, p}));
}

void IrmcSenderEndpoint::on_announce_timer() {
  announce_timer_ = set_timer(IrmcConfig::kWindowAnnounceInterval, [this] { on_announce_timer(); });
  for (const auto& [sc, w] : windows_) {
    if (w.own_move > 0) send_move(sc, w.own_move);
  }
}

void IrmcSenderEndpoint::on_receiver_move(std::uint32_t idx, Subchannel sc, Position p) {
  Window& w = window(sc);
  Position& cur = w.requested[idx];
  if (p <= cur) return;  // only forward statements count
  cur = p;
  // fr+1-highest requested start: at least one correct receiver allowed it.
  const Position lo = irmc::kth_highest(w.requested, cfg_.fr);
  if (lo <= w.start) return;
  w.start = lo;
  drop_below(sc, lo);
  flush_queue(sc, w);
}

void IrmcSenderEndpoint::flush_queue(Subchannel sc, Window& w) {
  const Position lo = w.start;
  const Position hi = lo + cfg_.capacity - 1;
  auto& q = w.queued;  // position-ordered
  for (auto it = q.begin(); it != q.end() && it->first <= hi; it = q.erase(it)) {
    Queued& e = it->second;
    if (it->first < lo) {
      if (e.cb) e.cb(true, lo);
    } else {
      transmit(sc, it->first, std::move(e.m), /*move=*/false);
      if (e.cb) e.cb(false, lo);
    }
  }
}

// ---------------------------------------------------------------- receiver

IrmcReceiverEndpoint::IrmcReceiverEndpoint(ComponentHost& host, IrmcConfig cfg)
    : Component(host, cfg.channel_tag), cfg_(std::move(cfg)) {}

Position IrmcReceiverEndpoint::window_start(Subchannel sc) const {
  auto it = windows_.find(sc);
  return it == windows_.end() ? 1 : it->second.start;
}

void IrmcReceiverEndpoint::receive(Subchannel sc, Position p, ReceiveCallback cb) {
  Window& w = window(sc);
  if (p < w.start) {
    cb(RecvResult{true, w.start, {}});
    return;
  }
  auto it = w.ready.find(p);
  if (it != w.ready.end()) {
    cb(RecvResult{false, 0, it->second});
    return;
  }
  w.pending[p].push_back(std::move(cb));
  awaiting();
}

void IrmcReceiverEndpoint::move_window(Subchannel sc, Position p) { internal_move(window(sc), p); }

IrmcReceiverEndpoint::Window& IrmcReceiverEndpoint::note_subchannel(Subchannel sc) {
  Window& w = window(sc);
  if (!w.seen) {
    w.seen = true;
    if (on_new_subchannel) on_new_subchannel(sc);
  }
  return w;
}

void IrmcReceiverEndpoint::on_sender_move(Window& w, std::uint32_t idx, Position p) {
  Position& cur = w.moves[idx];
  if (p <= cur) return;  // only forward statements count
  cur = p;
  // fs+1-highest sender request forces our window forward (A.19).
  internal_move(w, irmc::kth_highest(w.moves, cfg_.fs));
}

void IrmcReceiverEndpoint::internal_move(Window& w, Position p) {
  if (p <= w.start) return;
  w.start = p;
  drop_below(w.sc, p);
  w.ready.erase(w.ready.begin(), w.ready.lower_bound(p));

  // Abort superseded receive() calls with TooOld (paper Fig. 14). They
  // leave the record before the first callback runs, which may move the
  // window again.
  std::map<Position, std::vector<ReceiveCallback>> superseded;
  while (!w.pending.empty() && w.pending.begin()->first < p) {
    superseded.insert(w.pending.extract(w.pending.begin()));
  }
  for (auto& [q, cbs] : superseded) {
    for (ReceiveCallback& cb : cbs) cb(RecvResult{true, p, {}});
  }

  // Tell the senders.
  send_maced(cfg_.senders, codec::encode(irmc::MsgType::Move, irmc::MoveMsg{w.sc, p}));
}

void IrmcReceiverEndpoint::deliver(Window& w, Position p, Payload m) {
  w.ready[p] = m;
  auto it = w.pending.find(p);
  if (it == w.pending.end()) return;
  // Taken out, with `m` held here, before the first callback runs: a
  // callback may move the window past p.
  std::vector<ReceiveCallback> cbs = std::move(it->second);
  w.pending.erase(it);
  for (ReceiveCallback& cb : cbs) cb(RecvResult{false, 0, m});
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
