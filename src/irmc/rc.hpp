// IRMC-RC: receiver-side collection (paper §4, Fig. 18).
//
// Every sender endpoint forwards its own signed <Send, m, sc, p> to every
// receiver endpoint; each receiver collects fs+1 matching Sends before
// delivering. Simple and CPU-cheap for senders, but transfers the payload
// |senders| x |receivers| times across the wide-area link.
//
// The window rules live in the core (irmc.hpp). IRMC-RC adds:
//   - SendMove: move_and_send() of a position inside the granted window
//     sends one signed SendMove instead of a MAC'd Move followed by a
//     Send. The receiver applies its window statement right after the
//     signature check, where the separate Move would have landed.
//   - Vote rules: one vote per sender and slot; a vote that can no longer
//     count (its slot is delivered, or its sender already voted there) is
//     dropped before its signature is checked, unless it is a SendMove
//     whose window statement could still move the window.
//   - Retransmission: senders keep their signed frames inside the window;
//     a receiver nacks subchannels that made no progress for a full timer
//     period, and a sender answers with a Windows frame of its window
//     statements, then bounded replays.
//   - The stale-sender grant: a sender whose window statement lies below
//     the receiver's window gets a Move with the receiver's window start.
#pragma once

#include <map>
#include <set>

#include "irmc/irmc.hpp"
#include "irmc/messages.hpp"
#include "obs/metrics.hpp"

namespace spider {

class RcSender : public IrmcSenderEndpoint {
 public:
  using IrmcSenderEndpoint::IrmcSenderEndpoint;

  void on_message(NodeId from, BytesView frame) override;

 private:
  void transmit(Subchannel sc, Position p, Bytes m, bool move) override;
  void drop_below(Subchannel sc, Position lo) override;
  /// Window statements for every nacked subchannel, then bounded replays.
  void answer_nack(NodeId to, const irmc::PositionList& stalled);

  // Transmitted wire frames (tagged + signed) retained within the window
  // for retransmission (models the paper's reliable point-to-point links).
  // Payloads: the original multicast and every replay share one buffer.
  std::map<Subchannel, std::map<Position, Payload>> sent_;
};

class RcReceiver : public IrmcReceiverEndpoint {
 public:
  RcReceiver(ComponentHost& host, IrmcConfig cfg);
  ~RcReceiver() override;

  void on_message(NodeId from, BytesView frame) override;

 private:
  struct Slot {
    // candidate digest -> (payload, number of senders that vouched). The
    // payload is a zero-copy slice of the first vouching Send's wire.
    std::map<std::uint64_t, std::pair<Payload, std::uint32_t>> candidates;
    std::set<std::uint32_t> voters;  // senders whose (first) vote counted
  };

  void awaiting() override { arm_nack_timer(); }
  void drop_below(Subchannel sc, Position lo) override;
  void on_send(NodeId from, std::uint32_t idx, BytesView frame, bool moves);
  /// Whether sender `idx`'s vote for (sc, p) would still count: the slot
  /// is undelivered and `idx` has not voted there yet.
  [[nodiscard]] bool vote_counts(std::uint32_t idx, Subchannel sc, Position p) const;
  /// Whether a window statement by `idx` for (sc, p) could still move
  /// this receiver's window.
  [[nodiscard]] bool move_counts(std::uint32_t idx, Subchannel sc, Position p) const;
  /// One window statement by sender `idx` (a Move, a Windows entry, or a
  /// SendMove's), after the stale-sender grant.
  void apply_move(NodeId from, std::uint32_t idx, Window& w, Position p);
  void arm_nack_timer();
  void on_nack_timer();

  std::map<Subchannel, std::map<Position, Slot>> slots_;
  EventQueue::EventId nack_timer_ = EventQueue::kInvalidEvent;
  // Stall detection: the first pending position of every subchannel that
  // waited at the previous timer tick, in ascending subchannel order.
  irmc::PositionList stalled_;
  obs::Counter& nack_frames_;   // Nack frames sent (one per sender per tick)
  obs::Counter& nack_entries_;  // (sc, p) entries summed over those frames
  obs::Counter& votes_unverified_;  // votes dropped before their signature check
};

}  // namespace spider
