// IRMC-RC: receiver-side collection (paper §4, Fig. 18).
//
// Every sender endpoint forwards its own signed <Send, m, sc, p> to every
// receiver endpoint; each receiver collects fs+1 matching Sends before
// delivering. Simple and CPU-cheap for senders, but transfers the payload
// |senders| x |receivers| times across the wide-area link.
//
// move_and_send() of a position inside the granted window sends one
// signed SendMove instead of a MAC'd Move followed by a Send. The receiver
// applies its window statement right after the signature check, where the
// separate Move would have landed. A vote that can no longer count is
// dropped before its signature is checked: its slot is already delivered,
// or its sender already voted there (one vote per sender and slot). A
// SendMove whose window statement could still move the window is checked.
#pragma once

#include <map>
#include <optional>
#include <set>

#include "irmc/irmc.hpp"
#include "irmc/messages.hpp"
#include "obs/metrics.hpp"

namespace spider {

class RcSender : public Component, public IrmcSenderEndpoint {
 public:
  RcSender(ComponentHost& host, IrmcConfig cfg);
  ~RcSender() override;

  void send(Subchannel sc, Position p, Bytes m, SendCallback done) override;
  void move_window(Subchannel sc, Position p) override;
  void move_and_send(Subchannel sc, Position p, Bytes m, SendCallback done) override;
  Position window_start(Subchannel sc) const override;

  void on_message(NodeId from, Reader& r) override;

 private:
  struct Queued {
    Bytes m;
    SendCallback cb;
  };

  [[nodiscard]] Position win_lo(Subchannel sc) const;
  void recompute_window(Subchannel sc);
  void transmit(Subchannel sc, Position p, const Bytes& m, bool move = false);
  void flush_queue(Subchannel sc);
  /// Window statements for every nacked subchannel, then bounded replays.
  void answer_nack(NodeId to, const irmc::PositionList& stalled);
  std::optional<std::uint32_t> receiver_index(NodeId node) const;

  IrmcConfig cfg_;
  std::map<Subchannel, Position> awin_;  // active window lower bound (default 1)
  // Window positions requested by each receiver.
  std::map<std::pair<std::uint32_t, Subchannel>, Position> rwin_;
  // Sends blocked above the window.
  std::map<Subchannel, std::multimap<Position, Queued>> queued_;
  // Transmitted wire frames (tagged + signed) retained within the window
  // for retransmission (models the paper's reliable point-to-point links).
  // Payloads: the original multicast and every replay share one buffer.
  std::map<Subchannel, std::map<Position, Payload>> sent_;
  std::map<Subchannel, Position> own_move_;  // dedup of our own Move broadcasts
  EventQueue::EventId announce_timer_ = EventQueue::kInvalidEvent;
  void send_move(Subchannel sc, Position p);
  void on_announce_timer();
};

class RcReceiver : public Component, public IrmcReceiverEndpoint {
 public:
  RcReceiver(ComponentHost& host, IrmcConfig cfg);

  void receive(Subchannel sc, Position p, ReceiveCallback cb) override;
  void move_window(Subchannel sc, Position p) override;
  Position window_start(Subchannel sc) const override;

  void on_message(NodeId from, Reader& r) override;

 private:
  struct Slot {
    // candidate digest -> (payload, number of senders that vouched). The
    // payload is a zero-copy slice of the first vouching Send's wire.
    std::map<std::uint64_t, std::pair<Payload, std::uint32_t>> candidates;
    std::set<std::uint32_t> voters;  // senders whose (first) vote counted
  };

  [[nodiscard]] Position win_lo(Subchannel sc) const;
  void internal_move(Subchannel sc, Position p);
  void try_deliver(Subchannel sc, Position p);
  /// Whether sender `idx`'s vote for (sc, p) would still count: the slot
  /// is undelivered and `idx` has not voted there yet.
  [[nodiscard]] bool vote_counts(std::uint32_t idx, Subchannel sc, Position p) const;
  /// Whether a window statement by `idx` for (sc, p) could still move
  /// this receiver's window.
  [[nodiscard]] bool move_counts(std::uint32_t idx, Subchannel sc, Position p) const;
  /// One window statement by sender `idx` (a Move, or a Windows entry).
  void apply_move(NodeId from, std::uint32_t idx, Subchannel sc, Position p);
  std::optional<std::uint32_t> sender_index(NodeId node) const;

  IrmcConfig cfg_;
  std::map<Subchannel, Position> awin_;
  std::map<Subchannel, std::map<Position, Slot>> slots_;
  std::map<Subchannel, std::map<Position, Payload>> ready_;  // fs+1 quorum reached
  std::map<Subchannel, std::map<Position, std::vector<ReceiveCallback>>> pending_;
  // Window positions requested by each sender (fs+1 rule forces our window).
  std::map<std::pair<std::uint32_t, Subchannel>, Position> smoves_;
  EventQueue::EventId nack_timer_ = EventQueue::kInvalidEvent;
  // Stall detection: (sc -> position pending at the previous timer tick).
  std::map<Subchannel, Position> last_stalled_;
  obs::Counter& nack_frames_;   // Nack frames sent (one per sender per tick)
  obs::Counter& nack_entries_;  // (sc, p) entries summed over those frames
  obs::Counter& votes_unverified_;  // votes dropped before their signature check
  void arm_nack_timer();
  void on_nack_timer();

 public:
  ~RcReceiver() override;
};

}  // namespace spider
