// Inter-Regional Message Channels (IRMC) — paper §3.2, §4, Appendix A.5.
//
// An IRMC forwards messages from a group of sender replicas to a group of
// receiver replicas in another region. Subchannels are independent bounded
// FIFO queues addressed by (subchannel, position); a message is delivered
// only after fs+1 senders submitted identical content for the same
// position, so no message forged by up to fs faulty senders can pass.
// Window-based flow control is built in (move_window).
//
// The paper's blocking send()/receive() calls are expressed as callbacks:
//   - send(): the callback fires when the call "returns" in paper terms —
//     immediately when the position is inside (sent) or below (dropped as
//     too old) the window, deferred while the position is above the window.
//   - receive(): the callback fires with the message, or with TooOld when
//     the window has moved past the requested position.
//
// The two endpoint classes below are the window core of both kinds,
// IRMC-RC (rc.hpp) and IRMC-SC (sc.hpp). Each keeps one Window record per
// subchannel and writes the window rules once:
//   - sender: send() is TooOld below the window, transmitted inside it and
//     queued above it; move_window() requests and re-announces our own
//     move; a receiver's Move is a forward-only statement, and the
//     fr+1-highest statement is the window start (at least one correct
//     receiver allowed it), which drops state below it and flushes the
//     queue;
//   - receiver: receive() and delivery to pending callbacks; a window move
//     drops state below it, answers superseded receives with TooOld and
//     sends a MAC'd Move to every sender; a sender's Move is a forward-only
//     statement, and the fs+1-highest statement forces the window.
// A kind handles its own frames in on_message() and plugs into the core
// through hooks: transmit() and drop_below() on the sender, drop_below()
// and awaiting() on the receiver.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "obs/metrics.hpp"
#include "sim/component.hpp"

namespace spider {

struct IrmcConfig {
  std::vector<NodeId> senders;
  std::vector<NodeId> receivers;
  std::uint32_t fs = 1;        // Byzantine senders tolerated
  std::uint32_t fr = 1;        // Byzantine receivers tolerated
  Position capacity = 16;      // per-subchannel window capacity (>= 1)
  std::uint32_t channel_tag = tags::kIrmc;  // component tag for this channel

  // IRMC-SC sends Progress every progress_interval, and a receiver selects
  // another collector after a gap lasted collector_timeout. IRMC-RC nacks
  // every kWindowAnnounceInterval + collector_timeout.
  Duration progress_interval = 50 * kMillisecond;
  Duration collector_timeout = 300 * kMillisecond;

  // Window announcement heartbeat: senders periodically re-announce their
  // requested window starts so that receivers that were unreachable (and
  // missed Move messages) learn that they fell behind. Models the
  // retransmission behaviour of the reliable links the paper assumes.
  static constexpr Duration kWindowAnnounceInterval = 200 * kMillisecond;
  bool announce_window = false;

  [[nodiscard]] std::uint32_t ns() const { return static_cast<std::uint32_t>(senders.size()); }
  [[nodiscard]] std::uint32_t nr() const { return static_cast<std::uint32_t>(receivers.size()); }
};

/// Result of a receive(): either a delivered message or a TooOld exception
/// carrying the new window start (paper Fig. 14). The message is a
/// refcounted Payload sharing the receiver's stored buffer — delivery
/// copies nothing; call message.to_bytes() for an owned copy.
struct RecvResult {
  bool too_old = false;
  Position window_start = 0;  // set when too_old
  Payload message;            // set otherwise
};

namespace irmc {
/// The (k+1)-highest entry of `vals` (its lowest when k >= vals.size()):
/// the highest value that at least k+1 entries reach.
Position kth_highest(const std::vector<Position>& vals, std::size_t k);
/// Index of `node` in `group`.
std::optional<std::uint32_t> index_of(const std::vector<NodeId>& group, NodeId node);
}  // namespace irmc

class IrmcSenderEndpoint : public Component {
 public:
  /// (too_old, window_start): too_old=true means the message was discarded
  /// because the window had already advanced past the position.
  using SendCallback = std::function<void(bool too_old, Position window_start)>;

  IrmcSenderEndpoint(ComponentHost& host, IrmcConfig cfg);
  ~IrmcSenderEndpoint() override;

  void send(Subchannel sc, Position p, Bytes m, SendCallback done = {});
  /// Ask the receiver side to move the subchannel window forward.
  void move_window(Subchannel sc, Position p);
  /// move_window(sc, p), then send(sc, p, m, done); inside the window the
  /// move goes out with the transmission (see transmit()).
  void move_and_send(Subchannel sc, Position p, Bytes m, SendCallback done = {});
  /// Current active-window lower bound (as agreed by fr+1 receivers).
  [[nodiscard]] Position window_start(Subchannel sc) const;

 protected:
  struct Queued {
    Bytes m;
    SendCallback cb;
  };
  struct Window {
    explicit Window(std::uint32_t receivers) : requested(receivers, 1) {}
    Position start = 1;
    std::vector<Position> requested;  // per receiver: its latest Move
    Position own_move = 0;            // our latest Move; 0 before the first
    std::multimap<Position, Queued> queued;  // sends above the window
  };

  /// Sends m at (sc, p), inside the window. With `move`, our move of the
  /// window to p goes along: in the same frame where the kind can carry
  /// it, as a Move first where it cannot.
  virtual void transmit(Subchannel sc, Position p, Bytes m, bool move) = 0;
  /// The window start of sc rose to lo: drop the kind's state below it.
  virtual void drop_below(Subchannel sc, Position lo) = 0;

  /// Receiver `idx` asks for window start p (an authenticated Move).
  void on_receiver_move(std::uint32_t idx, Subchannel sc, Position p);
  /// Our Move(sc, p), MAC'd to every receiver.
  void send_move(Subchannel sc, Position p);

  const IrmcConfig cfg_;
  std::map<Subchannel, Window> windows_;

 private:
  Window& window(Subchannel sc) { return windows_.try_emplace(sc, cfg_.nr()).first->second; }
  void flush_queue(Subchannel sc, Window& w);
  void on_announce_timer();

  obs::Counter& window_waits_;  // sends queued above the window
  EventQueue::EventId announce_timer_ = EventQueue::kInvalidEvent;
};

class IrmcReceiverEndpoint : public Component {
 public:
  using ReceiveCallback = std::function<void(RecvResult)>;

  IrmcReceiverEndpoint(ComponentHost& host, IrmcConfig cfg);

  void receive(Subchannel sc, Position p, ReceiveCallback cb);
  void move_window(Subchannel sc, Position p);
  [[nodiscard]] Position window_start(Subchannel sc) const;

  /// Invoked the first time traffic for an unknown subchannel arrives.
  /// Spider's agreement replicas use this to start per-client pull loops
  /// for dynamically appearing client subchannels.
  std::function<void(Subchannel)> on_new_subchannel;

 protected:
  struct Window {
    Window(Subchannel id, std::uint32_t senders) : sc(id), moves(senders, 1) {}
    Subchannel sc;
    Position start = 1;
    std::vector<Position> moves;        // per sender: its latest window statement
    std::map<Position, Payload> ready;  // delivered content inside the window
    std::map<Position, std::vector<ReceiveCallback>> pending;  // waiting receive()s
    bool seen = false;                  // on_new_subchannel fired
  };

  /// A receive() waits for content.
  virtual void awaiting() {}
  /// The window start of sc rose to lo: drop the kind's state below it.
  virtual void drop_below(Subchannel /*sc*/, Position /*lo*/) {}

  Window& window(Subchannel sc) { return windows_.try_emplace(sc, sc, cfg_.ns()).first->second; }
  /// window(sc) for an inbound reference; the first one announces sc
  /// through on_new_subchannel.
  Window& note_subchannel(Subchannel sc);
  /// Sender `idx` states window start p (a Move, or one carried on
  /// another authenticated frame).
  void on_sender_move(Window& w, std::uint32_t idx, Position p);
  /// fs+1 senders vouched for m at (w.sc, p): keep it for later receives
  /// and hand it to the pending ones.
  void deliver(Window& w, Position p, Payload m);

  const IrmcConfig cfg_;
  std::map<Subchannel, Window> windows_;

 private:
  void internal_move(Window& w, Position p);
};

enum class IrmcKind : std::uint8_t {
  ReceiverCollect,  // IRMC-RC: each sender forwards signed Sends directly
  SenderCollect,    // IRMC-SC: senders assemble certificates (collectors)
};

std::unique_ptr<IrmcSenderEndpoint> make_irmc_sender(IrmcKind kind, ComponentHost& host,
                                                     IrmcConfig cfg);
std::unique_ptr<IrmcReceiverEndpoint> make_irmc_receiver(IrmcKind kind, ComponentHost& host,
                                                         IrmcConfig cfg);

}  // namespace spider
