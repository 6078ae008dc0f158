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
#pragma once

#include <functional>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "sim/component.hpp"

namespace spider {

struct IrmcConfig {
  std::vector<NodeId> senders;
  std::vector<NodeId> receivers;
  std::uint32_t fs = 1;        // Byzantine senders tolerated
  std::uint32_t fr = 1;        // Byzantine receivers tolerated
  Position capacity = 16;      // per-subchannel window capacity (>= 1)
  std::uint32_t channel_tag = tags::kIrmc;  // component tag for this channel

  // IRMC-SC parameters.
  Duration progress_interval = 50 * kMillisecond;
  Duration collector_timeout = 300 * kMillisecond;

  // Window announcement heartbeat: senders periodically re-announce their
  // requested window starts so that receivers that were unreachable (and
  // missed Move messages) learn that they fell behind. Models the
  // retransmission behaviour of the reliable links the paper assumes.
  bool announce_window = false;
  Duration window_announce_interval = 200 * kMillisecond;

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

class IrmcSenderEndpoint {
 public:
  /// (too_old, window_start): too_old=true means the message was discarded
  /// because the window had already advanced past the position.
  using SendCallback = std::function<void(bool too_old, Position window_start)>;

  virtual ~IrmcSenderEndpoint() = default;

  virtual void send(Subchannel sc, Position p, Bytes m, SendCallback done = {}) = 0;
  /// Ask the receiver side to move the subchannel window forward.
  virtual void move_window(Subchannel sc, Position p) = 0;
  /// move_window(sc, p), then send(sc, p, m, done). IRMC-RC overrides it to
  /// carry the move on the signed Send itself when it can.
  virtual void move_and_send(Subchannel sc, Position p, Bytes m, SendCallback done = {}) {
    move_window(sc, p);
    send(sc, p, std::move(m), std::move(done));
  }
  /// Current active-window lower bound (as agreed by fr+1 receivers).
  virtual Position window_start(Subchannel sc) const = 0;
};

class IrmcReceiverEndpoint {
 public:
  using ReceiveCallback = std::function<void(RecvResult)>;

  virtual ~IrmcReceiverEndpoint() = default;

  virtual void receive(Subchannel sc, Position p, ReceiveCallback cb) = 0;
  virtual void move_window(Subchannel sc, Position p) = 0;
  virtual Position window_start(Subchannel sc) const = 0;

  /// Invoked the first time traffic for an unknown subchannel arrives.
  /// Spider's agreement replicas use this to start per-client pull loops
  /// for dynamically appearing client subchannels.
  std::function<void(Subchannel)> on_new_subchannel;

 protected:
  /// Implementations call this on every inbound subchannel reference.
  void note_subchannel(Subchannel sc) {
    if (seen_subchannels_.insert(sc).second && on_new_subchannel) on_new_subchannel(sc);
  }

 private:
  std::set<Subchannel> seen_subchannels_;
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
