// The client wire protocol, replica side (paper Fig. 15-16).
//
// A client sends [kClient][ClientFrame][mac] to every replica of its group
// and accepts fe+1 matching [kClient][ReplyMsg][mac] answers. Spider's
// execution replicas and both baselines (BFT/BFT-WV, HFT) serve the same
// SpiderClient, so they host one ClientPort each: it checks the
// (client -> replica) MAC, decodes the frame, drops requests whose claimed
// client is not the sender and frames MAC'd replies. Signed requests are
// checked once more wherever they are ordered (A-Validity), through
// verify_client_signature().
#pragma once

#include <functional>
#include <optional>

#include "app/application.hpp"
#include "sim/component.hpp"
#include "spider/messages.hpp"

namespace spider {

class ClientPort : public Component {
 public:
  /// A MAC-checked request from frame.req.client; `body` is the encoded
  /// frame as it arrived.
  using RequestFn = std::function<void(ClientFrame frame, BytesView body)>;

  ClientPort(ComponentHost& host, RequestFn on_request);

  void on_message(NodeId from, BytesView frame) override;

  /// Sends `client` a MAC'd reply. Weak (direct-path) replies are
  /// idempotent and client-retried, so they ride the unordered datagram
  /// channel on the socket backend; ordered replies stay on the reliable
  /// control channel. Under corrupt_replies the result is tampered with
  /// (f+1 matching correct replies outvote it; f+1 corruptors are the
  /// linearizability checker's canary).
  void reply(NodeId client, std::uint64_t counter, BytesView result, bool weak);

 private:
  RequestFn on_request_;
};

/// Charges one modeled verify and checks the client's signature over
/// [kClient][frame.req], the bytes SpiderClient signs.
bool verify_client_signature(SimNode& node, const ClientFrame& frame);

/// Runs `op` the way `kind` asks: execute_weak for a weak read,
/// execute_readonly for a strong read, execute otherwise. Nothing when the
/// application rejects the op (it throws SerdeError on bytes it cannot
/// parse): the one place a replica catches an application's refusal.
std::optional<Bytes> execute_op(Application& app, OpKind kind, BytesView op);

}  // namespace spider
