#include "spider/client_port.hpp"

#include "crypto/provider.hpp"
#include "obs/trace.hpp"
#include "sim/byzantine.hpp"

namespace spider {

ClientPort::ClientPort(ComponentHost& host, RequestFn on_request)
    : Component(host, tags::kClient), on_request_(std::move(on_request)) {}

void ClientPort::on_message(NodeId from, BytesView frame) {
  std::optional<BytesView> body = host().verified_body(from, tag(), frame, /*is_sig=*/false);
  if (!body) return;
  auto decoded = host().decode<ClientFrame>(*body);
  if (!decoded) return;
  // The claimed identity must match the channel.
  if (decoded->req.client != from) return host().drop(Drop::kBadAuth);
  on_request_(std::move(*decoded), *body);
}

void ClientPort::reply(NodeId client, std::uint64_t counter, BytesView result, bool weak) {
  if (auto* t = host().tracer()) {
    t->async(obs::Ph::kAsyncInstant, now(), self(), obs::request_id(client, counter, weak),
             "request", "reply");
  }
  Bytes out = to_bytes(result);
  if (host().byzantine().corrupt_replies) corrupt_reply_payload(out);
  send_maced({client}, codec::encode(ReplyMsg{counter, std::move(out), weak}),
             weak ? TrafficClass::kUnordered : TrafficClass::kOrdered);
}

bool verify_client_signature(SimNode& node, const ClientFrame& frame) {
  Writer w(4 + codec::wire_size(frame.req));
  w.u32(tags::kClient);
  codec::write(w, frame.req);
  node.charge_verify();
  return node.crypto().verify(frame.req.client, w.data(), frame.signature);
}

std::optional<Bytes> execute_op(Application& app, OpKind kind, BytesView op) {
  try {
    switch (kind) {
      case OpKind::WeakRead: return app.execute_weak(op);
      case OpKind::StrongRead: return app.execute_readonly(op);
      default: return app.execute(op);
    }
  } catch (const SerdeError&) {
    return std::nullopt;
  }
}

}  // namespace spider
