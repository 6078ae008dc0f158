#include "sim/component.hpp"

namespace spider {

void ComponentHost::on_message(NodeId from, BytesView data) {
  if (data.size() < 4) return drop(Drop::kMalformed);
  auto it = components_.find(Reader(data).u32());
  if (it == components_.end()) return drop(Drop::kUnknownTag);
  it->second->on_message(from, data.subspan(4));
}

Payload Component::wire_frame(BytesView body, BytesView auth) const {
  Writer w(4 + body.size() + auth.size());
  w.u32(tag_);
  w.raw(body);
  w.raw(auth);
  return Payload(std::move(w));
}

void Component::send_maced(const std::vector<NodeId>& to, BytesView body, TrafficClass cls) {
  Bytes auth = auth_bytes(body);
  for (NodeId n : to) {
    host_.charge_mac();
    send_framed(n, body, crypto().mac(self(), n, auth), cls);
  }
}

Bytes Component::auth_bytes(BytesView inner) const {
  Writer w(4 + inner.size());
  w.u32(tag_);
  w.raw(inner);
  return std::move(w).take();
}

}  // namespace spider
