#include "sim/component.hpp"

namespace spider {

void ComponentHost::send_component(std::uint32_t tag, NodeId to, BytesView inner) {
  Writer w(4 + inner.size());
  w.u32(tag);
  w.raw(inner);
  send_to(to, Payload(std::move(w)));
}

void ComponentHost::on_message(NodeId from, BytesView data) {
  try {
    Reader r(data);
    std::uint32_t tag = r.u32();
    auto it = components_.find(tag);
    if (it == components_.end()) return;  // unknown component: drop
    it->second->on_message(from, r);
  } catch (const SerdeError&) {
    // Malformed (possibly Byzantine) message: drop silently.
  }
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
