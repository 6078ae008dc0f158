// Component multiplexing on top of SimNode.
//
// A replica process hosts several protocol components (consensus engine,
// IRMC endpoints, checkpointer, client frontend, ...). Each component owns
// a 32-bit tag; wire messages are [u32 tag][inner payload] and the host
// dispatches inbound messages to the registered component.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/codec.hpp"
#include "crypto/provider.hpp"
#include "sim/node.hpp"

namespace spider {

class Component;

/// Subsystem tag namespaces (high byte).
namespace tags {
constexpr std::uint32_t kPbft = 0x01000000;
constexpr std::uint32_t kIrmc = 0x02000000;       // | channel id (low 3 bytes)
constexpr std::uint32_t kClient = 0x03000000;     // client <-> replica traffic
constexpr std::uint32_t kCheckpoint = 0x04000000; // | group id
constexpr std::uint32_t kRegistry = 0x05000000;
constexpr std::uint32_t kHft = 0x06000000;
}  // namespace tags

class ComponentHost : public SimNode {
 public:
  using SimNode::SimNode;

  void register_component(std::uint32_t tag, Component* c) { components_[tag] = c; }
  void unregister_component(std::uint32_t tag) { components_.erase(tag); }

  /// Hands an inbound [tag][body] to the tag's component as `body`. The one
  /// place a message's tag is read: a message too short for a tag, or with
  /// a tag no component holds, is dropped here.
  void on_message(NodeId from, BytesView data) override;

  /// codec::try_decode<M>(b), counting a failure as a malformed drop: the
  /// one way a receive handler decodes what it was sent.
  template <class M>
  std::optional<M> decode(BytesView b) {
    std::optional<M> m = codec::try_decode<M>(b);
    if (!m) drop(Drop::kMalformed);
    return m;
  }

 private:
  std::unordered_map<std::uint32_t, Component*> components_;
};

/// Base class for protocol components.
class Component {
 public:
  Component(ComponentHost& host, std::uint32_t tag) : host_(host), tag_(tag) {
    host_.register_component(tag_, this);
  }
  virtual ~Component() { host_.unregister_component(tag_); }

  Component(const Component&) = delete;
  Component& operator=(const Component&) = delete;

  /// Inbound payload (without the tag). A handler refuses a message by
  /// returning early, and counts the refusal where it decides it: through
  /// host().decode, SimNode::verified_body or SimNode::drop.
  virtual void on_message(NodeId from, BytesView body) = 0;

  [[nodiscard]] std::uint32_t tag() const { return tag_; }

 protected:
  ComponentHost& host() { return host_; }
  [[nodiscard]] NodeId self() const { return host_.id(); }
  [[nodiscard]] Time now() const { return host_.now(); }
  CryptoProvider& crypto() { return host_.crypto(); }

  /// Builds the full wire frame [tag][body][auth] in one allocation. A
  /// multicast builds the frame once and send_wire()s the same refcounted
  /// buffer to every destination.
  [[nodiscard]] Payload wire_frame(BytesView body, BytesView auth = {}) const;

  /// Sends a pre-built wire frame (zero-copy: refcount bump per recipient).
  void send_wire(NodeId to, const Payload& wire) { host_.send_to(to, wire); }

  /// wire_frame + send_wire for single-destination MAC'd frames: one
  /// allocation instead of body-copy + tag-wrap.
  void send_framed(NodeId to, BytesView body, BytesView auth,
                   TrafficClass cls = TrafficClass::kOrdered) {
    host_.send_to(to, wire_frame(body, auth), cls);
  }

  /// `body` to each of `to`, MAC'd per destination over one shared copy of
  /// its domain-separated bytes; charges one modeled MAC per destination.
  void send_maced(const std::vector<NodeId>& to, BytesView body,
                  TrafficClass cls = TrafficClass::kOrdered);

  /// Domain-separated bytes for signing/MACing: [tag][inner].
  Bytes auth_bytes(BytesView inner) const;

  EventQueue::EventId set_timer(Duration delay, std::function<void()> fn) {
    return host_.set_timer(delay, std::move(fn));
  }
  void cancel_timer(EventQueue::EventId id) { host_.cancel_timer(id); }

 private:
  ComponentHost& host_;
  std::uint32_t tag_;
};

/// A component that hands its tag's payloads to a callback, for traffic
/// that needs no protocol state of its own (registry queries, HFT site
/// links, client replies). The framing helpers are public so the host can
/// send under the same tag.
class TagHandler : public Component {
 public:
  using Fn = std::function<void(NodeId from, BytesView body)>;
  TagHandler(ComponentHost& host, std::uint32_t tag, Fn fn)
      : Component(host, tag), fn_(std::move(fn)) {}

  void on_message(NodeId from, BytesView body) override { fn_(from, body); }

  using Component::auth_bytes;
  using Component::send_maced;
  using Component::send_wire;
  using Component::wire_frame;

 private:
  Fn fn_;
};

}  // namespace spider
