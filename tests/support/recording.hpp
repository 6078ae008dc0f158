// A Transport that records every frame sent, for tests that inspect or
// replay wire traffic. It forwards each call synchronously to the sim
// network, so schedules are those of an unrecorded run.
#pragma once

#include <vector>

#include "net/transport.hpp"
#include "sim/network.hpp"
#include "sim/world.hpp"

namespace spider {

class RecordingTransport final : public Transport {
 public:
  explicit RecordingTransport(SimNetwork& net) : net_(net) {}

  void attach(TransportEndpoint* ep) override { net_.attach(ep); }
  void detach(NodeId id) override { net_.detach(id); }
  void send(NodeId from, NodeId to, Payload payload, TrafficClass cls) override {
    frames.push_back({from, to, payload});
    net_.send(from, to, std::move(payload), cls);
  }
  void set_node_down(NodeId id, bool down) override { net_.set_node_down(id, down); }
  [[nodiscard]] bool is_down(NodeId id) const override { return net_.is_down(id); }

  struct Frame {
    NodeId from;
    NodeId to;
    Payload data;
  };
  std::vector<Frame> frames;

 private:
  SimNetwork& net_;
};

/// A World whose nodes all send through a recorder. Construct it before
/// any node.
struct RecordedWorld {
  explicit RecordedWorld(std::uint64_t seed) : world(seed), recorder(world.net()) {
    world.install_transport(&recorder);
  }
  World world;
  RecordingTransport recorder;
};

}  // namespace spider
