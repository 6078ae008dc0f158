// The simulation world: event queue + network + crypto + RNG + node ids.
// One `World` per experiment; everything inside it is deterministic for a
// given seed.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "common/ids.hpp"
#include "common/rng.hpp"
#include "crypto/provider.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/byzantine.hpp"
#include "sim/event_queue.hpp"
#include "sim/network.hpp"

namespace spider {

class World {
 public:
  /// Creates a world with the given seed; `crypto` defaults to FastCrypto.
  explicit World(std::uint64_t seed, std::unique_ptr<CryptoProvider> crypto = nullptr);

  EventQueue& queue() { return queue_; }
  /// The deterministic sim network. Always constructed (it is the default
  /// transport); fault-injection APIs (FaultPlan, link filters, down
  /// nodes) live here. When a custom transport is installed the sim
  /// network is idle — nothing attaches to it.
  SimNetwork& net() { return *net_; }
  /// The transport seam every node attaches and sends through: the sim
  /// network by default, or whatever install_transport() put in place.
  Transport& transport() { return *transport_; }
  CryptoProvider& crypto() { return *crypto_; }
  Rng& rng() { return rng_; }

  /// Routes all node attach/send traffic through `t` instead of the sim
  /// network (e.g. a socket-backed LoopbackTransport). Must be called
  /// before any SimNode is constructed on this World; `t` must outlive the
  /// World's nodes. Pass nullptr to restore the sim network.
  void install_transport(Transport* t) { transport_ = t ? t : net_.get(); }

  /// Hook driving run_until/run_for: a realtime transport installs a pump
  /// here (net::RealtimeDriver) so virtual time tracks the wall clock and
  /// socket readiness between events. Null (the default) = pure
  /// discrete-event execution on the queue.
  using RunDriver = std::function<void(Time)>;
  void set_run_driver(RunDriver d) { run_driver_ = std::move(d); }

  [[nodiscard]] Time now() const { return queue_.now(); }
  void run_until(Time t) {
    if (run_driver_) run_driver_(t);
    else queue_.run_until(t);
  }
  void run_for(Duration d) { run_until(queue_.now() + d); }
  void run_all(std::size_t max_events = 100'000'000) { queue_.run_all(max_events); }

  /// Allocates a fresh process id.
  NodeId allocate_id() { return next_id_++; }

  // ---- observability ----------------------------------------------------
  /// Per-world metrics registry. Always present; recording a counter is a
  /// u64 increment, so protocol code uses it unconditionally.
  obs::MetricsRegistry& metrics() { return metrics_; }

  /// The attached tracer, or nullptr (the null sink — the default).
  /// Instrumentation sites guard with `if (auto* t = world.tracer())`, so a
  /// traced-off run performs one branch per site and nothing else: no
  /// allocation, no RNG draws, no change to scheduling or wire bytes.
  [[nodiscard]] obs::Tracer* tracer() const { return tracer_raw_; }

  /// Attaches a tracer (Full keeps everything; Ring is the flight
  /// recorder, keeping the last `ring_capacity` events in fixed memory).
  obs::Tracer& enable_tracing(obs::Tracer::Mode mode = obs::Tracer::Mode::kFull,
                              std::size_t ring_capacity = 1 << 16);
  void disable_tracing();

  /// Copies platform counters (event queue, network link stats, payload
  /// digest totals) into the registry so a snapshot sees them. Cheap; call
  /// before snapshot_json()/write_snapshot().
  void refresh_platform_metrics();

  /// Human-readable label for a node's track in exported traces
  /// ("ag-eu/0", "exec-us/2", "client/57"). Kept on the World so names
  /// registered before enable_tracing() still reach the tracer.
  void name_node(NodeId id, std::string name);

  /// Node `id`'s Byzantine flags: one entry per NodeId, kept for the
  /// World's lifetime, so a process rebuilt under the same id resumes
  /// them. FaultPlan and tests write it; SimNode::byzantine() reads it.
  ByzantineFlags& byzantine(NodeId id) { return byzantine_[id]; }

 private:
  EventQueue queue_;
  Rng rng_;
  std::unique_ptr<CryptoProvider> crypto_;
  std::unique_ptr<SimNetwork> net_;
  Transport* transport_ = nullptr;  // active seam; defaults to net_.get()
  RunDriver run_driver_;
  NodeId next_id_ = 1;
  obs::MetricsRegistry metrics_;
  std::unique_ptr<obs::Tracer> tracer_;
  obs::Tracer* tracer_raw_ = nullptr;
  std::map<NodeId, std::string> node_names_;
  std::map<NodeId, ByzantineFlags> byzantine_;  // node-based: entries never move
  // Process-global digest total at construction: metrics report this
  // World's digests only, keeping snapshots deterministic across replays
  // in one process.
  std::uint64_t payload_digest_base_ = 0;
};

}  // namespace spider
