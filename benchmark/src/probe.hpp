// Wall-clock attribution from outside the program.
//
// The benchmark never instruments src/. Instead it wraps the seams the
// program already exposes — CryptoProvider, Application and Transport — in
// decorators that forward every call unchanged and time it on one shared
// span stack. Everything runs on the World's single thread, so spans nest
// strictly: a client submission (load) that signs (crypto) and sends (net)
// leaves load with only its own share. A layer's self time is its span's
// duration minus the time its child spans cover; whatever no span covers is
// the simulator itself (event queue, node CPU model, protocol handlers,
// serde), reported as the remainder.
//
// The decorators are bit-transparent: they draw no randomness, schedule
// nothing and return exactly what the wrapped object returns, so a traced
// run replays the plain run's simulated history (checked by --selftest).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "app/application.hpp"
#include "crypto/provider.hpp"
#include "net/transport.hpp"

namespace spider::bench {

enum class Layer : std::uint8_t { kLoad, kCrypto, kApp, kNet, kCheck };
inline constexpr std::size_t kLayerCount = 5;

inline std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Calls and bytes seen at the layer boundaries.
struct LayerCounts {
  std::uint64_t sign = 0;
  std::uint64_t verify = 0;
  std::uint64_t mac = 0;  ///< MAC generation and checks
  std::int64_t sign_ns = 0;
  std::uint64_t app_calls = 0;
  std::uint64_t net_msgs = 0;
  std::uint64_t net_bytes = 0;
};

class SpanStack {
 public:
  void enter(Layer layer) { stack_.push_back(Frame{layer, wall_ns(), 0}); }
  /// Closes the innermost span and returns its full duration.
  std::int64_t exit();

  [[nodiscard]] double self_s(Layer layer) const {
    return static_cast<double>(self_ns_[static_cast<std::size_t>(layer)]) * 1e-9;
  }
  /// Zeroes the accumulators and counts (start of the measured window).
  void reset();

  LayerCounts counts;

 private:
  struct Frame {
    Layer layer;
    std::int64_t start_ns;
    std::int64_t child_ns;
  };
  std::vector<Frame> stack_;
  std::array<std::int64_t, kLayerCount> self_ns_{};
};

/// RAII span; a null stack makes it a no-op (plain runs).
class Span {
 public:
  Span(SpanStack* stack, Layer layer) : stack_(stack) {
    if (stack_) stack_->enter(layer);
  }
  ~Span() {
    if (stack_) stack_->exit();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanStack* stack_;
};

class TimedCrypto final : public CryptoProvider {
 public:
  TimedCrypto(std::unique_ptr<CryptoProvider> inner, SpanStack& spans);

  Bytes sign(NodeId signer, BytesView message) override;
  bool verify(NodeId signer, BytesView message, BytesView signature) override;
  Bytes mac(NodeId from, NodeId to, BytesView message) override;
  bool verify_mac(NodeId from, NodeId to, BytesView message, BytesView tag) override;
  std::size_t signature_size() const override { return inner_->signature_size(); }

 private:
  std::unique_ptr<CryptoProvider> inner_;
  SpanStack& spans_;
};

class TimedApp final : public Application {
 public:
  TimedApp(std::unique_ptr<Application> inner, SpanStack& spans)
      : inner_(std::move(inner)), spans_(spans) {}

  Bytes execute(BytesView op) override;
  Bytes execute_readonly(BytesView op) const override;
  Bytes execute_weak(BytesView op) const override;
  Bytes snapshot() const override;
  void restore(BytesView snapshot) override;
  std::unique_ptr<Application> clone_empty() const override;
  std::vector<std::string> op_keys(BytesView op) const override;
  Bytes extract_keys(const std::function<bool(std::string_view)>& moved) override;
  void absorb_keys(BytesView state) override;

 private:
  /// Opens an app span and counts the call.
  [[nodiscard]] Span call() const;

  std::unique_ptr<Application> inner_;
  SpanStack& spans_;
};

/// Forwards to the transport the World would otherwise use; accounting
/// (LinkStats) stays on the wrapped transport.
class TimedTransport final : public Transport {
 public:
  TimedTransport(Transport& inner, SpanStack& spans) : inner_(inner), spans_(spans) {}

  void attach(TransportEndpoint* ep) override { inner_.attach(ep); }
  void detach(NodeId id) override { inner_.detach(id); }
  using Transport::send;
  void send(NodeId from, NodeId to, Payload payload, TrafficClass cls) override;
  void set_node_down(NodeId id, bool down) override { inner_.set_node_down(id, down); }
  [[nodiscard]] bool is_down(NodeId id) const override { return inner_.is_down(id); }
  void reset_stats() override { inner_.reset_stats(); }

 private:
  Transport& inner_;
  SpanStack& spans_;
};

}  // namespace spider::bench
