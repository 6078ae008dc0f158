#include "probe.hpp"

namespace spider::bench {

std::int64_t SpanStack::exit() {
  const Frame f = stack_.back();
  stack_.pop_back();
  const std::int64_t dur = wall_ns() - f.start_ns;
  self_ns_[static_cast<std::size_t>(f.layer)] += dur - f.child_ns;
  if (!stack_.empty()) stack_.back().child_ns += dur;
  return dur;
}

void SpanStack::reset() {
  self_ns_.fill(0);
  counts = LayerCounts{};
}

// ---------------------------------------------------------------- crypto

TimedCrypto::TimedCrypto(std::unique_ptr<CryptoProvider> inner, SpanStack& spans)
    : inner_(std::move(inner)), spans_(spans) {
  costs() = inner_->costs();  // modeled costs are read through the World's provider
}

Bytes TimedCrypto::sign(NodeId signer, BytesView message) {
  spans_.enter(Layer::kCrypto);
  Bytes sig = inner_->sign(signer, message);
  spans_.counts.sign_ns += spans_.exit();
  ++spans_.counts.sign;
  return sig;
}

bool TimedCrypto::verify(NodeId signer, BytesView message, BytesView signature) {
  Span span(&spans_, Layer::kCrypto);
  ++spans_.counts.verify;
  return inner_->verify(signer, message, signature);
}

Bytes TimedCrypto::mac(NodeId from, NodeId to, BytesView message) {
  Span span(&spans_, Layer::kCrypto);
  ++spans_.counts.mac;
  return inner_->mac(from, to, message);
}

bool TimedCrypto::verify_mac(NodeId from, NodeId to, BytesView message, BytesView tag) {
  Span span(&spans_, Layer::kCrypto);
  ++spans_.counts.mac;
  return inner_->verify_mac(from, to, message, tag);
}

// ---------------------------------------------------------------- app

Span TimedApp::call() const {
  ++spans_.counts.app_calls;
  return Span(&spans_, Layer::kApp);
}

Bytes TimedApp::execute(BytesView op) {
  Span span = call();
  return inner_->execute(op);
}

Bytes TimedApp::execute_readonly(BytesView op) const {
  Span span = call();
  return inner_->execute_readonly(op);
}

Bytes TimedApp::execute_weak(BytesView op) const {
  Span span = call();
  return inner_->execute_weak(op);
}

Bytes TimedApp::snapshot() const {
  Span span = call();
  return inner_->snapshot();
}

void TimedApp::restore(BytesView snapshot) {
  Span span = call();
  inner_->restore(snapshot);
}

std::unique_ptr<Application> TimedApp::clone_empty() const {
  return std::make_unique<TimedApp>(inner_->clone_empty(), spans_);
}

std::vector<std::string> TimedApp::op_keys(BytesView op) const {
  Span span = call();
  return inner_->op_keys(op);
}

Bytes TimedApp::extract_keys(const std::function<bool(std::string_view)>& moved) {
  Span span = call();
  return inner_->extract_keys(moved);
}

void TimedApp::absorb_keys(BytesView state) {
  Span span = call();
  inner_->absorb_keys(state);
}

// ---------------------------------------------------------------- net

void TimedTransport::send(NodeId from, NodeId to, Payload payload, TrafficClass cls) {
  Span span(&spans_, Layer::kNet);
  ++spans_.counts.net_msgs;
  spans_.counts.net_bytes += payload.size();
  inner_.send(from, to, std::move(payload), cls);
}

}  // namespace spider::bench
