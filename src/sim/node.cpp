#include "sim/node.hpp"

#include "common/serde.hpp"
#include "crypto/provider.hpp"
#include "obs/trace.hpp"
#include "sim/world.hpp"

namespace spider {

const char* cpu_cat_name(CpuCat cat) {
  switch (cat) {
    case CpuCat::kSerde: return "serde";
    case CpuCat::kCrypto: return "crypto";
    case CpuCat::kApp: return "app";
    case CpuCat::kOther: return "other";
  }
  return "other";
}

SimNode::SimNode(World& world, NodeId id, Site site)
    : world_(world), id_(id), site_(site), byzantine_(&world.byzantine(id)) {
  world_.transport().attach(this);
}

SimNode::~SimNode() {
  *alive_ = false;
  world_.transport().detach(id_);
}

Time SimNode::now() const { return world_.queue().now(); }

obs::Tracer* SimNode::tracer() const { return world_.tracer(); }

CryptoProvider& SimNode::crypto() { return world_.crypto(); }

void SimNode::deliver(NodeId from, Payload data) {
  const CryptoCosts& c = crypto().costs();
  Duration base = c.proc_per_msg + c.proc_per_kb * static_cast<Duration>(data.size()) / 1024;
  enqueue_task(
      [this, from, msg = std::move(data)]() {
        struct Scope {
          SimNode* n;
          ~Scope() { n->current_msg_ = nullptr; }
        } scope{this};
        current_msg_ = &msg;
        on_message(from, msg.view());
      },
      base);
}

Sha256Digest SimNode::hash_cached(BytesView sub) const {
  if (current_msg_ && current_msg_->contains(sub)) return current_msg_->digest_of(sub);
  return Sha256::hash(sub);
}

std::optional<BytesView> SimNode::verified_body(NodeId from, std::uint32_t tag_word,
                                                BytesView frame, bool is_sig) {
  const std::size_t auth_len = is_sig ? crypto().signature_size() : crypto().mac_size();
  if (frame.size() <= auth_len) {
    drop(Drop::kMalformed);
    return std::nullopt;
  }
  const BytesView body = frame.first(frame.size() - auth_len);
  const BytesView auth = frame.subspan(body.size());
  if (is_sig) {
    charge_verify();
  } else {
    charge_mac();
  }
  // Fast path: `frame` is the tail of the inbound message [u32 tag][frame].
  // The signed bytes [tag][body] are then content-identical to the message
  // prefix, so verifying over the prefix view gives the same verdict
  // without rebuilding. Detached bytes rebuild the domain-separated string.
  const Payload* msg = current_msg_;
  Bytes rebuilt;
  BytesView signed_bytes;
  if (msg != nullptr && msg->size() == 4 + frame.size() && frame.data() == msg->data() + 4) {
    signed_bytes = BytesView(msg->data(), 4 + body.size());
  } else {
    Writer w(4 + body.size());
    w.u32(tag_word);
    w.raw(body);
    rebuilt = std::move(w).take();
    signed_bytes = rebuilt;
  }
  const bool ok = is_sig ? crypto().verify(from, signed_bytes, auth)
                         : crypto().verify_mac(from, id_, signed_bytes, auth);
  if (!ok) {
    drop(Drop::kBadAuth);
    return std::nullopt;
  }
  return body;
}

void SimNode::drop(Drop why) {
  static constexpr const char* kNames[] = {"msg_dropped_unknown_tag", "msg_dropped_malformed",
                                           "msg_dropped_bad_auth", "msg_dropped_not_member"};
  world_.metrics().counter(kNames[static_cast<std::size_t>(why)], {.node = id_}).inc();
}

void SimNode::enqueue_task(std::function<void()> logic, Duration base_cost) {
  task_queue_.push_back(Task{std::move(logic), base_cost});
  if (!drain_scheduled_) schedule_drain(std::max(now(), busy_until_));
}

void SimNode::schedule_drain(Time at) {
  drain_scheduled_ = true;
  world_.queue().schedule_at(at, [this, alive = alive_] {
    if (*alive) drain();
  });
}

void SimNode::drain() {
  drain_scheduled_ = false;
  if (task_queue_.empty()) return;
  if (now() < busy_until_) {
    // Work got charged outside a task since this drain was scheduled.
    schedule_drain(busy_until_);
    return;
  }
  Task t = std::move(task_queue_.front());
  task_queue_.pop_front();
  run_task(std::move(t.logic), t.base_cost);
  if (!task_queue_.empty()) schedule_drain(busy_until_);
}

void SimNode::run_task(std::function<void()> logic, Duration base_cost) {
  in_task_ = true;
  task_charge_ = base_cost;
  busy_cat_[static_cast<std::size_t>(CpuCat::kSerde)] += base_cost;
  logic();
  in_task_ = false;

  Time start = now();
  busy_until_ = start + task_charge_;
  busy_accum_ += task_charge_;

  // CPU slice for the trace: [start, start + task_charge_] is exactly the
  // modeled execution window of this task on the single-server CPU.
  if (obs::Tracer* t = world_.tracer(); t && task_charge_ > 0) {
    t->complete(start, task_charge_, id_, "cpu", "task");
  }

  // Outputs leave the node once the CPU work is done. A node destroyed
  // (crashed) before that point never got its messages onto the wire.
  if (!outbox_.empty()) {
    std::vector<Outgoing> out = std::move(outbox_);
    outbox_.clear();
    world_.queue().schedule_at(busy_until_, [this, alive = alive_, out = std::move(out)]() mutable {
      if (!*alive) return;
      for (Outgoing& o : out) world_.transport().send(id_, o.to, std::move(o.data), o.cls);
    });
  }
}

void SimNode::charge(Duration cost, CpuCat cat) {
  busy_cat_[static_cast<std::size_t>(cat)] += cost;
  if (in_task_) {
    task_charge_ += cost;
  } else {
    busy_until_ = std::max(busy_until_, now()) + cost;
    busy_accum_ += cost;
  }
}

void SimNode::charge_sign() { charge(crypto().costs().sign, CpuCat::kCrypto); }
void SimNode::charge_verify() { charge(crypto().costs().verify, CpuCat::kCrypto); }
void SimNode::charge_mac() { charge(crypto().costs().mac, CpuCat::kCrypto); }
void SimNode::charge_hash(std::size_t nbytes) {
  charge(crypto().costs().hash_per_kb * static_cast<Duration>(nbytes + 1023) / 1024,
         CpuCat::kCrypto);
}

void SimNode::send_to(NodeId to, Payload data, TrafficClass cls) {
  const CryptoCosts& c = crypto().costs();
  charge(c.proc_per_msg / 2 + c.proc_per_kb * static_cast<Duration>(data.size()) / 1024,
         CpuCat::kSerde);
  if (in_task_) {
    outbox_.push_back(Outgoing{to, std::move(data), cls});
  } else {
    world_.transport().send(id_, to, std::move(data), cls);
  }
}

EventQueue::EventId SimNode::set_timer(Duration delay, std::function<void()> fn) {
  return world_.queue().schedule_after(delay, [this, alive = alive_, fn = std::move(fn)]() {
    if (!*alive) return;
    enqueue_task(fn, crypto().costs().proc_per_msg / 2);
  });
}

void SimNode::cancel_timer(EventQueue::EventId id) { world_.queue().cancel(id); }

EventQueue::EventId SimNode::defer(Duration delay, std::function<void()> fn) {
  return world_.queue().schedule_after(delay, [alive = alive_, fn = std::move(fn)]() {
    if (*alive) fn();
  });
}

}  // namespace spider
