#include "spider/checkpointer.hpp"

#include <algorithm>

#include "obs/trace.hpp"
#include "sim/world.hpp"

namespace spider {

namespace {
Bytes checkpoint_body(SeqNr s, const Sha256Digest& h) {
  return codec::encode(CheckpointMsgType::Checkpoint, CheckpointMsg{s, h});
}
}  // namespace

Checkpointer::Checkpointer(ComponentHost& host, std::uint32_t tag, std::vector<NodeId> group,
                           std::uint32_t f, StableFn stable, MemberCheck trusted)
    : Component(host, tag), group_(std::move(group)), f_(f), stable_(std::move(stable)),
      trusted_(std::move(trusted)) {
  if (!trusted_) {
    trusted_ = [this](NodeId n) {
      return std::find(group_.begin(), group_.end(), n) != group_.end();
    };
  }
}

Checkpointer::~Checkpointer() {
  if (fetch_timer_ != EventQueue::kInvalidEvent) cancel_timer(fetch_timer_);
}

void Checkpointer::add_fetch_peers(const std::vector<NodeId>& peers) {
  for (NodeId p : peers) {
    if (p == self()) continue;
    if (std::find(fetch_peers_.begin(), fetch_peers_.end(), p) == fetch_peers_.end()) {
      fetch_peers_.push_back(p);
    }
  }
}

void Checkpointer::gen_cp(SeqNr s, Bytes state) {
  if (s <= last_stable_) return;
  if (host().byzantine().forge_checkpoints) {
    // Byzantine: instead of voting for its genuine snapshot, sign a vote
    // for a tampered state digest and push a forged "stable" certificate
    // to the group. Correct replicas must reject both: the bogus digest
    // never gathers f+1 matching signatures, and the certificate fails
    // signer dedup.
    Bytes tampered = state;
    tampered.push_back(0xbd);
    host().charge_hash(tampered.size());
    Sha256Digest h = Sha256::hash(tampered);
    Bytes body = checkpoint_body(s, h);
    host().charge_sign();
    Bytes sig = crypto().sign(self(), auth_bytes(body));
    Bytes vote = body;
    vote.insert(vote.end(), sig.begin(), sig.end());

    // Forged certificate: a State message whose proof claims f+1 signers
    // but lists only this replica's signature, f+1 times over.
    CheckpointProof proof;
    proof.sigs.assign(f_ + 1, {self(), sig});
    const Bytes proof_bytes = codec::encode(proof);
    const Bytes cert =
        codec::encode(CheckpointMsgType::State, StateMsg{s, tampered, proof_bytes});

    Payload vote_wire = wire_frame(vote);
    Payload cert_frame = wire_frame(cert);
    for (NodeId n : group_) {
      if (n == self()) continue;
      send_wire(n, vote_wire);
      send_wire(n, cert_frame);
    }
    // Keep the genuine snapshot so check_stable can adopt the correct
    // checkpoint when f+1 honest votes stabilize it.
    own_snapshots_[s] = Payload(std::move(state));
    return;
  }
  Payload snapshot(std::move(state));
  host().charge_hash(snapshot.size());
  Sha256Digest h = snapshot.digest();
  own_snapshots_[s] = std::move(snapshot);

  Bytes body = checkpoint_body(s, h);
  host().charge_sign();
  Bytes sig = crypto().sign(self(), auth_bytes(body));
  candidates_[s][digest_prefix(h)].digest = h;
  candidates_[s][digest_prefix(h)].sigs[self()] = sig;

  // One frame shared by the whole group.
  Payload wire = wire_frame(body, sig);
  for (NodeId n : group_) {
    if (n != self()) send_wire(n, wire);
  }
  check_stable(s);
}

void Checkpointer::check_stable(SeqNr s) {
  if (s <= last_stable_) return;
  auto cit = candidates_.find(s);
  if (cit == candidates_.end()) return;
  for (auto& [key, pending] : cit->second) {
    if (pending.sigs.size() < f_ + 1) continue;
    // Stable. Do we hold matching state bytes? (memoized digest: gen_cp
    // already hashed this snapshot)
    auto oit = own_snapshots_.find(s);
    if (oit != own_snapshots_.end() && digest_prefix(oit->second.digest()) == key) {
      deliver(s, std::move(oit->second));
      return;
    }
    // We lack the snapshot: pull it from a replica that vouched for it.
    for (const auto& [signer, sig] : pending.sigs) {
      if (signer == self()) continue;
      send_wire(signer, wire_frame(codec::encode(CheckpointMsgType::Fetch, FetchMsg{s})));
      break;
    }
    return;
  }
}

Bytes Checkpointer::proof_for(SeqNr s) const {
  auto it = stable_proofs_.find(s);
  return it == stable_proofs_.end() ? Bytes{} : it->second;
}

void Checkpointer::deliver(SeqNr s, Payload state) {
  if (s <= last_stable_) return;
  last_stable_ = s;
  if (auto* t = host().tracer()) {
    t->instant(host().now(), host().id(), "checkpoint", "stable_cp", "seq", s);
  }

  // Assemble and store the f+1-signature proof for peers that fetch later.
  auto cit = candidates_.find(s);
  if (cit != candidates_.end()) {
    host().charge_hash(state.size());
    std::uint64_t key = digest_prefix(state.digest());
    auto pit = cit->second.find(key);
    if (pit != cit->second.end()) {
      CheckpointProof proof;
      for (const auto& [signer, sig] : pit->second.sigs) {
        if (proof.sigs.size() == f_ + 1) break;
        proof.sigs.emplace_back(signer, sig);
      }
      // Keep only the latest stable state to bound memory. Refcount, not
      // copy: the served state shares the delivered snapshot's buffer.
      stable_states_.clear();
      stable_proofs_.clear();
      stable_states_[s] = state;
      stable_proofs_[s] = codec::encode(proof);
    }
  }

  candidates_.erase(candidates_.begin(), candidates_.upper_bound(s));
  own_snapshots_.erase(own_snapshots_.begin(), own_snapshots_.upper_bound(s));
  if (fetch_target_ != 0 && fetch_target_ <= s) {
    fetch_target_ = 0;
    if (fetch_timer_ != EventQueue::kInvalidEvent) {
      cancel_timer(fetch_timer_);
      fetch_timer_ = EventQueue::kInvalidEvent;
    }
  }
  stable_(s, state);
}

void Checkpointer::fetch_cp(SeqNr s) {
  if (s <= last_stable_) return;
  if (fetch_target_ >= s && fetch_timer_ != EventQueue::kInvalidEvent) return;
  fetch_target_ = std::max(fetch_target_, s);
  if (auto* t = host().tracer()) {
    t->instant(host().now(), host().id(), "checkpoint", "fetch_cp", "seq", s);
  }
  retry_fetch();
}

void Checkpointer::retry_fetch() {
  if (fetch_target_ == 0 || fetch_target_ <= last_stable_) return;
  Payload wire = wire_frame(codec::encode(CheckpointMsgType::Fetch, FetchMsg{fetch_target_}));
  for (NodeId n : group_) {
    if (n != self()) send_wire(n, wire);
  }
  for (NodeId n : fetch_peers_) send_wire(n, wire);
  fetch_timer_ = set_timer(fetch_retry_, [this] {
    fetch_timer_ = EventQueue::kInvalidEvent;
    retry_fetch();
  });
}

bool Checkpointer::send_state(NodeId to, SeqNr s) {
  // Reply with our latest stable checkpoint if it satisfies the request.
  if (stable_states_.empty()) return false;
  auto it = stable_states_.rbegin();
  if (it->first < s) return false;
  Bytes proof = proof_for(it->first);
  if (proof.empty()) return false;
  send_wire(to, wire_frame(codec::encode(CheckpointMsgType::State,
                                         StateMsg{it->first, it->second, proof})));
  return true;
}

void Checkpointer::handle_state(const StateMsg& m) {
  const SeqNr s = m.seq;
  // Zero-copy: the adopted state is a slice of the inbound wire frame.
  Payload state = host().capture(m.state);
  if (s <= last_stable_) return;

  host().charge_hash(state.size());
  Sha256Digest h = state.digest();
  Bytes body = checkpoint_body(s, h);
  Bytes signed_bytes = auth_bytes(body);

  const auto proof = host().decode<CheckpointProof>(m.proof);
  if (!proof || proof->sigs.size() < f_ + 1) return;
  std::set<NodeId> seen;
  std::uint32_t valid = 0;
  for (const auto& [signer, sig] : proof->sigs) {
    if (seen.count(signer) || !trusted_(signer)) continue;
    host().charge_verify();
    if (!crypto().verify(signer, signed_bytes, sig)) continue;
    seen.insert(signer);
    ++valid;
  }
  if (valid < f_ + 1) return;

  // Record the proof so we can serve it onward, then deliver.
  candidates_[s][digest_prefix(h)].digest = h;
  // Re-store verified signatures for proof forwarding.
  for (const auto& [signer, sig] : proof->sigs) {
    if (seen.count(signer)) candidates_[s][digest_prefix(h)].sigs[signer] = to_bytes(sig);
  }
  deliver(s, std::move(state));
}

void Checkpointer::on_message(NodeId from, BytesView all) {
  if (all.empty()) return host().drop(Drop::kMalformed);
  auto type = static_cast<CheckpointMsgType>(all[0]);

  if (type == CheckpointMsgType::Checkpoint) {
    if (std::find(group_.begin(), group_.end(), from) == group_.end()) {
      return host().drop(Drop::kNotMember);
    }
    std::optional<BytesView> body = host().verified_body(from, tag(), all, /*is_sig=*/true);
    if (!body) return;

    const auto cp = host().decode<CheckpointMsg>(body->subspan(1));
    if (!cp || cp->seq <= last_stable_) return;
    Pending& p = candidates_[cp->seq][digest_prefix(cp->digest)];
    p.digest = cp->digest;
    p.sigs[from] = to_bytes(all.subspan(body->size()));  // the signature trailer
    check_stable(cp->seq);
  } else if (type == CheckpointMsgType::Fetch) {
    // Only trusted replicas may pull state — and, below, make every group
    // member snapshot on demand. An untrusted node must not be able to
    // force O(state) snapshot + sign + broadcast work on the whole group.
    if (!trusted_(from)) return host().drop(Drop::kNotMember);
    auto fetch = host().decode<FetchMsg>(all.subspan(1));
    if (fetch && !send_state(from, fetch->seq) && snapshot_now) {
      auto [seq, state] = snapshot_now();
      if (seq > 0) gen_cp(seq, std::move(state));
    }
  } else if (type == CheckpointMsgType::State) {
    if (auto state = host().decode<StateMsg>(all.subspan(1))) handle_state(*state);
  } else {
    host().drop(Drop::kMalformed);
  }
}

}  // namespace spider
