#include "baselines/hft_system.hpp"

#include <algorithm>

#include "crypto/sha256.hpp"
#include "sim/world.hpp"
#include "spider/system.hpp"

namespace spider {

namespace {
constexpr Duration kExecCost = 8;

void write_cert(Writer& w, const std::vector<std::pair<NodeId, Bytes>>& sigs) {
  w.u32(static_cast<std::uint32_t>(sigs.size()));
  for (const auto& [node, sig] : sigs) {
    w.u32(node);
    w.bytes(sig);
  }
}

std::vector<std::pair<NodeId, Bytes>> read_cert(Reader& r) {
  std::uint32_t n = r.count(4 + 4);  // node + signature length prefix
  std::vector<std::pair<NodeId, Bytes>> sigs;
  sigs.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    NodeId node = r.u32();
    sigs.emplace_back(node, r.bytes());
  }
  return sigs;
}
}  // namespace

HftReplica::HftReplica(World& world, NodeId self, Site site, std::uint32_t site_id,
                       std::uint32_t index_in_site, const HftConfig& cfg,
                       std::vector<std::vector<NodeId>> site_members,
                       std::unique_ptr<Application> app)
    : ComponentHost(world, self, site), site_id_(site_id), index_(index_in_site), f_(cfg.f),
      leader_site_(cfg.leader_site), sites_(std::move(site_members)), app_(std::move(app)) {
  port_ = std::make_unique<ClientPort>(*this, [this](ClientFrame frame, BytesView body) {
    handle_request(frame, body);
  });
  link_ = std::make_unique<TagHandler>(
      *this, tags::kHft, [this](NodeId from, Reader& r) { handle_site_frame(from, r); });
}

// ------------------------------------------------------------------ plumbing

void HftReplica::handle_site_frame(NodeId from, Reader& r) {
  std::optional<BytesView> body =
      verified_body(from, link_->tag(), r.raw(r.remaining()), /*is_sig=*/false);
  if (body) dispatch_site(from, *body);
}

void HftReplica::dispatch_site(NodeId from, BytesView body) {
  Reader br(body);
  switch (static_cast<Kind>(br.u8())) {
    case Kind::SignReq: handle_sign_req(from, br); break;
    case Kind::Partial: handle_partial(from, br); break;
    case Kind::Update: handle_update(from, br); break;
    case Kind::Proposal: handle_proposal(from, br); break;
    case Kind::Accept: handle_accept(from, br); break;
    case Kind::Commit: handle_commit(from, br); break;
    default: break;
  }
}

void HftReplica::send_site(NodeId to, BytesView body) {
  if (to == id()) {
    dispatch_site(to, body);  // a step this representative takes itself
    return;
  }
  // MAC'd like every site/WAN frame, but the sender's MAC is not charged
  // (the modeled cost sits with the receiver's check).
  link_->send_wire(to, link_->wire_frame(body, crypto().mac(id(), to, link_->auth_bytes(body))));
}

bool HftReplica::verify_cert(std::uint32_t site, BytesView statement,
                             const std::vector<std::pair<NodeId, Bytes>>& sigs) {
  if (site >= sites_.size()) return false;
  if (sigs.size() < threshold()) return false;
  std::set<NodeId> seen;
  std::uint32_t valid = 0;
  Bytes dom = link_->auth_bytes(statement);
  for (const auto& [node, sig] : sigs) {
    if (seen.count(node)) continue;
    if (std::find(sites_[site].begin(), sites_[site].end(), node) == sites_[site].end()) {
      continue;
    }
    charge_verify();
    if (!crypto().verify(node, dom, sig)) continue;
    seen.insert(node);
    ++valid;
  }
  return valid >= threshold();
}

// ------------------------------------------------------------------ client

void HftReplica::handle_request(const ClientFrame& frame, BytesView body) {
  const ClientRequest& req = frame.req;
  if (req.kind == OpKind::WeakRead) {
    charge(kExecCost);
    Bytes result = app_->execute_weak(req.op);
    port_->reply(req.client, req.counter, result, true);
    return;
  }

  std::uint64_t& last = t_[req.client];
  if (req.counter <= last) {
    auto uit = replies_.find(req.client);
    if (uit != replies_.end() && uit->second.first == req.counter) {
      port_->reply(req.client, req.counter, uit->second.second, false);
    }
    return;
  }

  if (!is_rep()) return;  // only the site representative initiates ordering

  if (!verify_client_signature(*this, frame)) return;
  last = req.counter;

  // Local round: threshold-certify <Update, site, h(frame)>.
  charge_hash(body.size());
  Sha256Digest h = hash_cached(body);
  Writer st;
  st.u8(static_cast<std::uint8_t>(Kind::Update));
  st.u32(site_id_);
  st.raw(BytesView(h.data(), h.size()));
  start_local_round(std::move(st).take(), to_bytes(body));
}

// ------------------------------------------------------- local threshold round

void HftReplica::start_local_round(const Bytes& statement, const Bytes& payload) {
  std::uint64_t key = digest_prefix(Sha256::hash(statement));
  PendingCert& round = rounds_[key];
  if (round.completed) return;
  round.statement = statement;
  round.payload = payload;

  charge_sign();
  round.sigs[id()] = crypto().sign(id(), link_->auth_bytes(statement));

  Writer w;
  w.u8(static_cast<std::uint8_t>(Kind::SignReq));
  w.bytes(statement);
  w.bytes(payload);
  Bytes body = std::move(w).take();
  for (NodeId n : sites_[site_id_]) {
    if (n == id()) continue;
    send_site(n, body);
  }
  if (round.sigs.size() >= threshold()) {
    round.completed = true;
    std::vector<std::pair<NodeId, Bytes>> sigs(round.sigs.begin(), round.sigs.end());
    on_certificate(round.statement, round.payload, std::move(sigs));
  }
}

void HftReplica::handle_sign_req(NodeId from, Reader& r) {
  if (from != sites_[site_id_][0]) return;  // only our representative
  Bytes statement = r.bytes();
  Bytes payload = r.bytes();
  if (statement.empty()) return;

  // For updates, replicas independently validate the client request so a
  // Byzantine representative cannot certify forged requests.
  if (static_cast<Kind>(statement[0]) == Kind::Update && !payload.empty()) {
    if (!verify_client_signature(*this, codec::decode<ClientFrame>(payload))) return;
  }

  charge_sign();
  Bytes sig = crypto().sign(id(), link_->auth_bytes(statement));
  Writer w;
  w.u8(static_cast<std::uint8_t>(Kind::Partial));
  w.bytes(statement);
  w.bytes(sig);
  send_site(from, w.data());
}

void HftReplica::handle_partial(NodeId from, Reader& r) {
  if (!is_rep()) return;
  if (std::find(sites_[site_id_].begin(), sites_[site_id_].end(), from) ==
      sites_[site_id_].end()) {
    return;
  }
  Bytes statement = r.bytes();
  Bytes sig = r.bytes();
  charge_verify();
  if (!crypto().verify(from, link_->auth_bytes(statement), sig)) return;

  std::uint64_t key = digest_prefix(Sha256::hash(statement));
  auto it = rounds_.find(key);
  if (it == rounds_.end() || it->second.completed) return;
  it->second.sigs[from] = std::move(sig);
  if (it->second.sigs.size() >= threshold()) {
    it->second.completed = true;
    std::vector<std::pair<NodeId, Bytes>> sigs(it->second.sigs.begin(), it->second.sigs.end());
    sigs.resize(threshold());
    on_certificate(it->second.statement, it->second.payload, std::move(sigs));
  }
}

// ------------------------------------------------------------ wide-area steps

void HftReplica::on_certificate(const Bytes& statement, const Bytes& payload,
                                std::vector<std::pair<NodeId, Bytes>> sigs) {
  const auto kind = static_cast<Kind>(statement[0]);
  Writer w;
  w.u8(static_cast<std::uint8_t>(kind));
  w.bytes(statement);
  if (kind != Kind::Accept) w.bytes(payload);
  write_cert(w, sigs);
  Bytes body = std::move(w).take();
  if (kind == Kind::Update) {
    send_site(sites_[leader_site_][0], body);  // to the leader site's representative
    return;
  }
  for (const std::vector<NodeId>& site : sites_) send_site(site[0], body);  // every rep
}

void HftReplica::handle_update(NodeId /*from*/, Reader& r) {
  if (id() != sites_[leader_site_][0]) return;  // leader-site representative only
  Bytes statement = r.bytes();
  Bytes frame = r.bytes();
  std::vector<std::pair<NodeId, Bytes>> sigs = read_cert(r);

  Reader sr(statement);
  sr.u8();
  std::uint32_t origin = sr.u32();
  if (!verify_cert(origin, statement, sigs)) return;

  SeqNr seq = next_seq_++;
  Ordering& o = order_state_[seq];
  o.frame = frame;
  o.origin_site = origin;

  charge_hash(frame.size());
  Sha256Digest h = Sha256::hash(frame);
  Writer st;
  st.u8(static_cast<std::uint8_t>(Kind::Proposal));
  st.u64(seq);
  st.u32(origin);
  st.raw(BytesView(h.data(), h.size()));
  start_local_round(std::move(st).take(), frame);
}

void HftReplica::handle_proposal(NodeId /*from*/, Reader& r) {
  if (!is_rep()) return;
  Bytes statement = r.bytes();
  Bytes frame = r.bytes();
  std::vector<std::pair<NodeId, Bytes>> sigs = read_cert(r);
  if (!verify_cert(leader_site_, statement, sigs)) return;

  Reader sr(statement);
  sr.u8();
  SeqNr seq = sr.u64();
  std::uint32_t origin = sr.u32();

  Ordering& o = order_state_[seq];
  if (o.proposal_seen) return;
  o.proposal_seen = true;
  o.frame = frame;
  o.origin_site = origin;
  o.accepts.insert(leader_site_);  // the proposal is the leader site's vote

  charge_hash(frame.size());
  Sha256Digest h = Sha256::hash(frame);
  Writer st;
  st.u8(static_cast<std::uint8_t>(Kind::Accept));
  st.u32(site_id_);
  st.u64(seq);
  st.raw(BytesView(h.data(), h.size()));
  start_local_round(std::move(st).take(), {});
  try_execute();
}

void HftReplica::handle_accept(NodeId /*from*/, Reader& r) {
  if (!is_rep()) return;
  Bytes statement = r.bytes();
  std::vector<std::pair<NodeId, Bytes>> sigs = read_cert(r);

  Reader sr(statement);
  sr.u8();
  std::uint32_t site = sr.u32();
  SeqNr seq = sr.u64();
  if (!verify_cert(site, statement, sigs)) return;

  order_state_[seq].accepts.insert(site);
  try_execute();
}

void HftReplica::try_execute() {
  const std::size_t majority = sites_.size() / 2 + 1;
  while (true) {
    auto it = order_state_.find(executed_ + 1);
    if (it == order_state_.end()) return;
    Ordering& o = it->second;
    if (o.committed) return;
    if (!o.proposal_seen || o.accepts.size() < majority) return;
    o.committed = true;

    // Distribute within the site and execute locally.
    Writer w;
    w.u8(static_cast<std::uint8_t>(Kind::Commit));
    w.u64(it->first);
    w.bytes(o.frame);
    w.u32(o.origin_site);
    Bytes body = std::move(w).take();
    for (NodeId n : sites_[site_id_]) {
      if (n == id()) continue;
      send_site(n, body);
    }
    dispatch_site(id(), body);
  }
}

void HftReplica::handle_commit(NodeId from, Reader& r) {
  if (from != sites_[site_id_][0] && from != id()) return;  // own representative
  SeqNr seq = r.u64();
  Bytes frame = r.bytes();
  std::uint32_t origin = r.u32();
  if (seq <= executed_) return;
  commit_buffer_[seq] = {std::move(frame), origin};

  while (true) {
    auto it = commit_buffer_.find(executed_ + 1);
    if (it == commit_buffer_.end()) return;
    executed_ = it->first;
    try {
      auto cf = codec::decode<ClientFrame>(it->second.first);
      const ClientRequest& req = cf.req;
      auto& cached = replies_[req.client];
      if (req.counter > cached.first) {
        charge(kExecCost);
        Bytes result = req.kind == OpKind::StrongRead ? app_->execute_readonly(req.op)
                                                      : app_->execute(req.op);
        cached = {req.counter, std::move(result)};
        t_[req.client] = std::max(t_[req.client], req.counter);
        if (it->second.second == site_id_) {
          port_->reply(req.client, req.counter, cached.second, false);
        }
      }
    } catch (const SerdeError&) {
    }
    commit_buffer_.erase(it);
  }
}

// ------------------------------------------------------------------ system

HftSystem::HftSystem(World& world, HftConfig cfg) : world_(world), cfg_(std::move(cfg)) {
  const std::size_t per_site = 3 * cfg_.f + 1;
  std::vector<std::vector<NodeId>> members(cfg_.site_regions.size());
  for (std::size_t s = 0; s < cfg_.site_regions.size(); ++s) {
    for (std::size_t i = 0; i < per_site; ++i) members[s].push_back(world_.allocate_id());
  }
  sites_.resize(cfg_.site_regions.size());
  for (std::size_t s = 0; s < cfg_.site_regions.size(); ++s) {
    std::vector<Site> placement = geo_replica_sites(cfg_.site_regions[s], per_site);
    for (std::size_t i = 0; i < per_site; ++i) {
      sites_[s].push_back(std::make_unique<HftReplica>(
          world_, members[s][i], placement[i], static_cast<std::uint32_t>(s),
          static_cast<std::uint32_t>(i), cfg_, members, cfg_.make_app()));
    }
  }
}

ClientGroupInfo HftSystem::site_info(std::uint32_t site) const {
  ClientGroupInfo info;
  info.group = site;
  info.fe = cfg_.f;
  for (const auto& r : sites_[site]) info.members.push_back(r->id());
  return info;
}

std::uint32_t HftSystem::nearest_site(Region r) const {
  std::uint32_t best = 0;
  Duration best_rtt = region_rtt(r, cfg_.site_regions[0]);
  for (std::uint32_t s = 1; s < cfg_.site_regions.size(); ++s) {
    Duration rtt = region_rtt(r, cfg_.site_regions[s]);
    if (rtt < best_rtt) {
      best = s;
      best_rtt = rtt;
    }
  }
  return best;
}

std::unique_ptr<SpiderClient> HftSystem::make_client(Site site, Duration retry) {
  return std::make_unique<SpiderClient>(world_, site, site_info(nearest_site(site.region)),
                                        retry);
}

}  // namespace spider
