#include "baselines/hft_system.hpp"

#include <algorithm>

#include "crypto/sha256.hpp"
#include "sim/world.hpp"
#include "spider/system.hpp"

namespace spider {

namespace {
constexpr Duration kExecCost = 8;
using hft::Kind;

/// The statement of `kind` that `statement` holds; nothing, counted as a
/// malformed drop at `host`, for any other kind or bytes that are not one.
template <class S>
std::optional<S> statement_of(ComponentHost& host, Kind kind, BytesView statement) {
  if (statement.empty() || statement[0] != static_cast<std::uint8_t>(kind)) {
    host.drop(Drop::kMalformed);
    return std::nullopt;
  }
  return host.decode<S>(statement.subspan(1));
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
      *this, tags::kHft, [this](NodeId from, BytesView f) { handle_site_frame(from, f); });
}

// ------------------------------------------------------------------ plumbing

void HftReplica::handle_site_frame(NodeId from, BytesView frame) {
  std::optional<BytesView> body = verified_body(from, link_->tag(), frame, /*is_sig=*/false);
  if (body) dispatch_site(from, *body);
}

void HftReplica::dispatch_site(NodeId from, BytesView body) {
  if (body.empty()) return drop(Drop::kMalformed);
  const BytesView fields = body.subspan(1);
  switch (static_cast<Kind>(body[0])) {
    case Kind::SignReq: handle_sign_req(from, fields); break;
    case Kind::Partial: handle_partial(from, fields); break;
    case Kind::Update: handle_update(fields); break;
    case Kind::Proposal: handle_proposal(fields); break;
    case Kind::Accept: handle_accept(fields); break;
    case Kind::Commit: handle_commit(from, fields); break;
    default: drop(Drop::kMalformed); break;
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
                             const hft::Certificate& sigs) {
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
    if (auto result = execute_op(*app_, OpKind::WeakRead, req.op)) {
      port_->reply(req.client, req.counter, *result, true);
    }
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
  start_local_round(codec::encode(Kind::Update, hft::UpdateStmt{site_id_, h}), to_bytes(body));
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

  const Bytes body = codec::encode(Kind::SignReq, hft::SignMsg{statement, payload});
  for (NodeId n : sites_[site_id_]) {
    if (n == id()) continue;
    send_site(n, body);
  }
  if (round.sigs.size() >= threshold()) {
    round.completed = true;
    hft::Certificate sigs(round.sigs.begin(), round.sigs.end());
    on_certificate(round.statement, round.payload, std::move(sigs));
  }
}

void HftReplica::handle_sign_req(NodeId from, BytesView fields) {
  if (from != sites_[site_id_][0]) return drop(Drop::kNotMember);  // only our representative
  auto m = decode<hft::SignMsg>(fields);
  if (!m) return;
  if (m->statement.empty()) return drop(Drop::kMalformed);

  // For updates, replicas independently validate the client request so a
  // Byzantine representative cannot certify forged requests: the statement
  // must name this site and the digest of the signed frame shown with it.
  if (static_cast<Kind>(m->statement[0]) == Kind::Update) {
    if (m->data.empty()) return drop(Drop::kMalformed);
    const auto st = statement_of<hft::UpdateStmt>(*this, Kind::Update, m->statement);
    if (!st || st->site != site_id_) return;
    charge_hash(m->data.size());
    if (Sha256::hash(m->data) != st->digest) return;
    const auto frame = decode<ClientFrame>(m->data);
    if (!frame || !verify_client_signature(*this, *frame)) return;
  }

  charge_sign();
  Bytes sig = crypto().sign(id(), link_->auth_bytes(m->statement));
  send_site(from, codec::encode(Kind::Partial, hft::SignMsg{std::move(m->statement), sig}));
}

void HftReplica::handle_partial(NodeId from, BytesView fields) {
  if (!is_rep()) return;
  if (std::find(sites_[site_id_].begin(), sites_[site_id_].end(), from) ==
      sites_[site_id_].end()) {
    return drop(Drop::kNotMember);
  }
  auto m = decode<hft::SignMsg>(fields);
  if (!m) return;
  charge_verify();
  if (!crypto().verify(from, link_->auth_bytes(m->statement), m->data)) return;

  std::uint64_t key = digest_prefix(Sha256::hash(m->statement));
  auto it = rounds_.find(key);
  if (it == rounds_.end() || it->second.completed) return;
  it->second.sigs[from] = std::move(m->data);
  if (it->second.sigs.size() >= threshold()) {
    it->second.completed = true;
    hft::Certificate sigs(it->second.sigs.begin(), it->second.sigs.end());
    sigs.resize(threshold());
    on_certificate(it->second.statement, it->second.payload, std::move(sigs));
  }
}

// ------------------------------------------------------------ wide-area steps

void HftReplica::on_certificate(const Bytes& statement, const Bytes& payload,
                                hft::Certificate sigs) {
  const auto kind = static_cast<Kind>(statement[0]);
  if (kind == Kind::Accept) {
    const Bytes body = codec::encode(kind, hft::AcceptMsg{statement, std::move(sigs)});
    for (const std::vector<NodeId>& site : sites_) send_site(site[0], body);  // every rep
    return;
  }
  const Bytes body = codec::encode(kind, hft::CertifiedMsg{statement, payload, std::move(sigs)});
  if (kind == Kind::Update) {
    send_site(sites_[leader_site_][0], body);  // to the leader site's representative
    return;
  }
  for (const std::vector<NodeId>& site : sites_) send_site(site[0], body);  // every rep
}

void HftReplica::handle_update(BytesView fields) {
  if (id() != sites_[leader_site_][0]) return;  // leader-site representative only
  auto m = decode<hft::CertifiedMsg>(fields);
  if (!m) return;
  const auto st = statement_of<hft::UpdateStmt>(*this, Kind::Update, m->statement);
  if (!st || !verify_cert(st->site, m->statement, m->sigs)) return;

  // The certificate vouches for one frame: a representative that replays
  // it next to another frame is ignored.
  charge_hash(m->frame.size());
  Sha256Digest h = Sha256::hash(m->frame);
  if (h != st->digest) return;

  SeqNr seq = next_seq_++;
  Ordering& o = order_state_[seq];
  o.frame = m->frame;
  o.origin_site = st->site;
  start_local_round(codec::encode(Kind::Proposal, hft::ProposalStmt{seq, st->site, h}),
                    m->frame);
}

void HftReplica::handle_proposal(BytesView fields) {
  if (!is_rep()) return;
  auto m = decode<hft::CertifiedMsg>(fields);
  if (!m) return;
  const auto st = statement_of<hft::ProposalStmt>(*this, Kind::Proposal, m->statement);
  if (!st || !verify_cert(leader_site_, m->statement, m->sigs)) return;

  Ordering& o = order_state_[st->seq];
  if (o.proposal_seen) return;
  charge_hash(m->frame.size());
  Sha256Digest h = Sha256::hash(m->frame);
  if (h != st->digest) return;  // the proposal certifies another frame
  o.proposal_seen = true;
  o.frame = std::move(m->frame);
  o.origin_site = st->origin;
  o.accepts.insert(leader_site_);  // the proposal is the leader site's vote

  start_local_round(codec::encode(Kind::Accept, hft::AcceptStmt{site_id_, st->seq, h}), {});
  try_execute();
}

void HftReplica::handle_accept(BytesView fields) {
  if (!is_rep()) return;
  auto m = decode<hft::AcceptMsg>(fields);
  if (!m) return;
  const auto st = statement_of<hft::AcceptStmt>(*this, Kind::Accept, m->statement);
  if (!st || !verify_cert(st->site, m->statement, m->sigs)) return;

  order_state_[st->seq].accepts.insert(st->site);
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
    const Bytes body =
        codec::encode(Kind::Commit, hft::CommitMsg{it->first, o.frame, o.origin_site});
    for (NodeId n : sites_[site_id_]) {
      if (n == id()) continue;
      send_site(n, body);
    }
    dispatch_site(id(), body);
  }
}

void HftReplica::handle_commit(NodeId from, BytesView fields) {
  // From our own representative, or a step this representative takes itself.
  if (from != sites_[site_id_][0] && from != id()) return drop(Drop::kNotMember);
  auto m = decode<hft::CommitMsg>(fields);
  if (!m || m->seq <= executed_) return;
  commit_buffer_[m->seq] = {std::move(m->frame), m->origin};

  while (true) {
    auto it = commit_buffer_.find(executed_ + 1);
    if (it == commit_buffer_.end()) return;
    executed_ = it->first;
    if (auto cf = codec::try_decode<ClientFrame>(it->second.first)) {
      const ClientRequest& req = cf->req;
      auto& cached = replies_[req.client];
      if (req.counter > cached.first) {
        charge(kExecCost);
        if (auto result = execute_op(*app_, req.kind, req.op)) {
          cached = {req.counter, std::move(*result)};
          t_[req.client] = std::max(t_[req.client], req.counter);
          if (it->second.second == site_id_) {
            port_->reply(req.client, req.counter, cached.second, false);
          }
        }
      }
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
