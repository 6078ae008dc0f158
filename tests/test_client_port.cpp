// The client wire protocol at its one boundary: ClientPort on Spider
// execution replicas and on both baselines, SpiderClient's reply handler,
// and ComponentHost's dispatch for every other tag. Hostile frames must be
// dropped without crashing and without moving any replica's state, and
// each drop is counted under its reason; requests of an undefined kind
// must never execute, a signed request padded with extra bytes must not be
// ordered as a second request, and an error thrown by a completion
// callback must reach the caller.
#include <gtest/gtest.h>

#include <array>
#include <functional>

#include "baselines/bft_system.hpp"
#include "baselines/hft_system.hpp"
#include "irmc/messages.hpp"
#include "spider/system.hpp"
#include "tests/support/drive.hpp"

namespace spider {
namespace {

constexpr std::uint32_t kUnknownTag = 0x7f000000;

Bytes tagged(std::uint32_t tag, BytesView body) {
  Writer w;
  w.u32(tag);
  w.raw(body);
  return std::move(w).take();
}

/// [tag][body][mac], MAC'd (from -> to) over [tag][body].
Bytes maced(World& world, std::uint32_t tag, NodeId from, NodeId to, BytesView body) {
  Bytes wire = tagged(tag, body);
  Bytes mac = world.crypto().mac(from, to, wire);
  wire.insert(wire.end(), mac.begin(), mac.end());
  return wire;
}

/// The request frame SpiderClient would send, signed by `signer`.
Bytes signed_frame(World& world, NodeId signer, const ClientRequest& req) {
  Bytes sig = world.crypto().sign(signer, tagged(tags::kClient, codec::encode(req)));
  return codec::encode(ClientFrame{req, std::move(sig)});
}

/// Non-canonical copies of a signed frame that the signature still covers:
/// one byte more inside the request field (its length prefix bumped), and
/// one byte after the signature.
std::vector<Bytes> padded_frames(const Bytes& frame) {
  Reader r(frame);
  Bytes req = r.bytes();
  req.push_back(0);
  Writer inside;
  inside.bytes(req);
  inside.bytes(r.bytes_view());
  Bytes after = frame;
  after.push_back(0);
  return {std::move(inside).take(), after};
}

/// Sends `to` every kind of hostile frame from `evil`: frames shorter than
/// their MAC under each MAC'd tag, MAC'd garbage under kClient and kHft, a
/// correctly signed and MAC'd request that claims `victim` as its client,
/// an unknown tag, a kClient frame whose MAC fails, and MAC'd frames that
/// only a membership check refuses (PBFT, checkpoint Fetch, HFT SignReq).
void send_hostile_frames(World& world, ComponentHost& evil, NodeId to, NodeId victim) {
  const Bytes short_trailer(world.crypto().mac_size() - 1, 0xab);
  for (std::uint32_t tag : {tags::kClient, tags::kHft, tags::kRegistry}) {
    evil.send_to(to, tagged(tag, short_trailer));
  }
  evil.send_to(to, Bytes{0x03});  // shorter than a tag
  const Bytes garbage = {0xff, 0xff, 0xff, 0xff, 0x01, 0x02, 0x03, 0x04, 0x05};
  evil.send_to(to, maced(world, tags::kClient, evil.id(), to, garbage));
  evil.send_to(to, maced(world, tags::kHft, evil.id(), to, garbage));
  // Validly signed by the victim, with a counter above any it used: only
  // the port's identity check stops it.
  ClientRequest forged{OpKind::Write, victim, 1000, kv_put("forged", to_bytes(std::string("x")))};
  evil.send_to(to, maced(world, tags::kClient, evil.id(), to,
                         signed_frame(world, victim, forged)));
  evil.send_to(to, tagged(kUnknownTag, garbage));
  Bytes bad_mac = maced(world, tags::kClient, evil.id(), to, garbage);
  bad_mac.back() ^= 1;
  evil.send_to(to, bad_mac);
  evil.send_to(to, maced(world, tags::kPbft, evil.id(), to, garbage));
  evil.send_to(to, maced(world, tags::kCheckpoint, evil.id(), to,
                         codec::encode(CheckpointMsgType::Fetch, FetchMsg{1})));
  evil.send_to(to, maced(world, tags::kHft, evil.id(), to,
                         codec::encode(hft::Kind::SignReq, hft::SignMsg{Bytes{1}, {}})));
}

/// `node`'s msg_dropped_* counters: unknown tag, malformed, bad auth, not
/// a member.
using Drops = std::array<std::uint64_t, 4>;
Drops drops_at(World& world, NodeId node) {
  Drops out{};
  const char* names[] = {"msg_dropped_unknown_tag", "msg_dropped_malformed",
                         "msg_dropped_bad_auth", "msg_dropped_not_member"};
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = world.metrics().counter(names[i], {.node = node}).value();
  }
  return out;
}

/// Drop counters exist only once something was dropped.
bool nothing_dropped(World& world) {
  return world.metrics().snapshot_json().find("msg_dropped_") == std::string::npos;
}

bool has_key(const Application& app, const std::string& key) {
  return kv_decode_reply(app.execute_readonly(kv_get(key))).ok;
}

SpiderTopology small_topology() {
  SpiderTopology t;
  t.exec_regions = {Region::Virginia, Region::Tokyo};
  t.client_retry = kSecond;
  return t;
}

std::vector<Site> geo_sites() {
  return {Site{Region::Virginia, 0}, Site{Region::Oregon, 0}, Site{Region::Ireland, 0},
          Site{Region::Tokyo, 0}};
}

// ------------------------------------------------------------ op kinds

TEST(ClientRequestKind, DecoderRejectsUndefinedKinds) {
  // Every enum field on the wire: a sample holding it, the offset of its
  // byte, its defined range and a decoder that returns the field.
  struct EnumField {
    const char* name;
    Bytes wire;
    std::size_t offset;
    unsigned first, last;
    std::function<unsigned(BytesView)> decode;
  };
  const Bytes execute =
      codec::encode(ExecuteMsg{ExecuteKind::Full, 12, 1, 77, 5, OpKind::Write, Bytes{1}});
  const std::vector<EnumField> fields = {
      {"ClientRequest.kind", codec::encode(ClientRequest{OpKind::Write, 7, 1, Bytes{1, 2}}), 0, 1,
       4, [](BytesView b) { return static_cast<unsigned>(codec::decode<ClientRequest>(b).kind); }},
      {"ExecuteMsg.kind", execute, 0, 1, 4,
       [](BytesView b) { return static_cast<unsigned>(codec::decode<ExecuteMsg>(b).kind); }},
      {"ExecuteMsg.op_kind", execute, 1 + 8 + 4 + 4 + 8, 1, 4,
       [](BytesView b) { return static_cast<unsigned>(codec::decode<ExecuteMsg>(b).op_kind); }},
      {"ReconfigCmd.region", codec::encode(ReconfigCmd{true, 3, Region::Tokyo, {10}}), 1 + 4, 0, 8,
       [](BytesView b) { return static_cast<unsigned>(codec::decode<ReconfigCmd>(b).region); }},
      {"RegistryEntry.region", codec::encode(RegistryEntry{3, Region::Tokyo, {10}}), 4, 0, 8,
       [](BytesView b) { return static_cast<unsigned>(codec::decode<RegistryEntry>(b).region); }},
  };
  for (const EnumField& f : fields) {
    for (unsigned v = 0; v < 256; ++v) {
      Bytes wire = f.wire;
      wire[f.offset] = static_cast<std::uint8_t>(v);
      if (v >= f.first && v <= f.last) {
        EXPECT_EQ(f.decode(wire), v) << f.name;
      } else {
        EXPECT_THROW(f.decode(wire), SerdeError) << f.name << " " << v;
      }
    }
  }
}

TEST(ClientRequestKind, SpiderNeverExecutesUndefinedKind) {
  World world(5);
  SpiderSystem sys(world, small_topology());
  const GroupId g = sys.nearest_group(Region::Virginia);
  const ClientGroupInfo info = sys.group_info(g);
  ComponentHost evil(world, world.allocate_id(), Site{Region::Virginia, 0});
  // A correctly signed request from its own client, but of kind 7.
  ClientRequest req{static_cast<OpKind>(7), evil.id(), 1,
                    kv_put("kind7", to_bytes(std::string("v")))};
  const Bytes frame = signed_frame(world, evil.id(), req);
  for (NodeId m : info.members) evil.send_to(m, maced(world, tags::kClient, evil.id(), m, frame));
  world.run_for(5 * kSecond);

  for (GroupId gid : sys.group_ids()) {
    for (std::size_t i = 0; i < sys.group_size(gid); ++i) {
      EXPECT_FALSE(has_key(sys.exec(gid, i).app(), "kind7")) << gid << "/" << i;
      EXPECT_EQ(sys.exec(gid, i).executed_seq(), 0u);
    }
  }
  auto client = sys.make_client(Site{Region::Virginia, 0});
  EXPECT_TRUE(drive::blocking_write(world, *client, "good", "v").ok);
}

TEST(ClientRequestKind, BftNeverExecutesUndefinedKind) {
  World world(5);
  BftSystem sys(world, BftConfig{geo_sites()});
  ComponentHost evil(world, world.allocate_id(), Site{Region::Virginia, 0});
  ClientRequest req{static_cast<OpKind>(7), evil.id(), 1,
                    kv_put("kind7", to_bytes(std::string("v")))};
  const Bytes frame = signed_frame(world, evil.id(), req);
  for (NodeId m : sys.replica_ids()) {
    evil.send_to(m, maced(world, tags::kClient, evil.id(), m, frame));
  }
  world.run_for(5 * kSecond);

  for (std::size_t i = 0; i < sys.size(); ++i) {
    EXPECT_FALSE(has_key(sys.replica(i).app(), "kind7")) << i;
    EXPECT_EQ(sys.replica(i).executed_seq(), 0u);
  }
  auto client = sys.make_client(Site{Region::Virginia, 0});
  EXPECT_TRUE(drive::blocking_write(world, *client, "good", "v").ok);
}

// ------------------------------------------------------- hostile frames

TEST(ClientPortHostile, SpiderReplicasDropEveryHostileFrame) {
  World world(9);
  SpiderSystem sys(world, small_topology());
  auto client = sys.make_client(Site{Region::Virginia, 0});
  ASSERT_TRUE(drive::blocking_write(world, *client, "before", "v").ok);
  world.run_for(kSecond);
  EXPECT_TRUE(nothing_dropped(world));

  struct State {
    SeqNr seq;
    Bytes app;
  };
  std::vector<State> exec_before;
  for (GroupId g : sys.group_ids()) {
    for (std::size_t i = 0; i < sys.group_size(g); ++i) {
      exec_before.push_back({sys.exec(g, i).executed_seq(), sys.exec(g, i).app().snapshot()});
    }
  }
  std::vector<SeqNr> ordered_before;
  for (std::size_t i = 0; i < sys.agreement_size(); ++i) {
    ordered_before.push_back(sys.agreement(i).ordered_seq());
  }

  // Besides the common frames, MAC'd Moves under both IRMC channel tags of
  // the client's group: its channels' endpoints refuse them as not from a
  // member, every other execution replica holds neither tag.
  const GroupId home = sys.nearest_group(Region::Virginia);
  const Bytes move = codec::encode(irmc::MsgType::Move, irmc::MoveMsg{1, 2});
  ComponentHost evil(world, world.allocate_id(), Site{Region::Virginia, 0});
  for (NodeId n : sys.replica_ids()) {
    send_hostile_frames(world, evil, n, client->id());
    for (std::uint32_t tag : {request_channel_tag(home), commit_channel_tag(home)}) {
      evil.send_to(n, maced(world, tag, evil.id(), n, move));
    }
  }
  world.run_for(3 * kSecond);

  const std::vector<NodeId> agreement = sys.agreement_ids();
  const std::vector<NodeId> group = sys.group_info(home).members;
  auto in = [](const std::vector<NodeId>& v, NodeId n) {
    return std::find(v.begin(), v.end(), n) != v.end();
  };
  for (NodeId n : sys.replica_ids()) {
    // Agreement replicas hold kPbft, kCheckpoint, kRegistry (which answers
    // only the bare tag) and every IRMC tag; execution replicas hold
    // kClient, kCheckpoint and their own group's IRMC tags.
    const Drops expected = in(agreement, n) ? Drops{8, 2, 0, 4}
                           : in(group, n)   ? Drops{6, 3, 2, 3}
                                            : Drops{8, 3, 2, 1};
    EXPECT_EQ(drops_at(world, n), expected) << n;
  }

  std::size_t k = 0;
  for (GroupId g : sys.group_ids()) {
    for (std::size_t i = 0; i < sys.group_size(g); ++i, ++k) {
      EXPECT_EQ(sys.exec(g, i).executed_seq(), exec_before[k].seq) << g << "/" << i;
      EXPECT_EQ(sys.exec(g, i).app().snapshot(), exec_before[k].app) << g << "/" << i;
      EXPECT_FALSE(has_key(sys.exec(g, i).app(), "forged"));
    }
  }
  for (std::size_t i = 0; i < sys.agreement_size(); ++i) {
    EXPECT_EQ(sys.agreement(i).ordered_seq(), ordered_before[i]) << i;
  }

  const drive::KvOutcome after = drive::blocking_write(world, *client, "after", "w");
  EXPECT_TRUE(after.ok);
  EXPECT_EQ(to_string(drive::blocking_weak_read(world, *client, "after").value), "w");
}

TEST(ClientPortHostile, BftReplicasDropEveryHostileFrame) {
  World world(9);
  BftSystem sys(world, BftConfig{geo_sites()});
  auto client = sys.make_client(Site{Region::Virginia, 0});
  ASSERT_TRUE(drive::blocking_write(world, *client, "before", "v").ok);
  world.run_for(kSecond);
  EXPECT_TRUE(nothing_dropped(world));

  std::vector<SeqNr> seq_before;
  std::vector<Bytes> app_before;
  for (std::size_t i = 0; i < sys.size(); ++i) {
    seq_before.push_back(sys.replica(i).executed_seq());
    app_before.push_back(sys.replica(i).app().snapshot());
  }

  ComponentHost evil(world, world.allocate_id(), Site{Region::Virginia, 0});
  for (NodeId n : sys.replica_ids()) send_hostile_frames(world, evil, n, client->id());
  world.run_for(3 * kSecond);

  // BFT replicas hold kClient, kPbft and kCheckpoint.
  for (NodeId n : sys.replica_ids()) EXPECT_EQ(drops_at(world, n), (Drops{5, 3, 2, 2})) << n;

  for (std::size_t i = 0; i < sys.size(); ++i) {
    EXPECT_EQ(sys.replica(i).executed_seq(), seq_before[i]) << i;
    EXPECT_EQ(sys.replica(i).app().snapshot(), app_before[i]) << i;
  }
  EXPECT_TRUE(drive::blocking_write(world, *client, "after", "w").ok);
}

TEST(ClientPortHostile, HftReplicasDropEveryHostileFrame) {
  World world(9);
  HftSystem sys(world, HftConfig{});
  auto client = sys.make_client(Site{Region::Virginia, 0});
  ASSERT_TRUE(drive::blocking_write(world, *client, "before", "v").ok);
  world.run_for(kSecond);
  EXPECT_TRUE(nothing_dropped(world));

  std::vector<SeqNr> seq_before;
  std::vector<Bytes> app_before;
  std::vector<HftReplica*> all;
  for (std::uint32_t s = 0; s < sys.site_count(); ++s) {
    for (std::uint32_t i = 0; i < sys.site_info(s).members.size(); ++i) {
      all.push_back(&sys.replica(s, i));
      seq_before.push_back(all.back()->executed_seq());
      app_before.push_back(all.back()->app().snapshot());
    }
  }

  ComponentHost evil(world, world.allocate_id(), Site{Region::Virginia, 0});
  for (HftReplica* r : all) send_hostile_frames(world, evil, r->id(), client->id());
  world.run_for(3 * kSecond);

  // HFT replicas hold kClient and kHft, whose frames are MAC'd.
  for (HftReplica* r : all) EXPECT_EQ(drops_at(world, r->id()), (Drops{4, 5, 2, 1})) << r->id();

  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i]->executed_seq(), seq_before[i]) << i;
    EXPECT_EQ(all[i]->app().snapshot(), app_before[i]) << i;
  }
  EXPECT_TRUE(drive::blocking_write(world, *client, "after", "w").ok);
}

TEST(ClientPortHostile, SpiderClientDropsEveryHostileFrame) {
  World world(9);
  SpiderSystem sys(world, small_topology());
  // The hostile sender is listed as a member of the client's group, so its
  // MAC'd frames get past the membership check and reach the decoder; fe+1
  // correct replicas still form the reply quorum.
  ComponentHost evil(world, world.allocate_id(), Site{Region::Virginia, 0});
  ClientGroupInfo info = sys.group_info(sys.nearest_group(Region::Virginia));
  info.members.push_back(evil.id());
  SpiderClient client(world, Site{Region::Virginia, 0}, info, kSecond);
  ASSERT_TRUE(drive::blocking_write(world, client, "before", "v").ok);
  // Only `evil` dropped something: the request, under a tag it does not hold.
  EXPECT_EQ(drops_at(world, client.id()), Drops{});

  send_hostile_frames(world, evil, client.id(), client.id());
  // A well-formed MAC'd reply for a counter the client never used.
  ReplyMsg stray{99, to_bytes(std::string("stray")), false};
  evil.send_to(client.id(),
               maced(world, tags::kClient, evil.id(), client.id(), codec::encode(stray)));
  world.run_for(kSecond);
  // The client holds kClient only; the signed request is no reply, and a
  // stray reply is ignored, not dropped.
  EXPECT_EQ(drops_at(world, client.id()), (Drops{7, 4, 1, 0}));

  const drive::KvOutcome after = drive::blocking_write(world, client, "after", "w");
  EXPECT_TRUE(after.ok);
  EXPECT_EQ(to_string(drive::blocking_weak_read(world, client, "after").value), "w");
}

// ------------------------------------------------- completion callbacks

TEST(ClientReplyCallback, SerdeErrorReachesTheCaller) {
  // A caller that cannot parse its reply throws SerdeError from the
  // completion callback, as kv_decode_reply does. The error must leave
  // World::run_for, not be taken for a malformed inbound frame and dropped.
  World world(9);
  SpiderSystem sys(world, small_topology());
  auto client = sys.make_client(Site{Region::Virginia, 0});
  int calls = 0;
  client->write(kv_put("k", to_bytes(std::string("v"))), [&](Bytes, Duration) {
    ++calls;
    throw SerdeError("unparseable reply");
  });
  EXPECT_THROW(world.run_for(10 * kSecond), SerdeError);
  EXPECT_EQ(calls, 1);
}

// ------------------------------------------------------ padded requests
// The signature covers the re-encoded request, so a padded copy of a signed
// frame still verifies; only canonical decoding keeps it from being ordered.

TEST(ClientPortCanonical, BftOrdersPaddedCopyOnlyOnce) {
  for (const bool pad_inside : {true, false}) {
    World world(5);
    BftSystem sys(world, BftConfig{geo_sites()});
    ComponentHost client(world, world.allocate_id(), Site{Region::Virginia, 0});
    ClientRequest req{OpKind::Write, client.id(), 1, kv_put("k", to_bytes(std::string("v")))};
    const Bytes frame = signed_frame(world, client.id(), req);
    const Bytes padded = padded_frames(frame)[pad_inside ? 0 : 1];
    for (NodeId m : sys.replica_ids()) {
      client.send_to(m, maced(world, tags::kClient, client.id(), m, frame));
      client.send_to(m, maced(world, tags::kClient, client.id(), m, padded));
    }
    world.run_for(5 * kSecond);

    for (std::size_t i = 0; i < sys.size(); ++i) {
      EXPECT_EQ(sys.replica(i).executed_seq(), 1u) << "replica " << i << " inside " << pad_inside;
      EXPECT_TRUE(has_key(sys.replica(i).app(), "k")) << i;
    }
  }
}

TEST(ClientPortCanonical, SpiderNeverOrdersPaddedFrame) {
  for (const bool pad_inside : {true, false}) {
    World world(5);
    SpiderSystem sys(world, small_topology());
    const ClientGroupInfo info = sys.group_info(sys.nearest_group(Region::Virginia));
    ComponentHost client(world, world.allocate_id(), Site{Region::Virginia, 0});
    ClientRequest req{OpKind::Write, client.id(), 1, kv_put("k", to_bytes(std::string("v")))};
    const Bytes padded = padded_frames(signed_frame(world, client.id(), req))[pad_inside ? 0 : 1];
    for (NodeId m : info.members) {
      client.send_to(m, maced(world, tags::kClient, client.id(), m, padded));
    }
    world.run_for(5 * kSecond);

    for (std::size_t i = 0; i < sys.agreement_size(); ++i) {
      EXPECT_EQ(sys.agreement(i).ordered_seq(), 0u) << "replica " << i << " inside " << pad_inside;
    }
  }
}

}  // namespace
}  // namespace spider
