#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "irmc/rc.hpp"
#include "irmc/sc.hpp"
#include "sim/world.hpp"
#include "tests/support/counting_crypto.hpp"

namespace spider {
namespace {

/// Host that logs the (sender, message type) of every inbound IRMC frame
/// before dispatching it, so tests can check the order on the wire.
struct TapHost : ComponentHost {
  using ComponentHost::ComponentHost;
  std::vector<std::pair<NodeId, irmc::MsgType>> inbound;

  void on_message(NodeId from, BytesView data) override {
    if (data.size() > 4) inbound.emplace_back(from, static_cast<irmc::MsgType>(data[4]));
    ComponentHost::on_message(from, data);
  }
};

/// 4 senders in Virginia, 3 receivers in Tokyo — the paper's Figure 9
/// wide-area channel setup (fs = fr = 1).
struct ChannelFixture {
  World world;
  std::vector<std::unique_ptr<ComponentHost>> sender_hosts;
  std::vector<std::unique_ptr<TapHost>> receiver_hosts;
  std::vector<std::unique_ptr<IrmcSenderEndpoint>> senders;
  std::vector<std::unique_ptr<IrmcReceiverEndpoint>> receivers;
  IrmcConfig cfg;

  explicit ChannelFixture(IrmcKind kind, std::uint32_t ns = 4, std::uint32_t nr = 3,
                          Position capacity = 8, std::uint64_t seed = 1,
                          std::unique_ptr<CryptoProvider> crypto = nullptr)
      : world(seed, std::move(crypto)) {
    for (std::uint32_t i = 0; i < ns; ++i) {
      sender_hosts.push_back(std::make_unique<ComponentHost>(
          world, world.allocate_id(), Site{Region::Virginia, static_cast<std::uint8_t>(i % 4)}));
      cfg.senders.push_back(sender_hosts.back()->id());
    }
    for (std::uint32_t i = 0; i < nr; ++i) {
      receiver_hosts.push_back(std::make_unique<TapHost>(
          world, world.allocate_id(), Site{Region::Tokyo, static_cast<std::uint8_t>(i % 3)}));
      cfg.receivers.push_back(receiver_hosts.back()->id());
    }
    cfg.fs = 1;
    cfg.fr = 1;
    cfg.capacity = capacity;
    cfg.channel_tag = tags::kIrmc | 7;
    cfg.progress_interval = 30 * kMillisecond;
    cfg.collector_timeout = 150 * kMillisecond;
    for (auto& h : sender_hosts) senders.push_back(make_irmc_sender(kind, *h, cfg));
    for (auto& h : receiver_hosts) receivers.push_back(make_irmc_receiver(kind, *h, cfg));
  }

  /// IRMC-RC nack timer period: a stalled subchannel is nacked at the
  /// second tick without progress.
  [[nodiscard]] Duration nack_period() const {
    return cfg.window_announce_interval + cfg.collector_timeout;
  }

  void send_from_all(Subchannel sc, Position p, const Bytes& m) {
    for (auto& s : senders) s->send(sc, p, m, {});
  }

  static Bytes msg(int i) {
    Writer w;
    w.u32(static_cast<std::uint32_t>(i));
    w.str("payload");
    return std::move(w).take();
  }

  /// The domain-separated SigShare bytes a sender signs for (sc, p, m).
  Bytes share_auth(Subchannel sc, Position p, const Bytes& m) const {
    Writer w;
    w.u32(cfg.channel_tag);
    w.raw(irmc::SigShareMsg{sc, p, Sha256::hash(m)}.encode());
    return std::move(w).take();
  }

  /// `cert` framed and signed by `collector`, as ScSender sends it.
  Bytes certificate_frame(NodeId collector, const irmc::CertificateMsg& cert) {
    Writer w;
    w.u32(cfg.channel_tag);
    w.raw(cert.encode());
    Bytes sig = world.crypto().sign(collector, w.data());
    w.raw(sig);
    return std::move(w).take();
  }
};

class IrmcSuite : public ::testing::TestWithParam<IrmcKind> {};

TEST_P(IrmcSuite, DeliversAfterQuorumOfIdenticalSends) {
  ChannelFixture f(GetParam());
  Bytes m = f.msg(1);
  f.send_from_all(5, 1, m);

  std::vector<Bytes> got(f.receivers.size());
  for (std::size_t i = 0; i < f.receivers.size(); ++i) {
    f.receivers[i]->receive(5, 1, [&, i](RecvResult res) {
      ASSERT_FALSE(res.too_old);
      got[i] = res.message.to_bytes();
    });
  }
  f.world.run_for(kSecond);
  for (auto& g : got) EXPECT_EQ(g, m);
}

TEST_P(IrmcSuite, ReceiveBeforeSendAlsoDelivers) {
  ChannelFixture f(GetParam());
  Bytes m = f.msg(2);
  Bytes got;
  f.receivers[0]->receive(1, 1, [&](RecvResult res) {
    ASSERT_FALSE(res.too_old);
    got = res.message.to_bytes();
  });
  f.world.run_for(10 * kMillisecond);
  f.send_from_all(1, 1, m);
  f.world.run_for(kSecond);
  EXPECT_EQ(got, m);
}

TEST_P(IrmcSuite, FsPlusOneSendersSuffice) {
  ChannelFixture f(GetParam());
  Bytes m = f.msg(3);
  f.senders[0]->send(9, 1, m, {});
  f.senders[1]->send(9, 1, m, {});  // fs+1 = 2

  bool delivered = false;
  f.receivers[0]->receive(9, 1, [&](RecvResult res) { delivered = !res.too_old; });
  f.world.run_for(kSecond);
  EXPECT_TRUE(delivered);
}

TEST_P(IrmcSuite, SingleSenderCannotPassMessage) {
  ChannelFixture f(GetParam());
  f.senders[0]->send(9, 1, f.msg(4), {});  // only fs senders vouch

  bool delivered = false;
  f.receivers[0]->receive(9, 1, [&](RecvResult) { delivered = true; });
  f.world.run_for(kSecond);
  EXPECT_FALSE(delivered);  // IRMC-Correctness I
}

TEST_P(IrmcSuite, ConflictingContentsNeedTheirOwnQuorum) {
  ChannelFixture f(GetParam());
  Bytes a = f.msg(100), b = f.msg(200);
  f.senders[0]->send(2, 1, a, {});
  f.senders[1]->send(2, 1, b, {});

  Bytes got;
  bool delivered = false;
  f.receivers[0]->receive(2, 1, [&](RecvResult res) {
    delivered = true;
    got = res.message.to_bytes();
  });
  f.world.run_for(500 * kMillisecond);
  EXPECT_FALSE(delivered);  // one vote each: no quorum

  f.senders[2]->send(2, 1, a, {});  // second vote for a
  f.world.run_for(kSecond);
  EXPECT_TRUE(delivered);
  EXPECT_EQ(got, a);
}

TEST_P(IrmcSuite, SubchannelsAreIndependent) {
  ChannelFixture f(GetParam());
  Bytes ma = f.msg(1), mb = f.msg(2);
  f.send_from_all(1, 1, ma);
  f.send_from_all(2, 1, mb);

  Bytes got_a, got_b;
  f.receivers[0]->receive(1, 1, [&](RecvResult r) { got_a = r.message.to_bytes(); });
  f.receivers[0]->receive(2, 1, [&](RecvResult r) { got_b = r.message.to_bytes(); });
  f.world.run_for(kSecond);
  EXPECT_EQ(got_a, ma);
  EXPECT_EQ(got_b, mb);
}

TEST_P(IrmcSuite, SequentialPositionsDeliverInOrder) {
  ChannelFixture f(GetParam());
  const int n = 5;
  for (int p = 1; p <= n; ++p) f.send_from_all(3, static_cast<Position>(p), f.msg(p));

  std::vector<int> order;
  std::function<void(Position)> chain = [&](Position p) {
    if (p > n) return;
    f.receivers[0]->receive(3, p, [&, p](RecvResult res) {
      ASSERT_FALSE(res.too_old);
      Reader r(res.message);
      order.push_back(static_cast<int>(r.u32()));
      chain(p + 1);
    });
  };
  chain(1);
  f.world.run_for(2 * kSecond);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST_P(IrmcSuite, SendBeyondWindowBlocksUntilReceiversMove) {
  ChannelFixture f(GetParam(), 4, 3, /*capacity=*/4);
  // Fill the window: positions 1..4 are in, 5 must block.
  for (int p = 1; p <= 4; ++p) f.send_from_all(1, static_cast<Position>(p), f.msg(p));
  bool send5_done = false;
  f.senders[0]->send(1, 5, f.msg(5), [&](bool too_old, Position) {
    EXPECT_FALSE(too_old);
    send5_done = true;
  });
  f.world.run_for(500 * kMillisecond);
  EXPECT_FALSE(send5_done);  // blocked above the window

  // fr+1 receivers consume and move the window forward.
  f.receivers[0]->move_window(1, 2);
  f.receivers[1]->move_window(1, 2);
  f.world.run_for(kSecond);
  EXPECT_TRUE(send5_done);  // IRMC-Liveness II
  EXPECT_EQ(f.senders[0]->window_start(1), 2u);
}

TEST_P(IrmcSuite, SingleReceiverCannotMoveSenderWindow) {
  ChannelFixture f(GetParam());
  f.receivers[0]->move_window(4, 10);  // only fr receivers
  f.world.run_for(kSecond);
  EXPECT_EQ(f.senders[0]->window_start(4), 1u);

  f.receivers[1]->move_window(4, 10);  // now fr+1
  f.world.run_for(kSecond);
  EXPECT_EQ(f.senders[0]->window_start(4), 10u);
}

TEST_P(IrmcSuite, TooOldSendDroppedImmediately) {
  ChannelFixture f(GetParam());
  f.receivers[0]->move_window(1, 20);
  f.receivers[1]->move_window(1, 20);
  f.world.run_for(kSecond);

  bool too_old = false;
  Position ws = 0;
  f.senders[0]->send(1, 3, f.msg(3), [&](bool old, Position w) {
    too_old = old;
    ws = w;
  });
  EXPECT_TRUE(too_old);
  EXPECT_EQ(ws, 20u);
}

TEST_P(IrmcSuite, SenderMovesForceReceiverWindowAndTooOld) {
  ChannelFixture f(GetParam());
  bool got_too_old = false;
  Position new_start = 0;
  f.receivers[0]->receive(6, 1, [&](RecvResult res) {
    got_too_old = res.too_old;
    new_start = res.window_start;
  });

  // fs+1 senders request the subchannel window to start at 5 (e.g. the
  // client already sent a newer request).
  f.senders[0]->move_window(6, 5);
  f.senders[1]->move_window(6, 5);
  f.world.run_for(kSecond);

  EXPECT_TRUE(got_too_old);  // IRMC-Correctness II / Liveness III
  EXPECT_EQ(new_start, 5u);
  EXPECT_EQ(f.receivers[0]->window_start(6), 5u);
}

TEST_P(IrmcSuite, OneSenderCannotMoveReceiverWindow) {
  ChannelFixture f(GetParam());
  f.senders[0]->move_window(6, 50);
  f.world.run_for(kSecond);
  EXPECT_EQ(f.receivers[0]->window_start(6), 1u);
}

TEST_P(IrmcSuite, LateReceiveAfterWindowMovedReturnsTooOld) {
  ChannelFixture f(GetParam());
  f.senders[0]->move_window(1, 7);
  f.senders[1]->move_window(1, 7);
  f.world.run_for(kSecond);

  RecvResult out;
  f.receivers[0]->receive(1, 2, [&](RecvResult res) { out = res; });
  EXPECT_TRUE(out.too_old);
  EXPECT_EQ(out.window_start, 7u);
}

TEST_P(IrmcSuite, RedeliveryToMultiplePendingReceivers) {
  ChannelFixture f(GetParam());
  int delivered = 0;
  for (auto& r : f.receivers) {
    r->receive(1, 1, [&](RecvResult res) {
      if (!res.too_old) ++delivered;
    });
  }
  f.send_from_all(1, 1, f.msg(1));
  f.world.run_for(kSecond);
  EXPECT_EQ(delivered, 3);  // IRMC-Liveness I: all correct receivers
}

TEST_P(IrmcSuite, DeterministicAcrossRuns) {
  auto run = [&] {
    ChannelFixture f(GetParam(), 4, 3, 8, 77);
    std::vector<Time> times;
    for (int p = 1; p <= 3; ++p) f.send_from_all(1, static_cast<Position>(p), f.msg(p));
    for (int p = 1; p <= 3; ++p) {
      f.receivers[0]->receive(1, static_cast<Position>(p),
                              [&](RecvResult) { times.push_back(f.world.now()); });
    }
    f.world.run_for(kSecond);
    return times;
  };
  EXPECT_EQ(run(), run());
}

TEST_P(IrmcSuite, CrashedSenderMinorityHarmless) {
  ChannelFixture f(GetParam());
  f.world.net().set_node_down(f.sender_hosts[0]->id(), true);
  Bytes m = f.msg(9);
  for (std::size_t i = 1; i < f.senders.size(); ++i) f.senders[i]->send(1, 1, m, {});
  Bytes got;
  f.receivers[0]->receive(1, 1, [&](RecvResult r) { got = r.message.to_bytes(); });
  f.world.run_for(kSecond);
  EXPECT_EQ(got, m);
}

INSTANTIATE_TEST_SUITE_P(Kinds, IrmcSuite,
                         ::testing::Values(IrmcKind::ReceiverCollect, IrmcKind::SenderCollect),
                         [](const ::testing::TestParamInfo<IrmcKind>& info) {
                           return info.param == IrmcKind::ReceiverCollect ? "RC" : "SC";
                         });

// ------------------------------------------------------------ RC-specific

TEST(IrmcRc, ForgedSendRejected) {
  ChannelFixture f(IrmcKind::ReceiverCollect);
  // An attacker (not in the sender group) replays a Send-shaped frame with
  // a bogus signature; and a group member with a wrong signature.
  ComponentHost attacker(f.world, f.world.allocate_id(), Site{Region::Virginia, 0});
  irmc::SendMsg msg{1, 1, f.msg(1)};
  Bytes body = msg.encode();
  Bytes fake_sig(f.world.crypto().signature_size(), 0x42);
  Bytes wire = body;
  wire.insert(wire.end(), fake_sig.begin(), fake_sig.end());
  Writer w;
  w.u32(f.cfg.channel_tag);
  w.raw(wire);
  for (NodeId r : f.cfg.receivers) attacker.send_to(r, w.data());

  bool delivered = false;
  f.receivers[0]->receive(1, 1, [&](RecvResult) { delivered = true; });
  f.world.run_for(kSecond);
  EXPECT_FALSE(delivered);
}

// Retransmission: receivers model the paper's reliable links by nacking
// subchannels that made no progress for a full timer period.

TEST(IrmcRc, LostSendIsRetransmittedWithinTwoNackPeriodsOfHeal) {
  ChannelFixture f(IrmcKind::ReceiverCollect);
  NodeId r0 = f.receiver_hosts[0]->id();
  // Every Send of position 1 to receiver 0 is lost, and no later traffic
  // on the subchannel follows it.
  f.world.net().set_link_filter([r0](NodeId, NodeId to) { return to != r0; });
  Bytes m = f.msg(1);
  Bytes got;
  std::optional<Time> delivered_at;
  f.receivers[0]->receive(3, 1, [&](RecvResult res) {
    ASSERT_FALSE(res.too_old);
    got = res.message.to_bytes();
    delivered_at = f.world.now();
  });
  f.send_from_all(3, 1, m);
  // Heal once the lost Sends would long have arrived (two WAN round trips).
  f.world.run_for(300 * kMillisecond);
  ASSERT_FALSE(delivered_at.has_value());
  f.world.net().set_link_filter(nullptr);
  const Time healed = f.world.now();
  f.world.run_for(2 * f.nack_period());
  ASSERT_TRUE(delivered_at.has_value());
  EXPECT_EQ(got, m);
  EXPECT_LE(*delivered_at - healed, 2 * f.nack_period());
}

TEST(IrmcRc, StalledSubchannelsShareOneNackPerSenderPerTick) {
  ChannelFixture f(IrmcKind::ReceiverCollect);
  constexpr std::uint64_t kStalled = 6;
  // Idle subchannels: nobody sends, so every receive stays pending.
  for (Subchannel sc = 1; sc <= kStalled; ++sc) f.receivers[0]->receive(sc, 1, [](RecvResult) {});
  const obs::MetricLabels r0{.node = f.receiver_hosts[0]->id(), .role = "irmc"};
  auto frames = [&] { return f.world.metrics().counter("irmc_nack_frames", r0).value(); };
  auto entries = [&] { return f.world.metrics().counter("irmc_nack_entries", r0).value(); };
  auto windows_received = [&] {
    const auto& in = f.receiver_hosts[0]->inbound;
    return std::count_if(in.begin(), in.end(),
                         [](const auto& e) { return e.second == irmc::MsgType::Windows; });
  };
  const std::uint64_t ns = f.cfg.ns();

  // The first tick only records the stall.
  f.world.run_for(f.nack_period() + f.nack_period() * 8 / 10);
  EXPECT_EQ(frames(), 0u);
  // Every later tick sends each sender one Nack listing all K subchannels,
  // and each sender answers with one Windows frame.
  f.world.run_for(f.nack_period());
  EXPECT_EQ(frames(), ns);
  EXPECT_EQ(entries(), ns * kStalled);
  EXPECT_EQ(windows_received(), static_cast<std::ptrdiff_t>(ns));
  f.world.run_for(f.nack_period());
  EXPECT_EQ(frames(), 2 * ns);
  EXPECT_EQ(entries(), 2 * ns * kStalled);
  EXPECT_EQ(windows_received(), static_cast<std::ptrdiff_t>(2 * ns));
}

TEST(IrmcRc, ReplayNeverPrecedesItsWindowStatement) {
  // Receiver 0 misses everything on subchannel 1: the senders' Move to 20
  // and their Sends at 20..22. Its window is still 1, so 20 lies beyond its
  // storage horizon (window + 2 * capacity - 1) until a Nack answer states
  // the window; each sender's statement must precede its replays.
  ChannelFixture f(IrmcKind::ReceiverCollect);
  ASSERT_LT(1 + 2 * f.cfg.capacity - 1, Position{20});
  NodeId r0 = f.receiver_hosts[0]->id();
  f.world.net().set_link_filter([r0](NodeId, NodeId to) { return to != r0; });
  for (auto& s : f.senders) s->move_window(1, 20);
  for (Position p = 20; p <= 22; ++p) f.send_from_all(1, p, f.msg(static_cast<int>(p)));
  Bytes got;
  f.receivers[0]->receive(1, 20, [&](RecvResult res) {
    ASSERT_FALSE(res.too_old);
    got = res.message.to_bytes();
  });
  f.world.run_for(300 * kMillisecond);
  f.world.net().set_link_filter(nullptr);
  f.world.run_for(3 * f.nack_period());
  EXPECT_EQ(got, f.msg(20));
  EXPECT_EQ(f.receivers[0]->window_start(1), 20u);

  const auto& in = f.receiver_hosts[0]->inbound;
  for (NodeId s : f.cfg.senders) {
    auto from_s = [s](irmc::MsgType type) {
      return [s, type](const auto& e) { return e.first == s && e.second == type; };
    };
    auto statement = std::find_if(in.begin(), in.end(), from_s(irmc::MsgType::Windows));
    auto replay = std::find_if(in.begin(), in.end(), from_s(irmc::MsgType::Send));
    ASSERT_NE(replay, in.end()) << "sender " << s << " replayed nothing";
    EXPECT_LT(statement, replay) << "sender " << s;
  }
}

// ------------------------------------------------------------ SC-specific

TEST(IrmcSc, WanTrafficFarBelowRc) {
  // Payload-dominated regime as in the paper's Figure 9d (256 B - 16 KiB).
  auto wan_bytes = [](IrmcKind kind) {
    ChannelFixture f(kind, 4, 3, 16, 5);
    Bytes payload(4096, 0x5c);
    for (int p = 1; p <= 10; ++p) f.send_from_all(1, static_cast<Position>(p), payload);
    f.world.run_for(600 * kMillisecond);
    return f.world.net().stats().wan_bytes;
  };
  std::uint64_t rc = wan_bytes(IrmcKind::ReceiverCollect);
  std::uint64_t sc = wan_bytes(IrmcKind::SenderCollect);
  // RC ships each payload ns x nr times; SC ships roughly nr certificates.
  EXPECT_LT(sc * 2, rc);
}

TEST(IrmcSc, UsesLanForShareExchange) {
  ChannelFixture f(IrmcKind::SenderCollect);
  f.send_from_all(1, 1, f.msg(1));
  f.world.run_for(kSecond);
  EXPECT_GT(f.world.net().stats().lan_bytes, 0u);  // SigShares within region
}

TEST(IrmcSc, CollectorSwitchOnSilentCollector) {
  ChannelFixture f(IrmcKind::SenderCollect);
  // Receiver 0's default collector is sender 0; make sender 0 unable to
  // reach receiver 0 (but senders still exchange shares via LAN).
  NodeId s0 = f.sender_hosts[0]->id();
  NodeId r0 = f.receiver_hosts[0]->id();
  f.world.net().set_link_filter([&, s0, r0](NodeId from, NodeId to) {
    return !(from == s0 && to == r0);
  });

  Bytes got;
  f.receivers[0]->receive(1, 1, [&](RecvResult res) { got = res.message.to_bytes(); });
  Bytes m = f.msg(1);
  f.send_from_all(1, 1, m);
  // Progress messages from other senders reveal the gap; after the timeout
  // receiver 0 selects a new collector and obtains the certificate.
  f.world.run_for(3 * kSecond);
  EXPECT_EQ(got, m);
  auto* rcv = dynamic_cast<ScReceiver*>(f.receivers[0].get());
  ASSERT_NE(rcv, nullptr);
  EXPECT_NE(rcv->collector(1), 0u);
}

TEST(IrmcSc, ForgedCertificateRejected) {
  ChannelFixture f(IrmcKind::SenderCollect);
  // Sender 0 crafts a certificate for content no other sender vouched for:
  // it has only its own share, so it pads with a duplicated/forged share.
  ComponentHost& evil = *f.sender_hosts[0];
  Bytes payload = f.msg(666);
  Bytes own_sig = f.world.crypto().sign(evil.id(), f.share_auth(1, 1, payload));
  irmc::CertificateMsg cert{1, 1, payload, {{0, own_sig}, {1, own_sig}}};  // forged share for idx 1
  Bytes frame = f.certificate_frame(evil.id(), cert);
  for (NodeId r : f.cfg.receivers) evil.send_to(r, frame);

  bool delivered = false;
  f.receivers[0]->receive(1, 1, [&](RecvResult) { delivered = true; });
  f.world.run_for(kSecond);
  EXPECT_FALSE(delivered);  // share for index 1 does not verify
}

TEST(IrmcSc, CertificateStopsVerifyingAtFirstBadShare) {
  // A certificate whose first share signature is bad is rejected after one
  // share verify: a Byzantine collector cannot make a receiver pay fs+1 real
  // signature checks per bogus certificate.
  auto counting = std::make_unique<CountingCrypto>(1);
  CountingCrypto& crypto = *counting;
  ChannelFixture f(IrmcKind::SenderCollect, 4, 3, 8, 1, std::move(counting));
  ComponentHost& evil = *f.sender_hosts[0];
  Bytes payload = f.msg(7);
  Bytes share_auth = f.share_auth(1, 1, payload);
  Bytes bad_sig(crypto.signature_size(), 0);
  Bytes good_sig = crypto.sign(f.cfg.senders[1], share_auth);
  irmc::CertificateMsg cert{1, 1, payload, {{0, bad_sig}, {1, good_sig}}};
  evil.send_to(f.cfg.receivers[0], f.certificate_frame(evil.id(), cert));

  bool delivered = false;
  f.receivers[0]->receive(1, 1, [&](RecvResult) { delivered = true; });
  f.world.run_for(kSecond);
  EXPECT_FALSE(delivered);
  EXPECT_EQ(crypto.verifies_of(share_auth), 1u);
}

}  // namespace
}  // namespace spider
