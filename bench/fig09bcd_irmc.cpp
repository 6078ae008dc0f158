// Figure 9b-d: IRMC-RC vs IRMC-SC between Virginia and Tokyo under a
// saturating message stream, for message sizes 256 B .. 16 KiB:
//   9b  throughput (delivered requests/s)
//   9c  CPU utilization of sender and receiver endpoints
//   9d  WAN and LAN data transfer (MB/s)
//
// Expected shape (paper): RC achieves higher maximum throughput (senders
// sign once and do not verify certificates); SC transfers far less data
// over the WAN (one certificate per receiver instead of ns copies) at the
// cost of extra sender CPU (share verification + certificate signing) and
// intra-region LAN traffic.
#include <cstdio>
#include <string>


#include "irmc/rc.hpp"
#include "irmc/sc.hpp"
#include "sim/world.hpp"

namespace spider::bench {
namespace {

struct Result {
  double throughput = 0;     // delivered msgs/s at receiver 0
  double sender_cpu = 0;     // busy % of the busiest sender endpoint
  double receiver_cpu = 0;   // busy % of the busiest receiver endpoint
  double wan_mbps = 0;       // aggregate WAN MB/s
  double lan_mbps = 0;       // aggregate LAN MB/s
};

Result run_channel(IrmcKind kind, std::size_t msg_size) {
  World world(42);
  constexpr std::uint32_t kNs = 4, kNr = 3;
  constexpr Position kCapacity = 2048;
  constexpr Time kWarmup = 2 * kSecond;
  constexpr Time kEnd = 8 * kSecond;

  IrmcConfig cfg;
  std::vector<std::unique_ptr<ComponentHost>> sender_hosts, receiver_hosts;
  for (std::uint32_t i = 0; i < kNs; ++i) {
    sender_hosts.push_back(std::make_unique<ComponentHost>(
        world, world.allocate_id(), Site{Region::Virginia, static_cast<std::uint8_t>(i % 4)}));
    cfg.senders.push_back(sender_hosts.back()->id());
  }
  for (std::uint32_t i = 0; i < kNr; ++i) {
    receiver_hosts.push_back(std::make_unique<ComponentHost>(
        world, world.allocate_id(), Site{Region::Tokyo, static_cast<std::uint8_t>(i % 3)}));
    cfg.receivers.push_back(receiver_hosts.back()->id());
  }
  cfg.fs = 1;
  cfg.fr = 1;
  cfg.capacity = kCapacity;
  cfg.channel_tag = tags::kIrmc | 1;

  std::vector<std::unique_ptr<IrmcSenderEndpoint>> senders;
  std::vector<std::unique_ptr<IrmcReceiverEndpoint>> receivers;
  for (auto& h : sender_hosts) senders.push_back(make_irmc_sender(kind, *h, cfg));
  for (auto& h : receiver_hosts) receivers.push_back(make_irmc_receiver(kind, *h, cfg));

  Bytes payload(msg_size, 0x7e);

  // Sender pumps: keep the window full on subchannel 1.
  struct Pump {
    Position next = 1;
  };
  std::vector<Pump> pumps(kNs);
  std::function<void(std::size_t)> pump = [&](std::size_t i) {
    IrmcSenderEndpoint& tx = *senders[i];
    while (pumps[i].next <= tx.window_start(1) + kCapacity - 1) {
      tx.send(1, pumps[i].next, payload, {});
      ++pumps[i].next;
    }
  };
  // Re-pump periodically (windows move as receivers consume).
  std::function<void()> tick = [&] {
    for (std::size_t i = 0; i < kNs; ++i) pump(i);
    world.queue().schedule_after(2 * kMillisecond, tick);
  };
  tick();

  // Receiver chains: consume in order, move the window every 16 messages.
  std::vector<std::uint64_t> delivered(kNr, 0);
  std::uint64_t measured = 0;
  std::function<void(std::size_t, Position)> consume = [&](std::size_t i, Position p) {
    receivers[i]->receive(1, p, [&, i, p](RecvResult res) {
      if (!res.too_old) {
        ++delivered[i];
        if (i == 0 && world.now() >= kWarmup && world.now() < kEnd) ++measured;
        if (p % 128 == 0) receivers[i]->move_window(1, p + 1);
      }
      consume(i, res.too_old ? res.window_start : p + 1);
    });
  };
  for (std::size_t i = 0; i < kNr; ++i) consume(i, 1);

  world.run_until(kWarmup);
  // Reset CPU and byte accounting at the start of the measurement window.
  for (auto& h : sender_hosts) h->reset_busy_time();
  for (auto& h : receiver_hosts) h->reset_busy_time();
  world.net().reset_stats();
  world.run_until(kEnd);

  double window_s = to_sec(kEnd - kWarmup);
  Result out;
  out.throughput = static_cast<double>(measured) / window_s;
  for (auto& h : sender_hosts) {
    out.sender_cpu = std::max(out.sender_cpu,
                              100.0 * static_cast<double>(h->busy_time()) /
                                  static_cast<double>(kEnd - kWarmup));
  }
  for (auto& h : receiver_hosts) {
    out.receiver_cpu = std::max(out.receiver_cpu,
                                100.0 * static_cast<double>(h->busy_time()) /
                                    static_cast<double>(kEnd - kWarmup));
  }
  out.sender_cpu = std::min(out.sender_cpu, 100.0);
  out.receiver_cpu = std::min(out.receiver_cpu, 100.0);
  out.wan_mbps = static_cast<double>(world.net().stats().wan_bytes) / 1e6 / window_s;
  out.lan_mbps = static_cast<double>(world.net().stats().lan_bytes) / 1e6 / window_s;
  return out;
}

}  // namespace
}  // namespace spider::bench

int main() {
  using namespace spider;
  using namespace spider::bench;
  std::printf("=== Figure 9b-d: IRMC implementations, Virginia -> Tokyo ===\n");
  std::printf("%-8s %-6s %12s %12s %12s %12s %12s\n", "variant", "size", "msgs/s",
              "sndCPU%", "rcvCPU%", "WAN MB/s", "LAN MB/s");
  for (IrmcKind kind : {IrmcKind::ReceiverCollect, IrmcKind::SenderCollect}) {
    for (std::size_t size : {256u, 1024u, 4096u, 16384u}) {
      Result r = run_channel(kind, size);
      const char* variant = kind == IrmcKind::ReceiverCollect ? "IRMC-RC" : "IRMC-SC";
      std::printf("%-8s %-6zu %12.0f %12.1f %12.1f %12.2f %12.2f\n", variant, size, r.throughput,
                  r.sender_cpu, r.receiver_cpu, r.wan_mbps, r.lan_mbps);
    }
  }
  return 0;
}
