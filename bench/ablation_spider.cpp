// Ablations for the design choices of paper §3.4-3.5:
//
//  A. IRMC window capacity vs. channel throughput — flow control bounds the
//     in-flight bandwidth-delay product, so small windows throttle a WAN
//     channel regardless of CPU headroom (the reason commit channels need
//     capacity >= checkpoint interval for liveness, paper §3.4).
//  B. Global flow control z — with one execution group dead, z=0 stalls the
//     whole system once the commit window fills; z=1 keeps everyone else at
//     full speed (paper §3.5).
//  C. Agreement checkpoint interval ka — checkpoints gate the agreement
//     window (AG-WIN), trading background overhead against pipeline room.
#include <cstdio>

#include "harness.hpp"
#include "irmc/irmc.hpp"
#include "spider/system.hpp"

namespace spider::bench {
namespace {

// ---------------------------------------------------------- A: capacity

void ablation_capacity() {
  std::printf("--- A. IRMC-RC throughput vs. window capacity (V->T, 256 B) ---\n");
  std::printf("%-10s %14s %20s\n", "capacity", "msgs/s", "limit");
  for (Position cap : {16u, 64u, 256u, 1024u, 4096u}) {
    World world(7);
    IrmcConfig cfg;
    std::vector<std::unique_ptr<ComponentHost>> sh, rh;
    for (int i = 0; i < 4; ++i) {
      sh.push_back(std::make_unique<ComponentHost>(world, world.allocate_id(),
                                                   Site{Region::Virginia, static_cast<std::uint8_t>(i)}));
      cfg.senders.push_back(sh.back()->id());
    }
    for (int i = 0; i < 3; ++i) {
      rh.push_back(std::make_unique<ComponentHost>(world, world.allocate_id(),
                                                   Site{Region::Tokyo, static_cast<std::uint8_t>(i)}));
      cfg.receivers.push_back(rh.back()->id());
    }
    cfg.fs = cfg.fr = 1;
    cfg.capacity = cap;
    cfg.channel_tag = tags::kIrmc | 2;
    std::vector<std::unique_ptr<IrmcSenderEndpoint>> tx;
    std::vector<std::unique_ptr<IrmcReceiverEndpoint>> rx;
    for (auto& h : sh) tx.push_back(make_irmc_sender(IrmcKind::ReceiverCollect, *h, cfg));
    for (auto& h : rh) rx.push_back(make_irmc_receiver(IrmcKind::ReceiverCollect, *h, cfg));

    Bytes payload(256, 1);
    std::vector<Position> next(4, 1);
    std::function<void()> tick = [&] {
      for (int i = 0; i < 4; ++i) {
        while (next[static_cast<std::size_t>(i)] <=
               tx[static_cast<std::size_t>(i)]->window_start(1) + cap - 1) {
          tx[static_cast<std::size_t>(i)]->send(1, next[static_cast<std::size_t>(i)]++, payload, {});
        }
      }
      world.queue().schedule_after(2 * kMillisecond, tick);
    };
    tick();

    std::uint64_t delivered = 0;
    std::function<void(std::size_t, Position)> consume = [&](std::size_t i, Position p) {
      rx[i]->receive(1, p, [&, i, p](RecvResult res) {
        if (!res.too_old) {
          if (i == 0 && world.now() >= 2 * kSecond) ++delivered;
          if (p % 8 == 0) rx[i]->move_window(1, p + 1);
        }
        consume(i, res.too_old ? res.window_start : p + 1);
      });
    };
    for (std::size_t i = 0; i < 3; ++i) consume(i, 1);
    world.run_until(8 * kSecond);

    double rate = static_cast<double>(delivered) / 6.0;
    // Window-limited rate ~ capacity / RTT; CPU-limited otherwise.
    double window_bound = static_cast<double>(cap) / 0.156;
    std::printf("%-10llu %14.0f %20s\n", static_cast<unsigned long long>(cap), rate,
                rate < 0.8 * window_bound ? "CPU-bound" : "window-bound");
  }
}

// ---------------------------------------------------------------- B: z

void ablation_z() {
  std::printf("\n--- B. global flow control: dead Tokyo group, z = 0 vs 1 ---\n");
  std::printf("%-6s %24s %24s\n", "z", "writes done in 60 s", "Virginia p50");
  for (std::uint32_t z : {0u, 1u}) {
    World world(11);
    SpiderTopology topo;
    topo.z = z;
    topo.ka = 8;
    topo.ke = 8;
    topo.commit_capacity = 16;
    topo.ag_win = 32;
    SpiderSystem sys(world, topo);
    GroupId tokyo = sys.nearest_group(Region::Tokyo);
    for (std::size_t i = 0; i < sys.group_size(tokyo); ++i) {
      world.net().set_node_down(sys.exec(tokyo, i).id(), true);
    }

    Fleet fleet(world, 0, 60 * kSecond);
    for (int i = 0; i < 4; ++i) {
      fleet.add_client(sys.make_client(Site{Region::Virginia, static_cast<std::uint8_t>(i % 3)}),
                       Region::Virginia, OpKind::Write);
    }
    fleet.start(500 * kMillisecond);
    world.run_until(62 * kSecond);
    const LatencyStats& s = fleet.stats[Region::Virginia];
    std::printf("%-6u %24zu %24s\n", z, s.count(), format_ms(s.median()).c_str());
  }
  std::printf("(z=0: progress stops once the dead group's commit window fills;\n"
              " z=1: the dead group is skipped and later recovers via checkpoints)\n");
}

// ---------------------------------------------------------------- C: ka

void ablation_ka() {
  std::printf("\n--- C. agreement checkpoint interval ka (AG-WIN = 4*ka) ---\n");
  std::printf("%-6s %18s %18s\n", "ka", "Virginia p50", "Tokyo p50");
  for (std::uint64_t ka : {2u, 8u, 32u, 128u}) {
    World world(13);
    SpiderTopology topo;
    topo.ka = ka;
    topo.ag_win = 4 * ka;
    topo.commit_capacity = std::max<Position>(2 * ka, 16);
    SpiderSystem sys(world, topo);

    Fleet fleet(world, 5 * kSecond, 35 * kSecond);
    for (Region r : {Region::Virginia, Region::Tokyo}) {
      for (int i = 0; i < 4; ++i) {
        fleet.add_client(sys.make_client(Site{r, static_cast<std::uint8_t>(i % 3)}), r,
                         OpKind::Write);
      }
    }
    fleet.start(500 * kMillisecond);
    world.run_until(37 * kSecond);
    std::printf("%-6llu %18s %18s\n", static_cast<unsigned long long>(ka),
                format_ms(fleet.stats[Region::Virginia].median()).c_str(),
                format_ms(fleet.stats[Region::Tokyo].median()).c_str());
  }
}

}  // namespace
}  // namespace spider::bench

int main() {
  std::printf("=== Ablations: Spider design parameters ===\n\n");
  spider::bench::ablation_capacity();
  spider::bench::ablation_z();
  spider::bench::ablation_ka();
  return 0;
}
