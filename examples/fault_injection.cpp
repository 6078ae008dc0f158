// Fault injection tour (paper §3.7 + crash-recovery + Byzantine-schedule
// extensions): Byzantine execution replicas that corrupt replies or drop
// request forwarding, an *equivocating* PBFT primary and a forged
// checkpoint certificate (both survived by the protocol), a
// crashed-and-restarted agreement leader (view change + checkpoint
// rejoin), and a crash-recovered execution replica that re-initializes
// through checkpoint state transfer — all scripted as timed windows on a
// deterministic FaultPlan, while clients keep getting correct answers.
//
// Exits 1 when the final read misses.
//
//   $ ./examples/fault_injection
#include <cstdio>

#include "sim/fault_plan.hpp"
#include "sim/stats.hpp"
#include "sim/world.hpp"
#include "spider/system.hpp"
#include "tests/support/drive.hpp"

using namespace spider;

int main() {
  World world(1234);
  SpiderTopology topo;
  topo.ka = 8;
  topo.ke = 8;
  topo.commit_capacity = 16;
  topo.request_timeout = kSecond;
  topo.view_change_timeout = 2 * kSecond;
  SpiderSystem spider(world, topo);

  // The fault plan drives every fault in this tour. Built from the
  // system's fault surface, its crash/restart actions go through the
  // system's crash_node/restart_node: a crash destroys the replica process
  // (volatile state and all), a restart rebuilds it under the same NodeId
  // and lets the protocol recover it. Byzantine windows need no hook: they
  // write the node's World::byzantine(n) entry, which the replica reads
  // where it acts. The flags turn on at the window start and off at its
  // end, and a process rebuilt in between reads them too.
  FaultPlan plan(world, spider);

  auto client = spider.make_client(Site{Region::Oregon, 0});
  GroupId g = client->group().group;

  std::printf("== 1. Byzantine execution replica corrupts its replies ==\n");
  plan.byzantine_at(world.now(), spider.exec(g, 0).id(), {.corrupt_replies = true}, 4 * kSecond);
  world.run_for(kMillisecond);
  drive::KvOutcome w = drive::blocking_write(world, *client, "account", "100");
  std::printf("   write %s in %s  (fe+1 matching correct replies outvote it)\n",
              w.ok ? "succeeded" : "FAILED", format_ms(w.latency).c_str());

  std::printf("== 2. Another replica silently drops request forwarding ==\n");
  plan.byzantine_at(world.now(), spider.exec(g, 1).id(), {.drop_forwarding = true}, 4 * kSecond);
  world.run_for(kMillisecond);
  w = drive::blocking_write(world, *client, "account", "90");
  std::printf("   write %s in %s  (fe+1 correct forwarders satisfy the IRMC)\n",
              w.ok ? "succeeded" : "FAILED", format_ms(w.latency).c_str());
  world.run_for(5 * kSecond);  // both Byzantine windows end

  std::printf("== 2b. The PBFT primary equivocates; a replica forges checkpoints ==\n");
  // The view-0 primary sends conflicting pre-prepares to disjoint halves
  // of the agreement group: neither digest can reach a quorum (quorum
  // intersection), the request timers fire, and an honest view takes
  // over — each write still commits exactly once. Meanwhile another
  // agreement replica pushes checkpoint votes and forged f+1 certificates
  // for a tampered state digest; correct replicas reject both.
  ViewNr view_before = spider.agreement(1).consensus().view();
  plan.byzantine_at(world.now(), spider.agreement(0).id(), {.equivocate = true}, 6 * kSecond);
  plan.byzantine_at(world.now(), spider.agreement(1).id(), {.forge_checkpoints = true},
                    6 * kSecond);
  world.run_for(kMillisecond);
  w = drive::blocking_write(world, *client, "account", "85");
  std::printf("   write %s in %s despite the equivocation; view %llu -> %llu\n",
              w.ok ? "succeeded" : "FAILED", format_ms(w.latency).c_str(),
              static_cast<unsigned long long>(view_before),
              static_cast<unsigned long long>(spider.agreement(1).consensus().view()));
  drive::KvOutcome check = drive::blocking_strong_read(world, *client, "account");
  std::printf("   strong read -> \"%s\" (committed exactly once, forged certs rejected)\n",
              to_string(check.value).c_str());
  world.run_for(7 * kSecond);  // Byzantine windows end; system honest again

  std::printf("== 3. Agreement leader crashes (process destroyed): view change ==\n");
  ViewNr view_now = spider.agreement(1).consensus().view();
  std::size_t leader_idx =
      static_cast<std::size_t>(view_now % spider.agreement_size());
  std::size_t witness_idx = (leader_idx + 1) % spider.agreement_size();
  NodeId leader = spider.agreement(leader_idx).id();
  plan.crash_at(world.now(), leader);
  world.run_for(kMillisecond);
  w = drive::blocking_write(world, *client, "account", "80");
  std::printf("   write %s in %s; view %llu -> %llu\n", w.ok ? "succeeded" : "FAILED",
              format_ms(w.latency).c_str(), static_cast<unsigned long long>(view_now),
              static_cast<unsigned long long>(
                  spider.agreement(witness_idx).consensus().view()));

  std::printf("== 4. ...and restarts: the fresh process rejoins its view ==\n");
  plan.restart_at(world.now(), leader);
  for (int i = 0; i < 10; ++i) {
    drive::blocking_write(world, *client, "account", std::to_string(70 - i));
  }
  world.run_for(5 * kSecond);
  std::printf("   restarted leader: view = %llu (group: %llu), rejoined by f+1 evidence\n",
              static_cast<unsigned long long>(
                  spider.agreement(leader_idx).consensus().view()),
              static_cast<unsigned long long>(
                  spider.agreement(witness_idx).consensus().view()));

  std::printf("== 5. Crash-recovered execution replica catches up via checkpoints ==\n");
  NodeId lagger = spider.exec(g, 2).id();
  plan.crash_at(world.now(), lagger);
  world.run_for(kMillisecond);
  for (int i = 0; i < 25; ++i) {
    drive::blocking_write(world, *client, "burst" + std::to_string(i), "x");
  }
  std::printf("   while down, the group executed up to seq %llu without it\n",
              static_cast<unsigned long long>(spider.exec(g, 0).executed_seq()));
  plan.restart_at(world.now(), lagger);
  world.run_for(kMillisecond);
  drive::blocking_write(world, *client, "after", "y");
  world.run_for(10 * kSecond);
  std::printf("   after restart it reached seq %llu via %llu checkpoint catch-up(s)\n",
              static_cast<unsigned long long>(spider.exec(g, 2).executed_seq()),
              static_cast<unsigned long long>(spider.exec(g, 2).catchups()));

  drive::KvOutcome r = drive::blocking_weak_read(world, *client, "account");
  std::printf("\nfault schedule executed (%llu actions):\n%s",
              static_cast<unsigned long long>(plan.actions_fired()), plan.describe().c_str());
  std::printf("\nfinal state check: account = \"%s\" (%s)\n", to_string(r.value).c_str(),
              r.ok ? "ok" : "missing");
  return r.ok ? 0 : 1;
}
