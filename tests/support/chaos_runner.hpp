// Shared chaos-scenario runner: builds one of the six deployment shapes
// (Spider f=1, Spider f=2, geo-replicated PBFT baseline, 2-shard sharded,
// Spider f=1 over IRMC-SC instead of IRMC-RC, and the PBFT baseline with
// weighted voting), schedules a FaultPlan drawn from the system's fault
// surface (or replayed) plus a recorded client workload, and drives the
// run through chaos / recovery / verification phases. A config chooses
// only its topology and client sites. Shared by the chaos suite's sweeps,
// replay and golden tests.
#pragma once

#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "baselines/bft_system.hpp"
#include "check/linearizer.hpp"
#include "obs/trace_export.hpp"
#include "shard/sharded_system.hpp"
#include "sim/fault_plan.hpp"
#include "sim/world.hpp"
#include "spider/system.hpp"
#include "tests/support/chaos.hpp"
#include "tests/support/drive.hpp"

namespace spider {

enum class ChaosConfig : int {
  SpiderF1 = 0,
  SpiderF2 = 1,
  PbftBaseline = 2,
  Sharded2 = 3,
  SpiderF1Sc = 4,  // the SpiderF1 deployment with sender-collect channels
  BftWv = 5,       // the PBFT baseline with weighted voting (WHEAT-style)
};

inline const char* config_name(ChaosConfig c) {
  switch (c) {
    case ChaosConfig::SpiderF1: return "spider_f1";
    case ChaosConfig::SpiderF2: return "spider_f2";
    case ChaosConfig::PbftBaseline: return "pbft_baseline";
    case ChaosConfig::Sharded2: return "sharded_2";
    case ChaosConfig::SpiderF1Sc: return "spider_f1_sc";
    case ChaosConfig::BftWv: return "bft_wv";
  }
  return "?";
}

struct ChaosOutcome {
  bool completed = false;      // every op (incl. final reads) got a reply
  std::size_t pending = 0;
  std::size_t total_ops = 0;
  LinResult lin;
  bool no_lost_writes = true;
  std::string lost_diag;
  std::string fault_script;    // human-readable (FaultPlan::describe)
  std::string machine_script;  // replayable (FaultPlan::serialize_script)
  std::string history_dump;
  std::string history_text;    // replayable (HistoryRecorder::serialize_text)
  Bytes history;
  std::string flight_trace;    // Chrome-trace JSON of the final seconds
};

/// Flight-recorder window: every chaos run keeps a ring of recent trace
/// events, and failure artifacts ship this much tail as a Perfetto-loadable
/// JSON sibling — "what was the system doing right before it wedged".
inline constexpr Time kFlightWindow = 5 * kSecond;

/// What a chaos scenario sets besides its deployment.
struct ScenarioParts {
  std::vector<Site> client_sites{};  // the first client also issues the final reads
  std::size_t ops_per_client = 10;
  bool byzantine = false;
  // Replay mode: schedule this serialized script instead of randomize().
  const std::string* replay_script = nullptr;
};

/// Runs the common chaos phases against `sys`: a FaultPlan drawn from its
/// fault surface (or replayed), a recorded workload from one client per
/// site, then chaos, recovery and verification.
template <class System>
ChaosOutcome drive_chaos(World& world, HistoryRecorder& hist, System& sys,
                         const ScenarioParts& parts) {
  FaultPlan plan(world, sys);
  std::vector<decltype(sys.make_client(Site{}))> clients;
  std::vector<chaos::ClientHandle> handles;
  for (std::size_t i = 0; i < parts.client_sites.size(); ++i) {
    clients.push_back(sys.make_client(parts.client_sites[i]));
    handles.push_back(chaos::ClientHandle::wrap(hist, *clients[i], i));
  }
  chaos::ClientHandle reader = chaos::ClientHandle::wrap(hist, *clients[0], 99);

  FaultPlan::ChaosProfile profile;
  profile.start = 2 * kSecond;
  profile.horizon = 18 * kSecond;
  profile.actions = 5;
  if (parts.byzantine) profile.byz_actions = 4;
  if (parts.replay_script != nullptr) {
    // Mirror randomize()'s single World-RNG fork so the workload schedule
    // drawn below stays bit-identical with the recorded run.
    (void)world.rng().fork();
    plan.schedule_script(*parts.replay_script);
  } else {
    plan.randomize(profile);
  }

  chaos::WorkloadOptions opt;
  opt.ops_per_client = parts.ops_per_client;
  opt.mean_gap = 900 * kMillisecond;
  std::vector<std::string> keys = chaos::key_pool(6);
  chaos::schedule_workload(world, std::move(handles), keys, opt);

  ChaosOutcome out;
  out.fault_script = plan.describe();
  out.machine_script = plan.serialize_script();

  // Chaos phase: every fault ends by the horizon (restarts included).
  world.run_until(profile.horizon + kSecond);
  // Recovery phase: all in-flight operations must complete (clients retry
  // forever; a recovered system answers them all).
  drive::run_until(world, [&] { return hist.pending_count() == 0; }, 150 * kSecond);

  // Verification phase: a final strong read per key pins the outcome of
  // every acknowledged write into the checked history.
  for (const std::string& k : keys) reader.strong_get(k);
  drive::run_until(world, [&] { return hist.pending_count() == 0; }, 60 * kSecond);

  out.pending = hist.pending_count();
  out.completed = out.pending == 0;
  out.total_ops = hist.ops().size();
  out.lin = check_kv_history(hist);

  // "No acknowledged write is lost", checked directly: the workload never
  // deletes, so a key with at least one acked Put must be found by its
  // final strong read, and any value read must have been written.
  const auto& ops = hist.ops();
  for (const std::string& k : keys) {
    bool acked_put = false;
    for (const RecordedOp& op : ops) {
      if (op.kind == HistOp::Put && op.key == k && op.responded) acked_put = true;
    }
    const RecordedOp* final_read = nullptr;
    for (const RecordedOp& op : ops) {
      if (op.client == 99 && op.key == k) final_read = &op;
    }
    if (final_read == nullptr || !final_read->responded) continue;  // caught by `completed`
    if (acked_put && !final_read->ok) {
      out.no_lost_writes = false;
      out.lost_diag += "key " + k + ": acked put but final read missed; ";
    }
    if (final_read->ok) {
      bool written = false;
      for (const RecordedOp& op : ops) {
        if (op.kind == HistOp::Put && op.key == k && op.arg == final_read->result) {
          written = true;
        }
      }
      if (!written) {
        out.no_lost_writes = false;
        out.lost_diag += "key " + k + ": final read returned a never-written value; ";
      }
    }
  }

  out.history_dump = hist.dump();
  out.history_text = hist.serialize_text();
  out.history = hist.serialize();
  if (auto* t = world.tracer()) {
    const Time end = world.now();
    out.flight_trace =
        obs::chrome_trace_json(*t, end > kFlightWindow ? end - kFlightWindow : 0, end);
  }
  return out;
}

/// Builds and drives one chaos scenario; `replay_script` replays a
/// serialized FaultPlan instead of drawing a randomized one.
inline ChaosOutcome run_chaos(ChaosConfig config, std::uint64_t seed, bool byzantine = false,
                              const std::string* replay_script = nullptr) {
  World world(seed);
  // Flight recorder: a fixed-memory ring of recent trace events, always on
  // for chaos runs. Recording is out-of-band (no RNG, no scheduling, no
  // wire bytes), so the golden-pinned histories below are unaffected.
  world.enable_tracing(obs::Tracer::Mode::kRing, 1 << 15);
  HistoryRecorder hist(world);
  ScenarioParts parts{.byzantine = byzantine, .replay_script = replay_script};

  // Every Spider core, standalone or sharded.
  SpiderTopology topo;
  topo.ka = 8;
  topo.ke = 8;
  topo.ag_win = 32;
  topo.commit_capacity = 16;
  topo.client_retry = kSecond;
  topo.request_timeout = kSecond;
  topo.view_change_timeout = 2 * kSecond;

  switch (config) {
    case ChaosConfig::SpiderF1:
    case ChaosConfig::SpiderF2:
    case ChaosConfig::SpiderF1Sc: {
      if (config == ChaosConfig::SpiderF1Sc) topo.irmc_kind = IrmcKind::SenderCollect;
      if (config == ChaosConfig::SpiderF2) {
        topo.fa = 2;
        topo.fe = 2;
        topo.exec_regions = {Region::Virginia, Region::Oregon};
      } else {
        topo.exec_regions = {Region::Virginia, Region::Tokyo};
      }
      SpiderSystem sys(world, topo);
      parts.client_sites = {Site{Region::Virginia, 0}, Site{topo.exec_regions.back(), 0},
                            Site{Region::Oregon, 1}};
      return drive_chaos(world, hist, sys, parts);
    }

    case ChaosConfig::PbftBaseline:
    case ChaosConfig::BftWv: {
      BftConfig cfg;
      cfg.sites = {Site{Region::Virginia, 0}, Site{Region::Oregon, 0}, Site{Region::Ireland, 0},
                   Site{Region::Tokyo, 0}};
      if (config == ChaosConfig::BftWv) {
        // fig10's weighted-voting deployment: a fifth replica in Sao Paulo,
        // weight 2 on Virginia and Oregon.
        cfg.sites.push_back(Site{Region::SaoPaulo, 0});
        cfg.weights = {2, 2, 1, 1, 1};
        cfg.quorum_weight = 5;
      }
      cfg.checkpoint_interval = 8;
      cfg.request_timeout = 2 * kSecond;
      cfg.view_change_timeout = 3 * kSecond;
      BftSystem sys(world, cfg);
      parts.client_sites = {Site{Region::Virginia, 1}, Site{Region::Tokyo, 1}};
      parts.ops_per_client = 8;  // WAN consensus: each op takes ~2 RTTs
      return drive_chaos(world, hist, sys, parts);
    }

    case ChaosConfig::Sharded2: {
      ShardedTopology sharded;
      sharded.shards = 2;
      sharded.base = topo;
      sharded.base.exec_regions = {Region::Virginia};
      ShardedSpiderSystem sys(world, sharded);
      parts.client_sites = {Site{Region::Virginia, 0}, Site{Region::Virginia, 1}};
      return drive_chaos(world, hist, sys, parts);
    }
  }
  return {};
}

}  // namespace spider
