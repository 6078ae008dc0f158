// Seed-swept chaos suite: random FaultPlans against six deployment
// shapes — Spider f=1, Spider f=2, the geo-replicated PBFT baseline, a
// 2-shard sharded deployment, Spider f=1 over IRMC-SC, and the PBFT
// baseline with weighted voting (BFT-WV) — with every client operation
// recorded and the whole history checked for per-key linearizability
// (weak reads against the committed-prefix rule). Every fault target
// comes from the system's fault surface (sim/fault_surface.hpp).
//
//   - Benign sweep: crashes + restarts, partitions, loss, delay spikes,
//     slow nodes. 16 seeds x 6 configs = 96 scenarios.
//   - Byzantine sweep: the benign faults *plus* scheduled active-adversary
//     windows (equivocating primaries, corrupt replies, dropped request
//     forwarding, muted / fully-isolated consensus replicas, forged
//     checkpoint certificates), hard-capped at ≤f Byzantine replicas per
//     consensus group and ≤fe per execution group. 8 seeds x 6 configs =
//     48 scenarios. Linearizability must hold under ANY such schedule; the
//     fe+1-corruptor canary below proves the checker would catch a breach.
//
// On failure each scenario writes chaos_failure_<config>_seed<N>.txt
// (fault schedule + full history, both human-readable and replayable)
// next to the test binary; CI uploads these as artifacts. Reproduce
// locally with the seed from the test name — scenarios are
// bit-deterministic (see SeedReplayIsByteIdentical) — or reload the
// artifact itself (see ArtifactRoundTripReplaysByteIdentically).
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "baselines/bft_system.hpp"
#include "check/linearizer.hpp"
#include "obs/trace_export.hpp"
#include "common/hex.hpp"
#include "crypto/sha256.hpp"
#include "shard/sharded_system.hpp"
#include "sim/fault_plan.hpp"
#include "sim/world.hpp"
#include "spider/system.hpp"
#include "tests/support/chaos.hpp"
#include "tests/support/chaos_runner.hpp"
#include "tests/support/drive.hpp"

namespace spider {
namespace {

constexpr const char* kScriptHeader = "== fault script (replayable) ==";
constexpr const char* kHistoryHeader = "== history (replayable) ==";

/// Full failure-artifact text: human-readable context first, then the two
/// replayable sections an artifact loader extracts.
std::string artifact_text(ChaosConfig config, std::uint64_t seed, const ChaosOutcome& out) {
  std::ostringstream f;
  f << "config: " << config_name(config) << "\nseed: " << seed
    << "\ncompleted: " << out.completed << " (pending " << out.pending << "/" << out.total_ops
    << ")\nlinearizable: " << out.lin.ok << " " << out.lin.error
    << "\nlost-writes: " << out.lost_diag << "\n\n== fault schedule ==\n"
    << out.fault_script << "\n== recorded history ==\n"
    << out.history_dump << "\n"
    << kScriptHeader << "\n"
    << out.machine_script << kHistoryHeader << "\n"
    << out.history_text;
  return f.str();
}

/// Extracts the section between `header` and the next "== ... ==" line (or
/// end of text). Returns an empty string if the header is missing.
std::string artifact_section(const std::string& artifact, const std::string& header) {
  std::size_t at = artifact.find(header);
  if (at == std::string::npos) return {};
  at = artifact.find('\n', at);
  if (at == std::string::npos) return {};
  ++at;
  std::size_t end = artifact.find("\n== ", at);
  return artifact.substr(at, end == std::string::npos ? std::string::npos : end + 1 - at);
}

void write_failure_artifact(ChaosConfig config, std::uint64_t seed, const ChaosOutcome& out,
                            bool byzantine) {
  std::string stem = std::string("chaos_failure_") + (byzantine ? "byz_" : "") +
                     config_name(config) + "_seed" + std::to_string(seed);
  std::string path = stem + ".txt";
  std::ofstream f(path);
  f << artifact_text(config, seed, out);
  std::string trace_note;
  if (!out.flight_trace.empty()) {
    std::string trace_path = stem + "_trace.json";
    std::ofstream tf(trace_path);
    tf << out.flight_trace;
    trace_note = "; flight-recorder trace in " + trace_path;
  }
  ADD_FAILURE() << "chaos scenario failed; artifact written to " << path << trace_note
                << " — reproduce with config=" << config_name(config) << " seed=" << seed
                << (byzantine ? " (byzantine sweep)" : "");
}

class ChaosSweep : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(ChaosSweep, LinearizableAndNoAckedWriteLost) {
  ChaosConfig config = static_cast<ChaosConfig>(std::get<0>(GetParam()));
  std::uint64_t seed = std::get<1>(GetParam());
  ChaosOutcome out = run_chaos(config, seed);
  if (!out.completed || !out.lin.ok || !out.no_lost_writes) {
    write_failure_artifact(config, seed, out, /*byzantine=*/false);
  }
  EXPECT_TRUE(out.completed) << out.pending << " of " << out.total_ops << " ops never completed";
  EXPECT_TRUE(out.lin.ok) << out.lin.error;
  EXPECT_TRUE(out.no_lost_writes) << out.lost_diag;
}

std::string chaos_param_name(const ::testing::TestParamInfo<std::tuple<int, std::uint64_t>>& i) {
  return std::string(config_name(static_cast<ChaosConfig>(std::get<0>(i.param)))) + "_seed" +
         std::to_string(std::get<1>(i.param));
}

INSTANTIATE_TEST_SUITE_P(Chaos, ChaosSweep,
                         ::testing::Combine(::testing::Values(0, 1, 2, 3, 4, 5),
                                            ::testing::Range<std::uint64_t>(1, 17)),
                         chaos_param_name);

// ---------------------------------------------------------------------------
// Byzantine sweep: same checked-chaos methodology with active adversaries
// scheduled on top of the benign faults — linearizability and no-lost-writes
// must hold under ANY ≤f-per-role Byzantine schedule.
// ---------------------------------------------------------------------------

class ByzChaosSweep : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(ByzChaosSweep, LinearizableUnderActiveAdversaries) {
  ChaosConfig config = static_cast<ChaosConfig>(std::get<0>(GetParam()));
  std::uint64_t seed = std::get<1>(GetParam());
  ChaosOutcome out = run_chaos(config, seed, /*byzantine=*/true);
  if (!out.completed || !out.lin.ok || !out.no_lost_writes) {
    write_failure_artifact(config, seed, out, /*byzantine=*/true);
  }
  EXPECT_TRUE(out.completed) << out.pending << " of " << out.total_ops << " ops never completed";
  EXPECT_TRUE(out.lin.ok) << out.lin.error;
  EXPECT_TRUE(out.no_lost_writes) << out.lost_diag;
}

INSTANTIATE_TEST_SUITE_P(Chaos, ByzChaosSweep,
                         ::testing::Combine(::testing::Values(0, 1, 2, 3, 4, 5),
                                            ::testing::Range<std::uint64_t>(101, 109)),
                         chaos_param_name);

TEST(ChaosDeterminism, SeedReplayIsByteIdentical) {
  ChaosOutcome a = run_chaos(ChaosConfig::SpiderF1, 7);
  ChaosOutcome b = run_chaos(ChaosConfig::SpiderF1, 7);
  EXPECT_EQ(a.fault_script, b.fault_script);
  EXPECT_EQ(a.history, b.history);
  EXPECT_FALSE(a.history.empty());
  // The flight-recorder trace is part of the deterministic surface: every
  // event is sim-time-stamped and RNG-free, so a seed replay reproduces
  // the exported JSON byte for byte.
  EXPECT_EQ(a.flight_trace, b.flight_trace);
  EXPECT_FALSE(a.flight_trace.empty());

  ChaosOutcome c = run_chaos(ChaosConfig::SpiderF1, 8);
  EXPECT_NE(c.history, a.history);
}

TEST(ChaosDeterminism, ByzantineSeedReplayIsByteIdentical) {
  ChaosOutcome a = run_chaos(ChaosConfig::SpiderF1, 103, /*byzantine=*/true);
  ChaosOutcome b = run_chaos(ChaosConfig::SpiderF1, 103, /*byzantine=*/true);
  EXPECT_EQ(a.fault_script, b.fault_script);
  EXPECT_EQ(a.machine_script, b.machine_script);
  EXPECT_EQ(a.history, b.history);
  EXPECT_FALSE(a.history.empty());
  // The schedule genuinely contains Byzantine actions.
  EXPECT_NE(a.machine_script.find("byz "), std::string::npos) << a.machine_script;

  ChaosOutcome c = run_chaos(ChaosConfig::SpiderF1, 104, /*byzantine=*/true);
  EXPECT_NE(c.history, a.history);
}

// ---------------------------------------------------------------------------
// Golden replays: SHA-256 digests of (machine fault script, recorded
// history) at fixed seeds; any divergence in event order, RNG consumption,
// wire bytes or simulated timestamps changes them. All six fault scripts
// and the PBFT-baseline history (which never runs IRMC) are still the
// digests captured from the naive-copy implementation, so the zero-copy
// transport / flat-heap scheduler / memoized-digest pipeline stays
// *observationally identical* to it. The five histories of runs that use
// IRMC are pinned at IRMC-RC SendMove: the request channel's window move
// rides on the signed Send instead of a separate Move frame, and receivers
// drop Sends that can no longer count before checking their signature
// (one Nack frame per sender per tick still). Fewer charged frames and
// verifies shift simulated timestamps, so these histories moved.
// ---------------------------------------------------------------------------

TEST(ChaosDeterminism, FastPathMatchesPreOptimizationGoldens) {
  struct Golden {
    ChaosConfig config;
    std::uint64_t seed;
    bool byzantine;
    const char* script_sha;
    const char* history_sha;
  };
  const Golden goldens[] = {
      {ChaosConfig::SpiderF1, 7, false,
       "a17347e98364e2e8e56a1ccb559aaaf3519aff5e27c519d9a0be4724cb84d4a2",
       "9c4d3e2a94b1c317a3d2045023bbd2b72d07c4e09e481dddf1844f94b1e08d1e"},
      {ChaosConfig::SpiderF2, 3, false,
       "a86fc42376d861975983dc6f3b77c871ad1b7e707367c4f678bf51e188116c89",
       "6186bdbd6c59d560e291a7a63d2e78c770dd24ffff752a0ebdbe0dc569ca5645"},
      {ChaosConfig::PbftBaseline, 11, false,
       "c54a204ddcd512967101bf9171a1dc1c8cc7c83df9a34a868bd020c950c92a83",
       "696c6044c47e2164220503d5559b943945e3a35afdba35b46946d87a42623ed4"},
      {ChaosConfig::Sharded2, 5, false,
       "76c314389a3059f239a69f3117cbb48aa4fa3c0b1d0d6fae862837548c44a2d9",
       "878119bcbef977f56f00031c1a871d3132d656d18502ef55dd36caa6a9ed1161"},
      {ChaosConfig::SpiderF1, 103, true,
       "10a18b944bd6c01b8cf9df18ab86b5ac13b207f637a55f3ab83ec8f4933239b8",
       "d16c15b7045e8523f7f6c98e37203628f123847ea1ae70d6a87e48469ee30925"},
      {ChaosConfig::Sharded2, 107, true,
       "6ff10948605e10c9fef061ad57925c8bf22f30aabce5a53ff676b9b7c5c0b07f",
       "b49f944bb2c177907caea46a08463a05cce3f0edb23ec030eb76fc4431851f94"},
      // IRMC-SC: shares, certificates, Progress and collector Select. Same
      // fault script as spider_f1 seed 7 (same deployment shape and draws);
      // the history is pinned from before RC and SC shared a window core.
      {ChaosConfig::SpiderF1Sc, 7, false,
       "a17347e98364e2e8e56a1ccb559aaaf3519aff5e27c519d9a0be4724cb84d4a2",
       "c9ff7245707307f3a3a98f09b2e7ec0ac0fada0bde73b20ecb86dadc9aa59d26"},
  };
  for (const Golden& g : goldens) {
    ChaosOutcome out = run_chaos(g.config, g.seed, g.byzantine);
    EXPECT_EQ(to_hex(sha256(to_bytes(out.machine_script))), g.script_sha)
        << "fault script diverged from the pre-optimisation implementation at "
        << config_name(g.config) << " seed " << g.seed;
    EXPECT_EQ(to_hex(sha256(out.history)), g.history_sha)
        << "recorded history diverged from its pinned golden at "
        << config_name(g.config) << " seed " << g.seed;
  }
}

// ---------------------------------------------------------------------------
// Artifact round trip: a failure artifact is not write-only — its
// replayable sections reload into a FaultPlan + history and replay
// byte-identically.
// ---------------------------------------------------------------------------

TEST(ChaosArtifacts, ArtifactRoundTripReplaysByteIdentically) {
  ChaosOutcome a = run_chaos(ChaosConfig::SpiderF1, 105, /*byzantine=*/true);

  // Dump the artifact to disk exactly like a failing scenario would...
  const std::string path = "chaos_artifact_roundtrip.txt";
  {
    std::ofstream f(path);
    f << artifact_text(ChaosConfig::SpiderF1, 105, a);
  }
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string artifact = buf.str();

  // ...reload both replayable sections...
  const std::string script = artifact_section(artifact, kScriptHeader);
  const std::string history_text = artifact_section(artifact, kHistoryHeader);
  ASSERT_FALSE(script.empty());
  ASSERT_FALSE(history_text.empty());
  EXPECT_EQ(script, a.machine_script);

  // ...the history parses back to the recorded bytes...
  std::vector<RecordedOp> ops = parse_history_text(history_text);
  EXPECT_EQ(serialize_ops(ops), a.history);

  // ...and replaying the reloaded schedule (instead of randomize())
  // reproduces the run byte for byte: same fault firings, same history.
  ChaosOutcome b = run_chaos(ChaosConfig::SpiderF1, 105, /*byzantine=*/true, &script);
  EXPECT_EQ(b.fault_script, a.fault_script);
  EXPECT_EQ(b.history, a.history);
}

TEST(ChaosArtifacts, FlightRecorderTraceIsWellFormed) {
  ChaosOutcome out = run_chaos(ChaosConfig::SpiderF1, 9);
  ASSERT_FALSE(out.flight_trace.empty());
  const std::string& t = out.flight_trace;
  // Chrome trace-event envelope, loadable by chrome://tracing and Perfetto.
  EXPECT_EQ(t.rfind("{\"displayTimeUnit\"", 0), 0u) << t.substr(0, 80);
  EXPECT_NE(t.find("\"traceEvents\":["), std::string::npos);
  EXPECT_EQ(t.substr(t.size() - 3), "]}\n");
  // Track metadata and at least one protocol-layer event made the window.
  EXPECT_NE(t.find("process_name"), std::string::npos);
  EXPECT_NE(t.find("\"cat\":\"request\""), std::string::npos);
  // Balanced braces — cheap structural check without a JSON parser.
  std::ptrdiff_t depth = 0;
  for (char ch : t) {
    if (ch == '{') ++depth;
    if (ch == '}') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  // Every kept event falls inside the exported window.
  ChaosOutcome again = run_chaos(ChaosConfig::SpiderF1, 9);
  EXPECT_EQ(out.flight_trace, again.flight_trace);
}

// ---------------------------------------------------------------------------
// Canary: the Byzantine sweep is only meaningful if the checker would
// actually catch Byzantine damage. Beyond the threat model — fe+1
// corruptors in one execution group, enough to win the client's vote —
// the recorded history MUST be flagged; at the fe boundary it must not.
// ---------------------------------------------------------------------------

SpiderTopology canary_topo() {
  SpiderTopology topo;
  topo.exec_regions = {Region::Virginia, Region::Tokyo};
  topo.ka = 8;
  topo.ke = 8;
  topo.ag_win = 32;
  topo.commit_capacity = 16;
  topo.client_retry = kSecond;
  return topo;
}

TEST(ByzantineCanary, FePlusOneCorruptorsProduceFlaggedHistory) {
  World world(77);
  SpiderSystem sys(world, canary_topo());
  HistoryRecorder hist(world);
  auto client = sys.make_client(Site{Region::Virginia, 0});
  GroupId g = client->group().group;

  world.byzantine(sys.exec(g, 0).id()).corrupt_replies = true;
  world.byzantine(sys.exec(g, 1).id()).corrupt_replies = true;

  recorded(hist, *client, 0, HistOp::Put, "k", "honest");
  drive::run_until(world, [&] { return hist.pending_count() == 0; }, 30 * kSecond);
  recorded(hist, *client, 0, HistOp::StrongGet, "k");
  bool done = drive::run_until(world, [&] { return hist.pending_count() == 0; }, 30 * kSecond);
  ASSERT_TRUE(done) << hist.dump();

  // fe+1 = 2 matching corrupted replies win the vote: the client observed
  // a never-written value, and the checker flags it.
  LinResult lin = check_kv_history(hist);
  EXPECT_FALSE(lin.ok) << "checker accepted a corrupted read:\n" << hist.dump();
}

TEST(ByzantineCanary, FeCorruptorsAreOutvotedAndHistoryStaysClean) {
  World world(78);
  SpiderSystem sys(world, canary_topo());
  HistoryRecorder hist(world);
  auto client = sys.make_client(Site{Region::Virginia, 0});
  GroupId g = client->group().group;

  world.byzantine(sys.exec(g, 0).id()).corrupt_replies = true;

  recorded(hist, *client, 0, HistOp::Put, "k", "honest");
  drive::run_until(world, [&] { return hist.pending_count() == 0; }, 30 * kSecond);
  recorded(hist, *client, 0, HistOp::StrongGet, "k");
  recorded(hist, *client, 0, HistOp::WeakGet, "k");
  bool done = drive::run_until(world, [&] { return hist.pending_count() == 0; }, 30 * kSecond);
  ASSERT_TRUE(done) << hist.dump();

  LinResult lin = check_kv_history(hist);
  EXPECT_TRUE(lin.ok) << lin.error << "\n" << hist.dump();
}

}  // namespace
}  // namespace spider
