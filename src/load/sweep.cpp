#include "load/sweep.hpp"

#include <cstdio>
#include <memory>
#include <stdexcept>

#include "net/loopback_transport.hpp"
#include "net/realtime.hpp"
#include "shard/sharded_system.hpp"
#include "sim/world.hpp"
#include "spider/system.hpp"

namespace spider::load {

namespace {

/// Knee thresholds run_sweep applies (see sweep.hpp): the p99 blow-up
/// multiple vs the low-load baseline, and the share of in-window arrivals
/// completions must track.
constexpr double kKneeP99Factor = 5.0;
constexpr double kKneeGoodputFrac = 0.9;

/// Short-WAN deployment shared by every sweep point (cf. micro_batching /
/// micro_sharding): two execution regions keep the request path cheap so
/// the agreement group — the resource batching and sharding scale — is the
/// saturating bottleneck.
SpiderTopology base_topology(std::uint64_t max_batch) {
  SpiderTopology topo;
  topo.exec_regions = {Region::Virginia, Region::Ohio};
  topo.commit_capacity = 128;
  topo.ag_win = 128;
  topo.max_batch = max_batch;
  topo.batch_delay = max_batch > 1 ? kMillisecond : 0;
  return topo;
}

Site client_site(std::size_t i) {
  return Site{(i % 2 == 0) ? Region::Virginia : Region::Ohio,
              static_cast<std::uint8_t>(i % 3)};
}

/// One ladder point: fresh World + deployment + pool, one runner window.
RateRow run_point(const SweepConfig& cfg, double rate) {
  World world(cfg.seed);
  OpenLoopProfile profile = cfg.profile;
  profile.rate = rate;

  // Socket backend (optional): must be installed before any SimNode exists
  // and must outlive the deployment (nodes detach through it on teardown) —
  // hence declared before `single`/`sharded` below.
  std::unique_ptr<net::LoopbackTransport> sock;
  std::unique_ptr<net::RealtimeDriver> driver;
  if (cfg.loopback) {
    sock = std::make_unique<net::LoopbackTransport>();
    world.install_transport(sock.get());
    driver = std::make_unique<net::RealtimeDriver>(world, *sock);
  }

  // Deployments and pools must outlive the runner (completion callbacks),
  // so they are declared before it and torn down after run() returns.
  std::unique_ptr<SpiderSystem> single;
  std::unique_ptr<ShardedSpiderSystem> sharded;
  std::vector<std::unique_ptr<SpiderClient>> spider_pool;
  std::vector<std::unique_ptr<ShardedClient>> sharded_pool;
  OpenLoopRunner runner(world, profile);

  if (cfg.shards <= 1) {
    single = std::make_unique<SpiderSystem>(world, base_topology(cfg.max_batch));
    for (std::size_t i = 0; i < profile.clients; ++i) {
      spider_pool.push_back(single->make_client(client_site(i)));
      SpiderClient* c = spider_pool.back().get();
      runner.add_client(
          [c](LoadOp op, Bytes encoded, OpenLoopRunner::Callback done) {
            OpKind kind = op == LoadOp::Write       ? OpKind::Write
                          : op == LoadOp::WeakRead  ? OpKind::WeakRead
                                                    : OpKind::StrongRead;
            c->fire(kind, std::move(encoded), std::move(done));
          },
          [c] { return c->queue_depth(); });
    }
  } else {
    ShardedTopology topo;
    topo.shards = cfg.shards;
    topo.base = base_topology(cfg.max_batch);
    sharded = std::make_unique<ShardedSpiderSystem>(world, topo);
    for (std::size_t i = 0; i < profile.clients; ++i) {
      sharded_pool.push_back(sharded->make_client(client_site(i)));
      ShardedClient* c = sharded_pool.back().get();
      runner.add_client(
          [c](LoadOp op, Bytes encoded, OpenLoopRunner::Callback done) {
            switch (op) {
              case LoadOp::Write: c->write(std::move(encoded), std::move(done)); break;
              case LoadOp::WeakRead: c->weak_read(std::move(encoded), std::move(done)); break;
              case LoadOp::StrongRead:
                c->strong_read(std::move(encoded), std::move(done));
                break;
            }
          },
          [c] { return c->pending_ops(); });
    }
  }

  RateRow row;
  row.offered = rate;
  row.result = runner.run();
  if (cfg.capture_snapshots) {
    world.refresh_platform_metrics();
    row.snapshot = world.metrics().snapshot_json();
  }
  return row;
}

}  // namespace

std::string row_text(std::uint32_t shards, std::uint64_t max_batch, const RateRow& row) {
  char buf[256];
  const OpenLoopResult& r = row.result;
  std::snprintf(buf, sizeof(buf),
                "shards=%u batch=%llu rate=%.0f goodput=%.1f p50=%llu p99=%llu "
                "p999=%llu arrivals=%llu completed=%llu depth=%llu",
                shards, static_cast<unsigned long long>(max_batch), row.offered,
                r.goodput, static_cast<unsigned long long>(r.p50_us),
                static_cast<unsigned long long>(r.p99_us),
                static_cast<unsigned long long>(r.p999_us),
                static_cast<unsigned long long>(r.arrivals),
                static_cast<unsigned long long>(r.completed),
                static_cast<unsigned long long>(r.max_queue_depth));
  return buf;
}

std::string SweepResult::rows_text() const {
  std::string out;
  for (const RateRow& row : rows) {
    out += row_text(shards, max_batch, row);
    out += '\n';
  }
  if (knee_index) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "knee rate=%.0f\n", rows[*knee_index].offered);
    out += buf;
  } else {
    out += "knee none\n";
  }
  return out;
}

std::optional<std::size_t> detect_knee(const std::vector<RateRow>& rows,
                                      double p99_factor, double goodput_frac) {
  if (rows.size() < 2) return std::nullopt;
  const double baseline_p99 =
      rows.front().result.p99_us > 0 ? static_cast<double>(rows.front().result.p99_us)
                                     : 1.0;
  for (std::size_t i = 1; i < rows.size(); ++i) {
    const OpenLoopResult& r = rows[i].result;
    if (static_cast<double>(r.p99_us) > p99_factor * baseline_p99) return i;
    // Goodput is judged against *realized* arrivals, not the nominal
    // offered rate: at low rates the Poisson sample deviates several
    // percent from rate x window, which would trip a nominal-rate test on
    // an unloaded system. completed < arrivals means real backlog — ops
    // the system never served even with the whole drain window.
    if (r.arrivals > 0 &&
        static_cast<double>(r.completed) < goodput_frac * static_cast<double>(r.arrivals)) {
      return i;
    }
  }
  return std::nullopt;
}

SweepResult run_sweep(const SweepConfig& cfg,
                      const std::function<void(const RateRow&)>& on_row) {
  if (cfg.rates.empty()) throw std::invalid_argument("SweepConfig.rates must not be empty");
  for (std::size_t i = 1; i < cfg.rates.size(); ++i) {
    if (!(cfg.rates[i] > cfg.rates[i - 1])) {
      throw std::invalid_argument("SweepConfig.rates must be strictly ascending");
    }
  }
  validate_profile(cfg.profile);

  SweepResult res;
  res.shards = cfg.shards;
  res.max_batch = cfg.max_batch;
  for (double rate : cfg.rates) {
    res.rows.push_back(run_point(cfg, rate));
    if (on_row) on_row(res.rows.back());
    res.knee_index = detect_knee(res.rows, kKneeP99Factor, kKneeGoodputFrac);
    if (res.knee_index &&
        res.rows.size() - 1 >= *res.knee_index + cfg.points_past_knee) {
      break;  // deep past the knee: further points only measure collapse
    }
  }
  return res;
}

}  // namespace spider::load
