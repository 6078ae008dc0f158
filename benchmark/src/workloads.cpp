#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>

#include "app/kvstore.hpp"
#include "check/history.hpp"
#include "check/linearizer.hpp"
#include "common/serde.hpp"
#include "load/open_loop.hpp"
#include "net/loopback_transport.hpp"
#include "net/realtime.hpp"
#include "probe.hpp"
#include "shard/sharded_system.hpp"
#include "sim/fault_plan.hpp"
#include "sim/world.hpp"
#include "spider/system.hpp"
#include "stages.hpp"

namespace spider::bench {

namespace {

// Capacity search (geo-write): the highest offered rate whose write p99
// stays within the latency limit while completions keep up with arrivals.
constexpr Duration kSloP99 = 250 * kMillisecond;
constexpr double kSloCompletion = 0.99;
constexpr double kCapacityLo = 100;
constexpr double kCapacityHi = 800;
constexpr int kCapacityProbes = 6;

// Interval at which a restarted replica is checked for having caught up.
constexpr Duration kRejoinPoll = 10 * kMillisecond;

load::OpenLoopProfile profile(double rate, std::size_t clients, double write, double weak,
                              double zipf_theta, Duration measure, Duration drain) {
  load::OpenLoopProfile p;
  p.rate = rate;
  p.clients = clients;
  p.key_count = 4096;
  p.value_size = 160;  // ~200-byte requests on the wire
  p.zipf_theta = zipf_theta;
  p.write_fraction = write;
  p.weak_fraction = weak;
  p.warmup = kSecond;
  p.measure = measure;
  p.drain = drain;
  return p;
}

std::vector<WorkloadSpec> make_workloads() {
  std::vector<WorkloadSpec> all;

  WorkloadSpec geo_write;
  geo_write.name = "geo-write";
  geo_write.profile = profile(250, 256, 1.0, 0.0, 0.99, 20 * kSecond, 4 * kSecond);
  geo_write.slice_offset = 9 * kSecond;
  geo_write.capacity_search = true;
  all.push_back(geo_write);

  WorkloadSpec geo_read;
  geo_read.name = "geo-read";
  geo_read.profile = profile(3000, 256, 0.05, 0.90, 0.99, 20 * kSecond, 4 * kSecond);
  geo_read.slice_offset = 9 * kSecond;
  all.push_back(geo_read);

  WorkloadSpec shard4;
  shard4.name = "shard4-mix";
  shard4.deployment = Deployment::kShard4;
  shard4.profile = profile(9600, 1024, 0.50, 0.45, 0.99, 2 * kSecond, 4 * kSecond);
  shard4.max_batch = 16;
  // ~1.1 M trace events per simulated second here: a shorter slice keeps
  // the traced run's memory near the plain run's.
  shard4.slice_offset = kSecond / 2;
  shard4.slice = kSecond / 2;
  all.push_back(shard4);

  WorkloadSpec failover;
  failover.name = "failover-rsa";
  failover.profile = profile(100, 128, 0.50, 0.45, 0.0, 15 * kSecond, 4 * kSecond);
  failover.real_crypto = true;
  failover.crash_at = 4 * kSecond;
  failover.restart_after = 6 * kSecond;
  all.push_back(failover);

  WorkloadSpec loopback;
  loopback.name = "loopback-mix";
  loopback.deployment = Deployment::kLoopback;
  loopback.profile = profile(800, 64, 0.50, 0.45, 0.99, 10 * kSecond, kSecond / 2);
  loopback.profile.warmup = kSecond / 2;
  all.push_back(loopback);

  return all;
}

/// The short-WAN core of load::run_sweep: two nearby execution regions keep
/// the request path cheap, so the agreement group is the bottleneck.
SpiderTopology short_wan_core(std::uint64_t max_batch) {
  SpiderTopology topo;
  topo.exec_regions = {Region::Virginia, Region::Ohio};
  topo.commit_capacity = 128;
  topo.ag_win = 128;
  topo.max_batch = max_batch;
  topo.batch_delay = max_batch > 1 ? kMillisecond : 0;
  return topo;
}

Site client_site(Deployment d, std::size_t i) {
  if (d == Deployment::kGeo) {
    static constexpr Region kRegions[] = {Region::Virginia, Region::Oregon, Region::Ireland,
                                          Region::Tokyo};
    return Site{kRegions[i % 4], static_cast<std::uint8_t>((i / 4) % 3)};
  }
  return Site{(i % 2 == 0) ? Region::Virginia : Region::Ohio,
              static_cast<std::uint8_t>(i % 3)};
}

std::int64_t cpu_ns() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ns = [](const timeval& tv) {
    return static_cast<std::int64_t>(tv.tv_sec) * 1'000'000'000 +
           static_cast<std::int64_t>(tv.tv_usec) * 1'000;
  };
  return ns(ru.ru_utime) + ns(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double mean_us(const std::vector<std::uint64_t>& v) {
  std::uint64_t sum = 0;
  for (std::uint64_t x : v) sum += x;
  return ratio(static_cast<double>(sum), static_cast<double>(v.size()));
}

/// Gives every write a unique value of the profile's size, and accepts a
/// read only when it returns not-found or a value some write to that key
/// carried.
class ValueBook {
 public:
  explicit ValueBook(std::size_t size) : size_(std::max<std::size_t>(size, 8)) {}

  Bytes stamp(const std::string& key) {
    keys_.push_back(key);
    return value_of(keys_.size() - 1);
  }

  [[nodiscard]] bool readable(const std::string& key, const KvReply& r) const {
    if (!r.ok) return r.value.empty();
    if (r.value.size() != size_) return false;
    std::uint64_t id = 0;
    for (std::size_t i = 0; i < 8; ++i) id |= static_cast<std::uint64_t>(r.value[i]) << (8 * i);
    return id < keys_.size() && keys_[id] == key && r.value == value_of(id);
  }

 private:
  /// Write id in the first eight bytes (little-endian), then filler derived
  /// from it, so a value is verifiable on its own.
  [[nodiscard]] Bytes value_of(std::uint64_t id) const {
    Bytes v(size_);
    std::uint64_t x = id;
    for (std::size_t i = 0; i < size_; ++i) {
      if (i < 8) {
        v[i] = static_cast<std::uint8_t>(id >> (8 * i));
      } else {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        v[i] = static_cast<std::uint8_t>(x >> 56);
      }
    }
    return v;
  }

  std::size_t size_;
  std::vector<std::string> keys_;  // write id -> key
};

/// Per-replica counters sampled at the window edges.
struct NodeSample {
  Duration busy = 0;
  Duration crypto = 0;
  std::uint64_t batches = 0;
  std::uint64_t requests = 0;
};

struct Snapshot {
  std::int64_t wall_ns = 0;
  std::int64_t cpu_ns = 0;
  std::uint64_t fired = 0;
  std::uint64_t scheduled = 0;
  std::uint64_t cancelled = 0;
  // Benchmark-owned events among `fired` and `scheduled`.
  std::uint64_t probes_fired = 0;
  std::uint64_t probes_scheduled = 0;
  std::uint64_t checks = 0;
  std::uint64_t retries = 0;
  std::uint64_t latency_sum_us = 0;  // client-observed ordered service time
  std::uint64_t latency_count = 0;
  std::uint64_t wan_bytes = 0;
  std::map<NodeId, NodeSample> agreement;
  std::map<NodeId, NodeSample> exec;
};

class WorkloadRun {
 public:
  WorkloadRun(const WorkloadSpec& spec, std::uint64_t seed, Mode mode)
      : spec_(spec),
        seed_(seed),
        traced_(mode == Mode::kTraced),
        book_(spec.profile.value_size) {}

  WorkloadRun(const WorkloadRun&) = delete;
  WorkloadRun& operator=(const WorkloadRun&) = delete;

  RunResult run();

 private:
  using Issue = std::function<void(load::LoadOp, Bytes, SpiderClient::OpCallback)>;

  [[nodiscard]] SpanStack* spans() { return traced_ ? &spans_ : nullptr; }
  [[nodiscard]] bool loopback() const { return spec_.deployment == Deployment::kLoopback; }

  void build();
  /// Registers one client slot; `id` labels its ops in the history.
  void add_client(Issue issue, NodeId id, load::OpenLoopRunner::DepthProbe depth);
  void submit(load::LoadOp op, Bytes encoded, load::OpenLoopRunner::Callback done,
              const Issue& issue, NodeId client);
  void on_reply(load::LoadOp op, const std::string& key, const Bytes& reply, Time arrival,
                bool in_window, std::size_t hist_id);
  void violation(std::string what);

  void schedule_probe(Time at, std::function<void()> fn);
  void schedule_probes(Time t0);
  void on_restart(NodeId id);
  void poll_rejoin();
  [[nodiscard]] std::vector<SpiderSystem*> cores();
  [[nodiscard]] Snapshot snapshot();
  [[nodiscard]] double outage_s() const;

  void report_plain(Report& r, const load::OpenLoopResult& res, const Snapshot& closed,
                    std::uint64_t failed);
  void report_traced(Report& r, const load::OpenLoopResult& res, const Snapshot& closed,
                     double check_after_s);

  const WorkloadSpec& spec_;
  std::uint64_t seed_;
  bool traced_;

  // Declaration order is teardown order in reverse: the span stack outlives
  // the World whose crypto decorator points at it; transports outlive the
  // nodes that detach through them; the runner (whose callbacks the clients
  // hold) goes first.
  SpanStack spans_;
  std::unique_ptr<World> world_;
  std::unique_ptr<net::LoopbackTransport> sock_;
  std::unique_ptr<TimedTransport> timed_net_;
  std::unique_ptr<net::RealtimeDriver> driver_;
  std::unique_ptr<SpiderSystem> single_;
  std::unique_ptr<ShardedSpiderSystem> sharded_;
  std::vector<std::unique_ptr<SpiderClient>> spider_pool_;
  std::vector<std::unique_ptr<ShardedClient>> sharded_pool_;
  std::unique_ptr<FaultPlan> faults_;
  std::unique_ptr<HistoryRecorder> history_;
  std::unique_ptr<load::OpenLoopRunner> runner_;

  std::vector<SpiderClient*> clients_;  // every SpiderClient, sharded sub-clients included
  std::vector<obs::LogHistogram*> client_latency_;
  std::unordered_map<NodeId, GroupId> group_of_;  // clients and exec replicas

  ValueBook book_;
  SimDigest digest_;
  std::uint64_t checks_ = 0;
  std::uint64_t wrong_replies_ = 0;
  std::vector<std::string> violations_;

  Time measure_from_ = 0;
  Time measure_to_ = 0;
  std::int64_t setup_start_ns_ = 0;
  std::int64_t run_wall0_ns_ = 0;
  Time run_virtual0_ = 0;
  std::uint64_t probes_scheduled_ = 0;
  std::uint64_t probes_fired_ = 0;
  Snapshot open_;     // measure window opens (end of set-up)
  Snapshot measured_; // arrivals stop

  // Traced runs only.
  std::vector<obs::TraceEvent> slice_events_;
  std::int64_t obs_ns_ = 0;  // handling the trace slice inside the window
  std::vector<std::uint64_t> lag_us_;
  Time restart_time_ = -1;
  NodeId restarted_ = kInvalidNode;
  SeqNr rejoin_target_ = 0;
  Time rejoined_at_ = -1;
};

void WorkloadRun::violation(std::string what) {
  ++wrong_replies_;
  if (violations_.size() < 20) violations_.push_back(std::move(what));
}

std::vector<SpiderSystem*> WorkloadRun::cores() {
  std::vector<SpiderSystem*> out;
  if (single_) out.push_back(single_.get());
  if (sharded_) {
    for (std::uint32_t s = 0; s < sharded_->shard_count(); ++s) out.push_back(&sharded_->core(s));
  }
  return out;
}

void WorkloadRun::build() {
  std::unique_ptr<CryptoProvider> crypto;
  if (spec_.real_crypto) crypto = std::make_unique<RealCrypto>(seed_, 512);
  else crypto = std::make_unique<FastCrypto>(seed_);
  if (traced_) crypto = std::make_unique<TimedCrypto>(std::move(crypto), spans_);
  world_ = std::make_unique<World>(seed_, std::move(crypto));

  Transport* inner = &world_->net();
  if (loopback()) {
    sock_ = std::make_unique<net::LoopbackTransport>();
    inner = sock_.get();
  }
  if (traced_) {
    timed_net_ = std::make_unique<TimedTransport>(*inner, spans_);
    world_->install_transport(timed_net_.get());
  } else if (loopback()) {
    world_->install_transport(sock_.get());
  }
  if (loopback()) driver_ = std::make_unique<net::RealtimeDriver>(*world_, *sock_);

  SpiderTopology topo = spec_.deployment == Deployment::kGeo ? SpiderTopology{}
                                                             : short_wan_core(spec_.max_batch);
  if (traced_) {
    topo.make_app = [this]() -> std::unique_ptr<Application> {
      return std::make_unique<TimedApp>(std::make_unique<KvStore>(), spans_);
    };
  }
  const load::OpenLoopProfile& p = spec_.profile;
  runner_ = std::make_unique<load::OpenLoopRunner>(*world_, p);

  if (spec_.deployment == Deployment::kShard4) {
    ShardedTopology sharded;
    sharded.shards = 4;
    sharded.base = topo;
    sharded_ = std::make_unique<ShardedSpiderSystem>(*world_, sharded);
    for (std::size_t i = 0; i < p.clients; ++i) {
      sharded_pool_.push_back(sharded_->make_client(client_site(spec_.deployment, i)));
      ShardedClient* c = sharded_pool_.back().get();
      for (std::uint32_t s = 0; s < c->shard_count(); ++s) {
        clients_.push_back(&c->shard_client(s));
      }
      add_client(
          [c](load::LoadOp op, Bytes encoded, SpiderClient::OpCallback cb) {
            switch (op) {
              case load::LoadOp::Write: c->write(std::move(encoded), std::move(cb)); break;
              case load::LoadOp::WeakRead: c->weak_read(std::move(encoded), std::move(cb)); break;
              case load::LoadOp::StrongRead:
                c->strong_read(std::move(encoded), std::move(cb));
                break;
            }
          },
          c->shard_client(0).id(), [c] { return c->pending_ops(); });
    }
  } else {
    single_ = std::make_unique<SpiderSystem>(*world_, topo);
    for (std::size_t i = 0; i < p.clients; ++i) {
      spider_pool_.push_back(single_->make_client(client_site(spec_.deployment, i)));
      SpiderClient* c = spider_pool_.back().get();
      clients_.push_back(c);
      add_client(
          [c](load::LoadOp op, Bytes encoded, SpiderClient::OpCallback cb) {
            const OpKind kind = op == load::LoadOp::Write      ? OpKind::Write
                                : op == load::LoadOp::WeakRead ? OpKind::WeakRead
                                                               : OpKind::StrongRead;
            c->fire(kind, std::move(encoded), std::move(cb));
          },
          c->id(), [c] { return c->queue_depth(); });
    }
  }

  // Key material is derived lazily on first use; derive it now so the
  // measured window starts with every cache full.
  for (SpiderSystem* core : cores()) {
    for (NodeId id : core->replica_ids()) world_->crypto().sign(id, {});
    world_->crypto().sign(core->admin().id(), {});
    for (GroupId g : core->group_ids()) {
      for (NodeId id : core->group_info(g).members) group_of_[id] = g;
    }
  }
  for (SpiderClient* c : clients_) {
    world_->crypto().sign(c->id(), {});
    group_of_[c->id()] = c->group().group;
    client_latency_.push_back(&world_->metrics().histogram(
        "client_latency_ordered", {.node = c->id(), .role = "client"}));
  }

  if (spec_.crash_at > 0) {
    history_ = std::make_unique<HistoryRecorder>(*world_);
    faults_ = std::make_unique<FaultPlan>(*world_);
    faults_->on_crash = [this](NodeId id) { single_->crash_node(id); };
    faults_->on_restart = [this](NodeId id) { on_restart(id); };
  }
}

void WorkloadRun::add_client(Issue issue, NodeId id, load::OpenLoopRunner::DepthProbe depth) {
  runner_->add_client(
      [this, issue = std::move(issue), id](load::LoadOp op, Bytes encoded,
                                           load::OpenLoopRunner::Callback done) {
        submit(op, std::move(encoded), std::move(done), issue, id);
      },
      std::move(depth));
}

void WorkloadRun::submit(load::LoadOp op, Bytes encoded, load::OpenLoopRunner::Callback done,
                         const Issue& issue, NodeId client) {
  Span span(spans(), Layer::kLoad);
  const Time arrival = world_->now();
  const bool in_window = arrival >= measure_from_;
  if (traced_ && loopback()) {
    const std::int64_t wall_us = (wall_ns() - run_wall0_ns_) / 1000;
    lag_us_.push_back(static_cast<std::uint64_t>(
        std::max<std::int64_t>(0, wall_us - (arrival - run_virtual0_))));
  }

  std::string key = kv_parse_op(encoded, /*with_values=*/false).keys.at(0);
  Bytes value;
  if (op == load::LoadOp::Write) {
    value = book_.stamp(key);
    encoded = kv_put(key, value);
  }
  std::size_t hist_id = 0;
  if (history_) {
    const HistOp kind = op == load::LoadOp::Write      ? HistOp::Put
                        : op == load::LoadOp::WeakRead ? HistOp::WeakGet
                                                       : HistOp::StrongGet;
    hist_id = history_->invoke(client, kind, key, value);
  }
  issue(op, std::move(encoded),
        [this, op, key = std::move(key), arrival, in_window, hist_id,
         done = std::move(done)](Bytes reply, Duration latency) {
          Span reply_span(spans(), Layer::kLoad);
          on_reply(op, key, reply, arrival, in_window, hist_id);
          done(std::move(reply), latency);
        });
}

void WorkloadRun::on_reply(load::LoadOp op, const std::string& key, const Bytes& reply,
                           Time arrival, bool in_window, std::size_t hist_id) {
  Span span(spans(), Layer::kCheck);
  ++checks_;
  const Time now = world_->now();
  KvReply r;
  bool valid = true;
  try {
    r = kv_decode_reply(reply);
    valid = op == load::LoadOp::Write ? r.ok && r.value.empty() : book_.readable(key, r);
  } catch (const SerdeError&) {
    valid = false;
  }
  if (!valid) {
    violation(std::string(load::load_op_name(op)) + " on " + key +
              (op == load::LoadOp::Write ? " was not acknowledged"
                                         : " returned a value no write to it carried"));
  }
  if (history_) history_->respond(hist_id, r.ok, r.value);
  if (op != load::LoadOp::WeakRead) digest_.ordered_done.push_back(now);
  if (!in_window) return;
  const auto sojourn = static_cast<std::uint64_t>(now - arrival);
  switch (op) {
    case load::LoadOp::Write: digest_.write_us.push_back(sojourn); break;
    case load::LoadOp::WeakRead: digest_.weak_us.push_back(sojourn); break;
    case load::LoadOp::StrongRead: digest_.strong_us.push_back(sojourn); break;
  }
}

void WorkloadRun::schedule_probe(Time at, std::function<void()> fn) {
  ++probes_scheduled_;
  world_->queue().schedule_at(at, [this, fn = std::move(fn)] {
    ++probes_fired_;
    fn();
  });
}

void WorkloadRun::schedule_probes(Time t0) {
  measure_from_ = t0 + spec_.profile.warmup;
  measure_to_ = measure_from_ + spec_.profile.measure;
  schedule_probe(measure_from_, [this] {
    open_ = snapshot();
    spans_.reset();
  });
  schedule_probe(measure_to_, [this] { measured_ = snapshot(); });

  if (faults_) {
    const NodeId primary = single_->agreement_ids().at(0);
    faults_->crash_at(measure_from_ + spec_.crash_at, primary);
    faults_->restart_at(measure_from_ + spec_.crash_at + spec_.restart_after, primary);
  }

  if (!traced_) return;
  const Time slice_from = measure_from_ + spec_.slice_offset;
  schedule_probe(slice_from, [this] { world_->enable_tracing(obs::Tracer::Mode::kFull); });
  schedule_probe(slice_from + spec_.slice, [this] {
    const std::int64_t t = wall_ns();
    slice_events_ = world_->tracer()->snapshot();
    world_->disable_tracing();
    obs_ns_ += wall_ns() - t;
  });
}

void WorkloadRun::on_restart(NodeId id) {
  single_->restart_node(id);
  if (!traced_) return;
  restart_time_ = world_->now();
  restarted_ = id;
  for (std::size_t i = 0; i < single_->agreement_size(); ++i) {
    const NodeId other = single_->agreement_ids()[i];
    if (other == id || single_->is_crashed(other)) continue;
    rejoin_target_ = std::max(rejoin_target_, single_->agreement(i).ordered_seq());
  }
  schedule_probe(world_->now() + kRejoinPoll, [this] { poll_rejoin(); });
}

void WorkloadRun::poll_rejoin() {
  const std::vector<NodeId> ids = single_->agreement_ids();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] != restarted_ || single_->is_crashed(ids[i])) continue;
    if (single_->agreement(i).ordered_seq() >= rejoin_target_) {
      rejoined_at_ = world_->now();
      return;
    }
  }
  if (world_->now() < measure_to_) {
    schedule_probe(world_->now() + kRejoinPoll, [this] { poll_rejoin(); });
  }
}

Snapshot WorkloadRun::snapshot() {
  Snapshot s;
  s.wall_ns = wall_ns();
  s.cpu_ns = cpu_ns();
  const EventQueue& q = world_->queue();
  s.fired = q.fired_total();
  s.scheduled = q.scheduled_total();
  s.cancelled = q.cancelled_total();
  s.probes_fired = probes_fired_;
  s.probes_scheduled = probes_scheduled_;
  s.checks = checks_;
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    s.retries += clients_[i]->retries();
    s.latency_sum_us += client_latency_[i]->sum();
    s.latency_count += client_latency_[i]->count();
  }
  s.wan_bytes = (sock_ ? static_cast<Transport&>(*sock_) : world_->net()).stats().wan_bytes;
  for (SpiderSystem* core : cores()) {
    const std::vector<NodeId> ag = core->agreement_ids();
    for (std::size_t i = 0; i < ag.size(); ++i) {
      if (core->is_crashed(ag[i])) continue;
      AgreementReplica& a = core->agreement(i);
      s.agreement[ag[i]] = NodeSample{a.busy_time(), a.busy_in(CpuCat::kCrypto),
                                      a.consensus().batches_proposed(),
                                      a.consensus().requests_proposed()};
    }
    for (GroupId g : core->group_ids()) {
      const std::vector<NodeId> members = core->group_info(g).members;
      for (std::size_t i = 0; i < members.size(); ++i) {
        if (core->is_crashed(members[i])) continue;
        ExecutionReplica& e = core->exec(g, i);
        s.exec[members[i]] = NodeSample{e.busy_time(), e.busy_in(CpuCat::kCrypto), 0, 0};
      }
    }
  }
  return s;
}

RunResult WorkloadRun::run() {
  setup_start_ns_ = wall_ns();
  build();
  schedule_probes(world_->now());
  run_wall0_ns_ = wall_ns();
  run_virtual0_ = world_->now();
  const load::OpenLoopResult res = runner_->run();
  const Snapshot closed = snapshot();

  // The whole history, warm-up and drain included, goes through the
  // linearizability checker after the window closed.
  double check_after_s = 0;
  if (history_) {
    const std::int64_t t = wall_ns();
    if (LinResult lin = check_kv_history(*history_); !lin) violation(lin.error);
    check_after_s = static_cast<double>(wall_ns() - t) * 1e-9;
  }

  digest_.arrivals = res.arrivals;
  digest_.completed = res.completed;
  digest_.runner_p50_us = res.p50_us;
  digest_.runner_p99_us = res.p99_us;
  digest_.runner_mean_us = res.mean_us;

  RunResult out;
  out.failed = res.incomplete() + wrong_replies_;
  if (traced_) {
    report_traced(out.report, res, closed, check_after_s);
  } else {
    report_plain(out.report, res, closed, out.failed);
  }
  const Clock count_clock = loopback() ? Clock::kWall : Clock::kSim;
  out.report.add("arrivals", static_cast<double>(res.arrivals), "count", count_clock);
  out.report.add("failed", static_cast<double>(out.failed), "count", count_clock);
  out.digest = std::move(digest_);
  out.violations = std::move(violations_);
  return out;
}

double WorkloadRun::outage_s() const {
  // Longest gap between ordered completions from the last one before the
  // crash to the end of the measure window.
  const Time crash = measure_from_ + spec_.crash_at;
  const std::vector<Time>& done = digest_.ordered_done;
  auto it = std::lower_bound(done.begin(), done.end(), crash);
  Time prev = it == done.begin() ? crash : *(it - 1);
  Duration longest = 0;
  for (; it != done.end() && *it <= measure_to_; ++it) {
    longest = std::max(longest, *it - prev);
    prev = *it;
  }
  return to_sec(std::max(longest, measure_to_ - prev));
}

void WorkloadRun::report_plain(Report& r, const load::OpenLoopResult& res,
                               const Snapshot& closed, std::uint64_t failed) {
  // Latency on the loopback deployment is real time; everywhere else it is
  // the simulator's modeled time.
  const Clock lat = loopback() ? Clock::kWall : Clock::kSim;
  r.add("setup_s", static_cast<double>(open_.wall_ns - setup_start_ns_) * 1e-9, "s",
        Clock::kWall);
  if (!loopback()) {
    r.add("wall_s", static_cast<double>(closed.wall_ns - open_.wall_ns) * 1e-9, "s",
          Clock::kWall);
  }
  r.add("cpu_s", static_cast<double>(closed.cpu_ns - open_.cpu_ns) * 1e-9, "s", Clock::kWall);
  r.add("peak_rss_mb", peak_rss_mb(), "MB", Clock::kWall);
  r.add("goodput_ops_s", res.goodput, "ops/s", lat, res.completed);
  r.add("failed_frac", ratio(static_cast<double>(failed), static_cast<double>(res.arrivals)),
        "frac", lat, res.arrivals);
  // Real-time p99s on the socket deployment vary by 15-45% between runs,
  // beyond any bound, so that workload reports medians and p90 only. p90 is
  // also the highest write percentile failover-rsa (~750 writes) supports.
  r.add_percentile("write_p50_ms", digest_.write_us, 500, lat);
  r.add_percentile("write_p90_ms", digest_.write_us, 900, lat);
  if (!loopback()) r.add_percentile("write_p99_ms", digest_.write_us, 990, lat);
  r.add_percentile("strong_p50_ms", digest_.strong_us, 500, lat);
  r.add_percentile("weak_p50_ms", digest_.weak_us, 500, lat);
  if (!loopback()) r.add_percentile("weak_p99_ms", digest_.weak_us, 990, lat);
  if (spec_.crash_at > 0) {
    r.add("outage_s", outage_s(), "s", Clock::kSim, digest_.ordered_done.size());
  }
}

void WorkloadRun::report_traced(Report& r, const load::OpenLoopResult& res,
                                const Snapshot& closed, double check_after_s) {
  const Clock count_clock = loopback() ? Clock::kWall : Clock::kSim;
  const double ops = static_cast<double>(std::max<std::uint64_t>(res.arrivals, 1));
  const double window_s = static_cast<double>(closed.wall_ns - open_.wall_ns) * 1e-9;
  const double measure_s = to_sec(measure_to_ - measure_from_);
  const LayerCounts& c = spans_.counts;
  auto per_op = [&](std::uint64_t count) { return static_cast<double>(count) / ops; };

  // ---- sim: the window's CPU time no decorator span covers (CPU, not wall,
  // so the loopback run's idle waits on the reactor do not count)
  double spanned_s = 0;
  for (std::size_t l = 0; l < kLayerCount; ++l) spanned_s += spans_.self_s(static_cast<Layer>(l));
  const std::uint64_t events =
      (closed.fired - open_.fired) - (closed.probes_fired - open_.probes_fired);
  const std::uint64_t scheduled =
      (closed.scheduled - open_.scheduled) - (closed.probes_scheduled - open_.probes_scheduled);
  const double window_cpu_s = static_cast<double>(closed.cpu_ns - open_.cpu_ns) * 1e-9;
  r.add("sim.self_s", window_cpu_s - spanned_s - static_cast<double>(obs_ns_) * 1e-9, "s",
        Clock::kWall);
  r.add("sim.events_per_op", per_op(events), "events/op", count_clock, res.arrivals);
  r.add("sim.cancel_frac",
        ratio(static_cast<double>(closed.cancelled - open_.cancelled),
              static_cast<double>(scheduled)),
        "frac", count_clock, scheduled);
  r.add("sim.events_per_wall_s", ratio(static_cast<double>(events), window_s), "1/s",
        Clock::kWall);

  // ---- crypto, app, net, load
  r.add("crypto.self_s", spans_.self_s(Layer::kCrypto), "s", Clock::kWall);
  r.add("crypto.sign_per_op", per_op(c.sign), "calls/op", count_clock, res.arrivals);
  r.add("crypto.verify_per_op", per_op(c.verify), "calls/op", count_clock, res.arrivals);
  r.add("crypto.mac_per_op", per_op(c.mac), "calls/op", count_clock, res.arrivals);
  if (c.sign > 0) {
    r.add("crypto.sign_us",
          static_cast<double>(c.sign_ns) / static_cast<double>(c.sign) / 1000.0, "us",
          Clock::kWall, c.sign);
  }
  r.add("app.self_s", spans_.self_s(Layer::kApp), "s", Clock::kWall);
  r.add("app.calls_per_op", per_op(c.app_calls), "calls/op", count_clock, res.arrivals);
  r.add("net.self_s", spans_.self_s(Layer::kNet), "s", Clock::kWall);
  r.add("net.msgs_per_op", per_op(c.net_msgs), "msgs/op", count_clock, res.arrivals);
  r.add("net.bytes_per_op", per_op(c.net_bytes), "B/op", count_clock, res.arrivals);
  r.add("net.wan_bytes_per_op", per_op(closed.wan_bytes - open_.wan_bytes), "B/op",
        count_clock, res.arrivals);
  r.add("load.self_s", spans_.self_s(Layer::kLoad), "s", Clock::kWall);
  r.add("load.max_queue_depth", static_cast<double>(res.max_queue_depth), "ops", count_clock);
  if (loopback()) r.add_percentile("load.lag_ms_p99", lag_us_, 990, Clock::kWall);

  // ---- consensus and execution: modeled CPU over the measure window
  auto base = [this](const std::map<NodeId, NodeSample>& at_open, NodeId id) {
    auto it = at_open.find(id);
    return it == at_open.end() || id == restarted_ ? NodeSample{} : it->second;
  };
  std::uint64_t batches = 0;
  std::uint64_t requests = 0;
  for (const auto& [id, s] : closed.agreement) {
    const NodeSample b = base(open_.agreement, id);
    batches += s.batches - b.batches;
    requests += s.requests - b.requests;
  }
  r.add("consensus.ops_per_batch",
        ratio(static_cast<double>(requests), static_cast<double>(batches)), "ops/batch",
        count_clock, batches);
  std::uint64_t view_changes = 0;
  for (SpiderSystem* core : cores()) {
    ViewNr view = 0;
    const std::vector<NodeId> ids = core->agreement_ids();
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (!core->is_crashed(ids[i])) view = std::max(view, core->agreement(i).consensus().view());
    }
    view_changes += view;
  }
  r.add("consensus.view_changes", static_cast<double>(view_changes), "count", count_clock);
  Duration leader_busy = 0;
  Duration leader_crypto = 0;
  for (const auto& [id, s] : measured_.agreement) {
    const NodeSample b = base(open_.agreement, id);
    if (s.busy - b.busy > leader_busy) {
      leader_busy = s.busy - b.busy;
      leader_crypto = s.crypto - b.crypto;
    }
  }
  r.add("consensus.leader_busy_frac", to_sec(leader_busy) / measure_s, "frac", count_clock);
  r.add("consensus.leader_crypto_frac",
        ratio(static_cast<double>(leader_crypto), static_cast<double>(leader_busy)), "frac",
        count_clock);
  if (restart_time_ >= 0 && rejoined_at_ >= 0) {
    r.add("consensus.rejoin_s", to_sec(rejoined_at_ - restart_time_), "s", Clock::kSim);
  }
  Duration exec_busy = 0;
  for (const auto& [id, s] : measured_.exec) {
    exec_busy = std::max(exec_busy, s.busy - base(open_.exec, id).busy);
  }
  r.add("spider.exec_busy_frac_max", to_sec(exec_busy) / measure_s, "frac", count_clock);
  r.add("spider.retransmits_per_kop", per_op(closed.retries - open_.retries) * 1000.0,
        "retries/kop", count_clock, res.arrivals);

  // ---- stages, stitched from the trace slice
  const Clock stage_clock = loopback() ? Clock::kWall : Clock::kSim;
  const StageSamples st = stitch_stages(slice_events_, group_of_);
  r.add_latency("stage.to_exec", st.to_exec, stage_clock);
  r.add_latency("stage.order", st.order, stage_clock);
  r.add_latency("stage.commit_channel", st.commit_channel, stage_clock);
  r.add_latency("stage.reply", st.reply, stage_clock);
  r.add_latency("stage.weak_exec", st.weak_exec, stage_clock);
  r.add_latency("stage.weak_reply", st.weak_reply, stage_clock);
  if (!st.to_exec.empty()) {
    const double stage_sum_ms = (mean_us(st.to_exec) + mean_us(st.order) +
                                 mean_us(st.commit_channel) + mean_us(st.reply)) /
                                1000.0;
    const double client_ms =
        ratio(static_cast<double>(closed.latency_sum_us - open_.latency_sum_us),
              static_cast<double>(closed.latency_count - open_.latency_count)) /
        1000.0;
    r.add("stage.sum_ms", stage_sum_ms, "ms", stage_clock, st.to_exec.size());
    r.add("stage.client_ordered_mean_ms", client_ms, "ms", stage_clock,
          closed.latency_count - open_.latency_count);
    r.add("stage.sum_vs_client", ratio(stage_sum_ms, client_ms), "ratio", stage_clock);
  }

  // ---- checking and observation
  r.add("check.self_s", spans_.self_s(Layer::kCheck) + check_after_s, "s", Clock::kWall);
  r.add("check.ops", static_cast<double>(closed.checks - open_.checks), "count", count_clock);
  r.add("obs.trace_events", static_cast<double>(slice_events_.size()), "count", count_clock);
  r.add("obs.trace_dropped_reqs", static_cast<double>(st.dropped), "count", count_clock);
  r.add("obs.cpu_s", window_cpu_s, "s", Clock::kWall);
}

}  // namespace

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> all = make_workloads();
  return all;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

RunResult run_workload(const WorkloadSpec& spec, std::uint64_t seed, Mode mode) {
  RunResult out = WorkloadRun(spec, seed, mode).run();
  if (!spec.capacity_search || mode != Mode::kPlain) return out;

  // Bisection over fresh deployments of the same seed; each probe is a
  // shorter open-loop run at one offered rate.
  double lo = kCapacityLo;
  double hi = kCapacityHi;
  for (int i = 0; i < kCapacityProbes; ++i) {
    WorkloadSpec probe = spec;
    probe.capacity_search = false;
    probe.profile.rate = (lo + hi) / 2;
    probe.profile.measure = 5 * kSecond;
    probe.profile.drain = kSecond;
    RunResult r = WorkloadRun(probe, seed, Mode::kPlain).run();
    out.violations.insert(out.violations.end(), r.violations.begin(), r.violations.end());
    const SimDigest& d = r.digest;
    const bool meets =
        nearest_rank(d.write_us, 990) <= static_cast<std::uint64_t>(kSloP99) &&
        static_cast<double>(d.completed) >= kSloCompletion * static_cast<double>(d.arrivals);
    (meets ? lo : hi) = probe.profile.rate;
  }
  out.report.add("capacity_ops_s", lo, "ops/s", Clock::kSim, kCapacityProbes);
  return out;
}

}  // namespace spider::bench
