// Chaos-test harness: recorded KV workloads over any client type.
//
// A workload is scheduled up front — every (client, op, key, value, time)
// tuple is drawn from a fork of the World RNG before the run starts — so a
// scenario is a pure function of its seed: same seed, same fault schedule,
// same workload, byte-identical recorded history.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "check/kv_recorder.hpp"
#include "tests/support/drive.hpp"

namespace spider::chaos {

/// Type-erased recording client: lets one workload driver serve
/// SpiderClient (Spider + baselines) and ShardedClient alike.
struct ClientHandle {
  std::function<void(const std::string& key, const std::string& value)> put;
  std::function<void(const std::string& key)> strong_get;
  std::function<void(const std::string& key)> weak_get;

  template <class Client>
  static ClientHandle wrap(HistoryRecorder& hist, Client& c, std::uint64_t client_id) {
    ClientHandle h;
    h.put = [&hist, &c, client_id](const std::string& key, const std::string& value) {
      recorded(hist, c, client_id, HistOp::Put, key, value);
    };
    h.strong_get = [&hist, &c, client_id](const std::string& key) {
      recorded(hist, c, client_id, HistOp::StrongGet, key);
    };
    h.weak_get = [&hist, &c, client_id](const std::string& key) {
      recorded(hist, c, client_id, HistOp::WeakGet, key);
    };
    return h;
  }

  /// ShardedClient variant: ops go through ShardedClient::fire so the
  /// serving shard is attributed in the recorded history.
  template <class Client>
  static ClientHandle wrap_routed(HistoryRecorder& hist, Client& c,
                                  std::uint64_t client_id) {
    ClientHandle h;
    h.put = [&hist, &c, client_id](const std::string& key, const std::string& value) {
      recorded_routed(hist, c, client_id, HistOp::Put, key, value);
    };
    h.strong_get = [&hist, &c, client_id](const std::string& key) {
      recorded_routed(hist, c, client_id, HistOp::StrongGet, key);
    };
    h.weak_get = [&hist, &c, client_id](const std::string& key) {
      recorded_routed(hist, c, client_id, HistOp::WeakGet, key);
    };
    return h;
  }
};

struct WorkloadOptions {
  std::size_t ops_per_client = 12;
  Duration mean_gap = 700 * kMillisecond;  // think time between submissions
  Time start = 200 * kMillisecond;
  // Mix: puts get unique values "c<client>-<n>" so the linearizability
  // witness is unambiguous.
  std::uint32_t put_pct = 50;
  std::uint32_t strong_get_pct = 25;  // remainder: weak gets
};

/// Pre-schedules the whole workload on the event queue. `clients` and the
/// recorder behind the handles must outlive the run.
inline void schedule_workload(World& world, std::vector<ClientHandle> clients,
                              const std::vector<std::string>& keys,
                              const WorkloadOptions& opt) {
  Rng rng = world.rng().fork();
  auto shared_clients =
      std::make_shared<std::vector<ClientHandle>>(std::move(clients));
  for (std::size_t c = 0; c < shared_clients->size(); ++c) {
    Time at = world.now() + opt.start;
    for (std::size_t n = 0; n < opt.ops_per_client; ++n) {
      at += static_cast<Duration>(opt.mean_gap / 2 + rng.uniform(opt.mean_gap));
      std::uint32_t kind = static_cast<std::uint32_t>(rng.uniform(100));
      std::string key = keys[rng.uniform(keys.size())];  // resolved at schedule time
      std::string value = "c" + std::to_string(c) + "-" + std::to_string(n);
      world.queue().schedule_at(
          at, [shared_clients, c, kind, key = std::move(key), value = std::move(value),
               put_pct = opt.put_pct, sget_pct = opt.strong_get_pct] {
            const ClientHandle& h = (*shared_clients)[c];
            if (kind < put_pct) {
              h.put(key, value);
            } else if (kind < put_pct + sget_pct) {
              h.strong_get(key);
            } else {
              h.weak_get(key);
            }
          });
    }
  }
}

/// Default key pool: small enough that keys see real write contention,
/// large enough that per-key strong histories stay search-friendly.
inline std::vector<std::string> key_pool(std::size_t n = 6) {
  std::vector<std::string> keys;
  for (std::size_t i = 0; i < n; ++i) keys.push_back("k" + std::to_string(i));
  return keys;
}

}  // namespace spider::chaos
