// Shared deadline-bounded drive loops for examples and tests.
//
// Replaces the hand-rolled `while (!done && now < deadline) run_next()`
// loops that used to be copy-pasted across examples and test fixtures —
// and fixes their two latent bugs: the old loops spun forever if the event
// queue drained with the predicate still false, and their callbacks
// captured stack locals that died when the helper timed out. Outcome
// state lives behind a shared_ptr here, so a late completion after a
// timeout writes into live memory.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "app/kvstore.hpp"
#include "sim/world.hpp"

namespace spider::drive {

/// Runs the event loop until `pred()` holds, the deadline passes, or the
/// queue drains. Returns the final predicate value.
template <class Pred>
bool run_until(World& world, Pred&& pred, Duration timeout = 60 * kSecond) {
  const Time deadline = world.now() + timeout;
  while (!pred() && world.now() < deadline) {
    if (!world.queue().run_next()) break;  // queue drained: nothing will change
  }
  return pred();
}

struct KvOutcome {
  bool done = false;  // false: helper timed out before the reply quorum
  bool ok = false;
  Bytes value;
  Duration latency = 0;
};

namespace detail {
template <class Issue>
KvOutcome blocking_kv(World& world, Issue&& issue, Duration timeout) {
  auto out = std::make_shared<KvOutcome>();
  issue([out](Bytes reply, Duration lat) {
    KvReply r = kv_decode_reply(reply);
    out->done = true;
    out->ok = r.ok;
    out->value = std::move(r.value);
    out->latency = lat;
  });
  run_until(world, [&] { return out->done; }, timeout);
  return *out;
}
}  // namespace detail

/// Blocking KV helpers over any client exposing write/strong_read/weak_read
/// (SpiderClient, baseline clients, ShardedClient).
template <class Client>
KvOutcome blocking_write(World& world, Client& client, const std::string& key,
                         const std::string& value, Duration timeout = 60 * kSecond) {
  return detail::blocking_kv(
      world,
      [&](auto cb) { client.write(kv_put(key, to_bytes(value)), std::move(cb)); }, timeout);
}

template <class Client>
KvOutcome blocking_strong_read(World& world, Client& client, const std::string& key,
                               Duration timeout = 60 * kSecond) {
  return detail::blocking_kv(
      world, [&](auto cb) { client.strong_read(kv_get(key), std::move(cb)); }, timeout);
}

template <class Client>
KvOutcome blocking_weak_read(World& world, Client& client, const std::string& key,
                             Duration timeout = 60 * kSecond) {
  return detail::blocking_kv(
      world, [&](auto cb) { client.weak_read(kv_get(key), std::move(cb)); }, timeout);
}

/// A closed-loop client: `n` writes to distinct keys, each issued from the
/// previous write's completion callback. Runs until the last completes (or
/// `timeout`) and returns how many completed.
template <class Client>
int closed_loop_writes(World& world, Client& client, int n, Duration timeout = 60 * kSecond) {
  int done = 0;
  std::function<void()> next = [&] {
    client.write(kv_put("loop" + std::to_string(done), to_bytes(std::string("v"))),
                 [&](Bytes, Duration) {
                   if (++done < n) next();
                 });
  };
  next();
  run_until(world, [&] { return done == n; }, timeout);
  return done;
}

}  // namespace spider::drive
