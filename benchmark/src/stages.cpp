#include "stages.hpp"

#include <cstring>

namespace spider::bench {

namespace {

constexpr Time kUnset = -1;

struct Milestones {
  Time begin = kUnset;
  Time forward = kUnset;
  Time ordered = kUnset;
  Time execute = kUnset;
  Time weak_exec = kUnset;
  Time end = kUnset;
  bool weak = false;
  bool fallback = false;  // direct read re-issued as an ordered request
};

bool same(const char* a, const char* b) { return a != nullptr && std::strcmp(a, b) == 0; }

void first(Time& slot, Time ts) {
  if (slot == kUnset) slot = ts;
}

/// Inverse of obs::request_id for client ids below 2^31.
NodeId client_of(std::uint64_t request_id) {
  return static_cast<NodeId>((request_id & ~(1ull << 63)) >> 32);
}

bool ordered_in_time(std::initializer_list<Time> ts) {
  Time prev = kUnset;
  for (Time t : ts) {
    if (t == kUnset || t < prev) return false;
    prev = t;
  }
  return true;
}

std::uint64_t gap(Time from, Time to) { return static_cast<std::uint64_t>(to - from); }

}  // namespace

StageSamples stitch_stages(const std::vector<obs::TraceEvent>& events,
                           const std::unordered_map<NodeId, GroupId>& group_of) {
  std::unordered_map<std::uint64_t, Milestones> reqs;
  for (const obs::TraceEvent& ev : events) {
    if (!same(ev.cat, "request")) continue;
    Milestones& m = reqs[ev.id];
    switch (ev.ph) {
      case obs::Ph::kAsyncBegin:
        m.begin = ev.ts;
        m.weak = same(ev.name, "direct");
        break;
      case obs::Ph::kAsyncEnd:
        m.end = ev.ts;
        m.fallback = same(ev.k0, "fallback");
        break;
      case obs::Ph::kAsyncInstant:
        if (same(ev.name, "forward")) {
          first(m.forward, ev.ts);
        } else if (same(ev.name, "ordered")) {
          first(m.ordered, ev.ts);
        } else if (same(ev.name, "weak-exec")) {
          first(m.weak_exec, ev.ts);
        } else if (same(ev.name, "execute")) {
          auto replica = group_of.find(ev.node);
          auto client = group_of.find(client_of(ev.id));
          if (replica != group_of.end() && client != group_of.end() &&
              replica->second == client->second) {
            first(m.execute, ev.ts);
          }
        }
        break;
      default:
        break;
    }
  }

  StageSamples out;
  for (const auto& [id, m] : reqs) {
    if (m.weak) {
      if (m.fallback || !ordered_in_time({m.begin, m.weak_exec, m.end})) {
        ++out.dropped;
        continue;
      }
      out.weak_exec.push_back(gap(m.begin, m.weak_exec));
      out.weak_reply.push_back(gap(m.weak_exec, m.end));
    } else {
      if (!ordered_in_time({m.begin, m.forward, m.ordered, m.execute, m.end})) {
        ++out.dropped;
        continue;
      }
      out.to_exec.push_back(gap(m.begin, m.forward));
      out.order.push_back(gap(m.forward, m.ordered));
      out.commit_channel.push_back(gap(m.ordered, m.execute));
      out.reply.push_back(gap(m.execute, m.end));
    }
  }
  return out;
}

}  // namespace spider::bench
