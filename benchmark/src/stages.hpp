// Simulated per-stage latency, stitched from the program's own request
// milestones in a trace slice.
//
// Clients, execution replicas and agreement replicas already tag their
// trace events with request_id(client, counter). An ordered request passes
//
//   begin (client) -> forward (exec group) -> ordered (agreement)
//     -> execute (client's exec group) -> end (client)
//
// and a weak read begin -> weak-exec -> end. Each stage is the gap between
// the first occurrence of consecutive milestones, so the stages of one
// request sum to its client-side service time. Requests whose milestones
// straddle the slice edges are dropped and counted.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/ids.hpp"
#include "obs/trace.hpp"

namespace spider::bench {

struct StageSamples {
  // Stage durations in simulated microseconds, one entry per stitched request.
  std::vector<std::uint64_t> to_exec;         ///< begin -> forward
  std::vector<std::uint64_t> order;           ///< forward -> ordered
  std::vector<std::uint64_t> commit_channel;  ///< ordered -> execute
  std::vector<std::uint64_t> reply;           ///< execute -> end
  std::vector<std::uint64_t> weak_exec;       ///< begin -> weak-exec
  std::vector<std::uint64_t> weak_reply;      ///< weak-exec -> end
  std::uint64_t dropped = 0;  ///< requests cut by the slice edges
};

/// `group_of` maps every client and execution replica to its execution
/// group, so `execute` is taken from the group that answers the client.
StageSamples stitch_stages(const std::vector<obs::TraceEvent>& events,
                           const std::unordered_map<NodeId, GroupId>& group_of);

}  // namespace spider::bench
