// The benchmark's workloads and the run that measures one of them.
//
// Every workload is open-loop Poisson arrivals from load::OpenLoopRunner
// over 4096 keys with ~200-byte requests; each op is timed from its
// scheduled arrival (sojourn). The run drives the program through public
// APIs only and checks every reply it gets back.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "load/workload.hpp"
#include "report.hpp"

namespace spider::bench {

enum class Deployment {
  kGeo,       ///< paper deployment: agreement in Virginia, exec groups V/O/I/T
  kShard4,    ///< four short-WAN cores behind sharded routers
  kLoopback,  ///< one short-WAN core on real sockets, driven in real time
};

struct WorkloadSpec {
  std::string name;
  Deployment deployment = Deployment::kGeo;
  load::OpenLoopProfile profile;
  std::uint64_t max_batch = 1;
  bool real_crypto = false;  ///< RealCrypto RSA-512 instead of FastCrypto
  /// Crash the view-0 primary this long into the measure window and restart
  /// it `restart_after` later; the whole history is checked for
  /// linearizability. Zero = no fault.
  Duration crash_at = 0;
  Duration restart_after = 0;
  bool capacity_search = false;  ///< bisect the highest rate meeting the SLO
  Duration slice_offset = kSecond;  ///< trace slice start, from measure start
  Duration slice = 2 * kSecond;     ///< trace slice length
};

const std::vector<WorkloadSpec>& workloads();
const WorkloadSpec* find_workload(const std::string& name);

/// Plain runs report end-to-end metrics. Traced runs install the timing
/// decorators, record a trace slice and report per-layer metrics; their
/// simulated history is identical to the plain run's.
enum class Mode { kPlain, kTraced };

/// Everything the simulated clock produced, for --selftest comparisons.
struct SimDigest {
  std::uint64_t arrivals = 0;
  std::uint64_t completed = 0;
  std::uint64_t runner_p50_us = 0;
  std::uint64_t runner_p99_us = 0;
  double runner_mean_us = 0;
  /// In-window sojourns per class, in completion order.
  std::vector<std::uint64_t> write_us, strong_us, weak_us;
  /// Completion times of every ordered op (writes and strong reads).
  std::vector<Time> ordered_done;

  bool operator==(const SimDigest&) const = default;
};

struct RunResult {
  Report report;
  SimDigest digest;
  std::uint64_t failed = 0;             ///< incomplete in-window ops + wrong replies
  std::vector<std::string> violations;  ///< wrong replies and checker verdicts
};

RunResult run_workload(const WorkloadSpec& spec, std::uint64_t seed, Mode mode);

}  // namespace spider::bench
