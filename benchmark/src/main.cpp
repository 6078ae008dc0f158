// spider_bench: one measured run of one benchmark workload.
//
//   spider_bench --workload NAME --seed N [--trace]
//       Plain runs print end-to-end metrics; --trace runs print per-layer
//       metrics. One JSON object per line:
//       {"workload", "metric", "value", "unit", "clock": "sim"|"wall", "n"}.
//       Exits 1 when a reply fails its correctness check.
//   spider_bench --selftest
//       Runs shortened simulated workloads plain, traced, and plain again
//       with the same seed; exits 1 unless all three simulated histories
//       are identical.
//   spider_bench --list      workload names, one per line
//   spider_bench --host      host fingerprint as one JSON object
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "workloads.hpp"

namespace {

using namespace spider;
using namespace spider::bench;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N [--trace]\n"
               "       %s --selftest | --list | --host\n",
               argv0, argv0);
  return 2;
}

bool cpu_has_sha_ni() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("flags", 0) == 0) return line.find(" sha_ni") != std::string::npos;
  }
  return false;
}

int print_host() {
#if defined(__clang__)
  const char* compiler = "clang " __clang_version__;
#else
  const char* compiler = "gcc " __VERSION__;
#endif
  std::printf("{\"nproc\": %u, \"sha_ni\": %s, \"compiler\": \"%s\", \"build_type\": \"%s\"}\n",
              std::thread::hardware_concurrency(), cpu_has_sha_ni() ? "true" : "false",
              compiler, SPIDER_BENCH_BUILD_TYPE);
  return 0;
}

int run_one(const WorkloadSpec& spec, std::uint64_t seed, bool trace) {
  const RunResult r = run_workload(spec, seed, trace ? Mode::kTraced : Mode::kPlain);
  std::fputs(r.report.json_lines(spec.name).c_str(), stdout);
  for (const std::string& v : r.violations) {
    std::fprintf(stderr, "%s seed %llu: %s\n", spec.name.c_str(),
                 static_cast<unsigned long long>(seed), v.c_str());
  }
  return r.violations.empty() ? 0 : 1;
}

/// Shortened copy of a simulated workload for the self-test.
WorkloadSpec shortened(WorkloadSpec spec) {
  spec.capacity_search = false;
  spec.profile.warmup = kSecond / 2;
  spec.profile.measure = spec.deployment == Deployment::kShard4 ? kSecond / 2 : 2 * kSecond;
  spec.profile.drain = 2 * kSecond;
  spec.slice_offset = kSecond / 4;
  spec.slice = kSecond / 4;
  if (spec.crash_at > 0) {
    spec.crash_at = kSecond / 2;
    spec.restart_after = kSecond;
  }
  return spec;
}

int selftest() {
  constexpr std::uint64_t kSeed = 7;
  bool ok = true;
  for (const WorkloadSpec& full : workloads()) {
    if (full.deployment == Deployment::kLoopback) continue;  // real time: not replayable
    const WorkloadSpec spec = shortened(full);
    const RunResult plain = run_workload(spec, kSeed, Mode::kPlain);
    const RunResult traced = run_workload(spec, kSeed, Mode::kTraced);
    const RunResult again = run_workload(spec, kSeed, Mode::kPlain);
    const bool transparent = plain.digest == traced.digest;
    const bool replayable = plain.digest == again.digest;
    const bool correct = plain.violations.empty() && traced.violations.empty();
    std::printf("selftest %-13s arrivals=%llu completed=%llu traced=%s replay=%s checks=%s\n",
                spec.name.c_str(), static_cast<unsigned long long>(plain.digest.arrivals),
                static_cast<unsigned long long>(plain.digest.completed),
                transparent ? "identical" : "DIFFERENT", replayable ? "identical" : "DIFFERENT",
                correct ? "pass" : "FAIL");
    ok = ok && transparent && replayable && correct && plain.digest.completed > 0;
  }
  std::printf("selftest %s\n", ok ? "passed" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--selftest") == 0) return selftest();
    if (std::strcmp(argv[i], "--host") == 0) return print_host();
    if (std::strcmp(argv[i], "--list") == 0) {
      for (const WorkloadSpec& w : workloads()) std::printf("%s\n", w.name.c_str());
      return 0;
    }
    if (std::strcmp(argv[i], "--trace") == 0) {
      trace = true;
    } else if (std::strcmp(argv[i], "--workload") == 0 && i + 1 < argc) {
      workload = argv[++i];
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      char* end = nullptr;
      seed = std::strtoull(argv[++i], &end, 10);
      if (*end != '\0') return usage(argv[0]);
    } else {
      return usage(argv[0]);
    }
  }
  const WorkloadSpec* spec = find_workload(workload);
  if (spec == nullptr) return usage(argv[0]);
  return run_one(*spec, seed, trace);
}
