// Micro-benchmark: zero-copy multicast serialization vs the naive-copy
// reference path.
//
// Models what the transport hot path does for one multicast of a B-byte
// body to R recipients:
//   naive: per recipient, wrap [tag][body] with a fresh growing Writer
//          (the send path before the zero-copy Payload), hand the copy to
//          the recipient, and hash the body again on arrival.
//   fast:  serialize the frame once into a refcounted Payload with a
//          size-hinted Writer, bump a refcount per recipient, and reuse
//          the memoized digest.
// The naive path is retained here as the reference the CI perf-smoke gate
// compares against (expected >= 3x, gated at --gate <x>, default off).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/payload.hpp"
#include "common/serde.hpp"
#include "crypto/sha256.hpp"

namespace spider::bench {
namespace {

constexpr std::uint32_t kTag = 0x02000001;
constexpr std::size_t kRecipients = 8;
constexpr std::size_t kBodyBytes = 1024;
constexpr std::size_t kRounds = 20000;
constexpr std::uint64_t kSeed = 99;

double now_s() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

Bytes make_body(std::uint64_t round) {
  Bytes b(kBodyBytes);
  std::uint64_t x = kSeed + round * 0x9e3779b97f4a7c15ULL;
  for (std::size_t i = 0; i < b.size(); ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b[i] = static_cast<std::uint8_t>(x);
  }
  return b;
}

/// Pre-optimisation path: copy + re-wrap + re-hash per recipient.
std::uint64_t run_naive() {
  std::uint64_t sink = 0;
  for (std::size_t round = 0; round < kRounds; ++round) {
    Bytes body = make_body(round);
    for (std::size_t r = 0; r < kRecipients; ++r) {
      Writer w;  // no reserve: doubling growth, as the old wrap path
      w.u32(kTag);
      w.raw(body);
      Bytes wire = std::move(w).take();          // per-recipient allocation
      Bytes delivered = wire;                    // per-recipient in-flight copy
      Sha256Digest d = Sha256::hash(BytesView(delivered).subspan(4));  // re-hash per hop
      sink += digest_prefix(d) + delivered.size();
    }
  }
  return sink;
}

/// Zero-copy path: one frame, shared refcount, memoized digest.
std::uint64_t run_fast() {
  std::uint64_t sink = 0;
  for (std::size_t round = 0; round < kRounds; ++round) {
    Bytes body = make_body(round);
    Writer w(4 + body.size());
    w.u32(kTag);
    w.raw(body);
    Payload wire(std::move(w));
    for (std::size_t r = 0; r < kRecipients; ++r) {
      Payload delivered = wire;  // refcount bump, no copy
      Sha256Digest d = delivered.digest_of(delivered.view().subspan(4));  // memoized
      sink += digest_prefix(d) + delivered.size();
    }
  }
  return sink;
}

}  // namespace
}  // namespace spider::bench

int main(int argc, char** argv) {
  using namespace spider::bench;
  double gate = 0.0;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--gate" && i + 1 < argc) gate = std::atof(argv[i + 1]);
  }

  const double total_mb = static_cast<double>(kRounds * kRecipients * kBodyBytes) / 1e6;

  // Warm-up + checksum equivalence (the two paths must do the same work).
  std::uint64_t a = run_naive();
  std::uint64_t b = run_fast();
  if (a != b) {
    std::printf("FAIL: paths disagree (naive checksum %llu, fast %llu)\n",
                static_cast<unsigned long long>(a), static_cast<unsigned long long>(b));
    return 1;
  }

  double t0 = now_s();
  run_naive();
  double naive_s = now_s() - t0;
  t0 = now_s();
  run_fast();
  double fast_s = now_s() - t0;

  double naive_mbps = total_mb / naive_s;
  double fast_mbps = total_mb / fast_s;
  double speedup = naive_s / fast_s;
  std::printf("multicast serialize+deliver, %zu recipients x %zu B x %zu rounds\n", kRecipients,
              kBodyBytes, kRounds);
  std::printf("  naive-copy reference: %8.1f MB/s\n", naive_mbps);
  std::printf("  zero-copy payload:    %8.1f MB/s\n", fast_mbps);
  std::printf("  speedup:              %8.2fx\n", speedup);


  if (gate > 0.0 && speedup < gate) {
    std::printf("FAIL: speedup %.2fx below gate %.2fx\n", speedup, gate);
    return 1;
  }
  if (gate > 0.0) std::printf("OK: speedup %.2fx >= gate %.2fx\n", speedup, gate);
  return 0;
}
