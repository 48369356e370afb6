// Workloads of the MAGE benchmark.
//
// An episode builds one federation from the seed, drains a fixed closed-
// loop workload on it and checks the outputs.  Every input of an episode
// is a function of the seed, so two episodes of one seed do identical
// simulated work: their Ledger (every count, every delivery digest and
// every simulated-time metric) must match exactly, at any worker count.
// A run repeats episodes for a wall-clock budget; only wall-clock
// observations differ between them.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// The deterministic outcome of one episode.
struct Ledger {
  // Every counter of the simulation's stats registries (summed over
  // shards) plus the benchmark's own counts ("bench.*").
  std::map<std::string, std::int64_t> counts;
  // Delivery-order digests: one per receiving node on the echo meshes,
  // one per component on `mobile`.
  std::vector<std::uint64_t> digests;
  // Simulated-time metrics, in microseconds.
  std::map<std::string, double> sim;

  bool operator==(const Ledger&) const = default;
};

struct Episode {
  Ledger ledger;
  std::int64_t attempted = 0;  // calls issued
  std::int64_t completed = 0;  // calls that returned a result
  std::int64_t failed = 0;     // calls that returned an error
  double setup_s = 0;          // federation build up to the first timed call
  double run_s = 0;            // wall time of the timed region
  double cpu_s = 0;            // user + system CPU over the timed region
  std::uint64_t allocations = 0;  // traced build: heap allocations, timed
  std::vector<std::int64_t> round_gaps_ns;  // traced build: between
                                            // run_until predicate checks
  std::vector<std::string> errors;          // failed output checks
};

// A workload runs one episode of `seed` on `workers` sim workers.
using EpisodeFn = Episode (*)(std::uint64_t seed, int workers);

Episode run_storm(std::uint64_t seed, int workers);
Episode run_wan(std::uint64_t seed, int workers);
Episode run_mobile(std::uint64_t seed, int workers);
// `mobile` with sessions also placed on the synchronous caller's node: a
// reproducer for the MageClient local-fast-path defect, not a benchmark
// workload.
Episode run_mobile_lpc(std::uint64_t seed, int workers);

// --- helpers shared by the workloads -----------------------------------------

// Linear-interpolated percentile (p in [0, 1]) of `v`; reorders `v`.
double percentile(std::vector<std::int64_t>& v, double p);

// CPU seconds consumed by the process (all threads) so far.
double cpu_seconds();

// The process-wide wire counters: Envelope headers encoded on the
// single-fragment fast path and on the list path, and serial::Buffer deep
// copies.  Reset before an episode's timed region; recorded into its
// ledger as bench.* counts after it.
void reset_wire_counters();
void record_wire_counters(Ledger& lg);

// FNV-1a fold of one delivery into an order digest.
inline std::uint64_t fold_digest(std::uint64_t digest, std::uint64_t a,
                                 std::uint64_t b) {
  constexpr std::uint64_t kPrime = 0x100000001B3ull;
  digest = (digest ^ a) * kPrime;
  digest = (digest ^ b) * kPrime;
  return digest;
}

inline constexpr std::uint64_t kDigestSeed = 0xcbf29ce484222325ull;

}  // namespace perfbench
