// The four workloads and the traced run. Each fills a RunResult with
// its end-to-end metrics (or, traced, the per-layer table), its
// operation counts and its check verdicts. README.md says why each
// workload exists and what its metrics mean.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "reference.hpp"

namespace perfbench {

struct Options {
  std::string daemon;    ///< bfly_serviced executable
  std::string work_dir;  ///< scratch space for cache dirs and traces
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  Clock::time_point process_start;
};

void run_serve_cold(const Options& opt, RunResult& out);
void run_serve_warm(const Options& opt, RunResult& out);
void run_route_sim(const Options& opt, RunResult& out);
void run_certify(const Options& opt, RunResult& out);
/// Replays every workload's inputs once with spans around each call into
/// a layer, writes the Chrome trace and fills the per-layer table.
void run_traced(const Options& opt, RunResult& out);

/// Runs `round` once, then again while another round of the last one's
/// length still fits in `seconds`. Each round runs on the next usable CPU
/// (rotate_cpu). Returns the rounds run.
template <class F>
int run_rounds(double seconds, F&& round) {
  const Clock::time_point t0 = Clock::now();
  int rounds = 0;
  double last = 0.0;
  do {
    rotate_cpu(rounds);
    const Clock::time_point r0 = Clock::now();
    round(rounds);
    last = seconds_since(r0);
    ++rounds;
  } while (seconds_since(t0) + last <= seconds);
  return rounds;
}

// --- inputs shared by the serve workloads and the traced replay ------

/// BW instances branch-and-bound closes well inside the 30 s default
/// deadline (serve_cold's exact policy).
[[nodiscard]] const std::vector<ref::Instance>& exact_instances();
/// Mid-size BW instances answered under heuristic policy.
[[nodiscard]] const std::vector<ref::Instance>& heuristic_instances();
/// `count` masks on `inst` with pairwise distinct popcounts (fixed,
/// around half the nodes; positions from the seed), so no two share an
/// orbit under any automorphism.
[[nodiscard]] std::vector<std::uint64_t> distinct_orbit_masks(
    const ref::Instance& inst, std::size_t count, Rng& rng);
/// The image of `mask` under a random automorphism the benchmark applies
/// itself (column XOR on B/W/CCC, bit permutation plus XOR on Q).
[[nodiscard]] std::uint64_t random_image(const ref::Instance& inst,
                                         std::uint64_t mask, Rng& rng);
[[nodiscard]] std::string bw_line(const ref::Instance& inst, bool exact,
                                  const std::string& id);
[[nodiscard]] std::string boundary_line(const ref::Instance& inst,
                                        std::uint64_t mask,
                                        const std::string& id);

/// serve_warm's BW priming set: each instance with the policy it is
/// primed and later asked with (an exact entry also serves heuristic
/// lookups, a heuristic one never serves an exact lookup).
[[nodiscard]] const std::vector<std::pair<ref::Instance, bool>>&
warm_bw_set();

/// A BOUNDARY mask pool: `pool` distinct-orbit masks primed, then
/// `per_round` stream queries per round, each the image of a pool mask
/// (every pool mask equally often) under a random automorphism.
struct PoolSpec {
  ref::Instance inst;
  std::size_t pool = 0;
  std::size_t per_round = 0;
};
/// serve_warm phase 2: every BOUNDARY family but Q64 (automorphism
/// groups of at most 3840 elements).
[[nodiscard]] const std::vector<PoolSpec>& warm_small_pools();
/// serve_warm phase 3: Q64, whose group has 46080 elements.
[[nodiscard]] const PoolSpec& warm_q64_pool();

/// Per-process selfcheck (main.cpp --selfcheck): every output check is
/// fed a corrupted program output and must reject it. Returns the exit
/// code (0 = every check was seen to fail).
int run_selfcheck(const Options& opt);

}  // namespace perfbench
