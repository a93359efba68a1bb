// The output checks. Each compares one program output with a fact the
// benchmark established itself (reference.hpp) and records the verdict
// in a CheckLog. They take plain values so that --selfcheck can feed
// every one of them a corrupted value and show that it fails.
#pragma once

#include <cstdint>
#include <string>

#include "common.hpp"
#include "reference.hpp"

namespace perfbench {

/// One parsed response line of the daemon.
struct Reply {
  bool ok = false;
  std::string id;
  std::string key;     ///< 16 hex digits of the canonical key
  std::uint64_t value = 0;
  bool exact = false;
  std::string source;  ///< memory, disk, computed, coalesced
  double ms = 0.0;     ///< the daemon's own admission-to-response time
};

/// Parses "OK id=.. key=.. value=.. exact=.. source=.. ms=.." or
/// "ERR id=.. status=.. detail=..". False on anything else.
bool parse_reply(const std::string& line, Reply& out);

/// A BW answer. Exact-policy answers must carry exact=1 and equal the
/// closed form (Bn: above 2(sqrt 2 - 1)n and at most the column cut);
/// heuristic answers are never below the closed form (Bn: above the
/// lower bound).
void check_bw(CheckLog& log, const ref::Instance& inst, bool exact_policy,
              std::uint64_t value, bool exact_flag);

/// A BOUNDARY answer equals the benchmark's own |∂S| recount.
void check_boundary(CheckLog& log, const ref::Instance& inst,
                    std::uint64_t mask, std::uint64_t value,
                    std::uint64_t recount);

/// A mask and its image under an automorphism get one key and one value.
void check_symmetric(CheckLog& log, const ref::Instance& inst,
                     const std::string& key_a, const std::string& key_b,
                     std::uint64_t value_a, std::uint64_t value_b);

/// A reply arrived from the expected tier, before the deadline.
void check_reply_meta(CheckLog& log, const Reply& r,
                      const std::string& want_id,
                      const std::string& want_source, double deadline_ms);

/// What one SimEngine run reported.
struct SimFacts {
  std::size_t delivered = 0;
  std::size_t packets = 0;
  std::uint64_t total_hops = 0;
  std::uint32_t makespan = 0;
  std::uint64_t steps = 0;
  std::size_t max_queue = 0;
};

/// delivered == injected, total_hops == recounted path lengths, every
/// path a walk, makespan >= longest path, >= the largest directed-link
/// load and >= N/(4n); the 1- and 2-thread runs agree exactly.
void check_sim(CheckLog& log, const std::string& what, std::uint32_t n,
               const ref::PathFacts& paths, const SimFacts& one,
               const SimFacts& two);

/// Edge certificate: flow == the benchmark's |∂S| and certified.
void check_edge_cert(CheckLog& log, const std::string& what,
                     std::uint64_t recount, std::int64_t flow,
                     bool certified);
/// Node certificate: recount == the benchmark's |N(S)|, flow <= it,
/// certified.
void check_node_cert(CheckLog& log, const std::string& what,
                     std::uint64_t recount, std::int64_t cert_recount,
                     std::int64_t flow, bool certified);
/// Superconcentration on the concatenated B8 pair: exhaustive over
/// C(16,8) - 1 = 12869 queries, no failure, certified.
void check_superconc(CheckLog& log, std::uint64_t queries,
                     std::uint64_t failures, bool exhaustive, bool certified);

}  // namespace perfbench
