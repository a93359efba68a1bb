// Superconcentration certificates on concatenated butterfly pairs
// (arXiv 1401.7263, "Superconcentration on a Pair of Butterflies").
//
// An n-superconcentrator provides, for EVERY k and every pair of
// k-subsets A of the inputs and B of the outputs, k fully vertex-
// disjoint A–B paths. That is a family of max-flow statements on the
// node-split network: flow(A -> B) == k with unit node capacities.
// certify_superconcentration discharges the family — exhaustively when
// the query count sum_k C(n,k)^2 = C(2n,n) - 1 is affordable, by seeded
// random sampling otherwise — reusing ONE node-split network across all
// queries via reset() + terminal re-wiring.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/graph.hpp"
#include "core/types.hpp"

namespace bfly::cert {

/// Two n-column butterflies sharing their middle level: levels 0..d
/// cross machine bits d-1..0 and levels d..2d cross bits 0..d-1 (the
/// mirror image), so each half is a full butterfly and the whole is the
/// Benes-style pair of arXiv 1401.7263. Inputs are level 0, outputs
/// level 2d; node ids are level-major like topo::Butterfly.
struct ConcatenatedButterflyPair {
  Graph graph;
  std::uint32_t n = 0;     ///< columns (= inputs = outputs), a power of two
  std::uint32_t dims = 0;  ///< d = log2 n; 2d + 1 levels
  std::vector<NodeId> inputs;
  std::vector<NodeId> outputs;
};

[[nodiscard]] ConcatenatedButterflyPair concatenated_butterfly_pair(
    std::uint32_t n);

struct SuperconcOptions {
  /// Run the full query family when its size C(2n,n) - 1 is at most
  /// this; otherwise fall back to seeded sampling. The default admits
  /// n = 8 (12869 queries) but not n = 16.
  std::uint64_t max_exhaustive_queries = 1ull << 14;
  /// Query count in sampling mode (uniform k, then uniform k-subsets).
  std::uint64_t samples = 128;
  std::uint64_t seed = 1;
};

struct SuperconcentrationCertificate {
  std::uint64_t queries = 0;
  std::uint64_t failures = 0;  ///< queries with flow < k
  bool exhaustive = false;     ///< true: `certified` is a proof, not evidence
  bool certified = false;      ///< failures == 0
};

/// Certifies k vertex-disjoint paths between every (sampled) pair of
/// k-subsets of `inputs` and `outputs`. Inputs and outputs must be
/// duplicate-free, equal-length, and disjoint from each other.
[[nodiscard]] SuperconcentrationCertificate certify_superconcentration(
    const Graph& g, std::span<const NodeId> inputs,
    std::span<const NodeId> outputs, const SuperconcOptions& opts = {});

}  // namespace bfly::cert
