// Facts the benchmark establishes apart from the program: instance edges
// rebuilt from the topology definitions (paper Section 1.1), boundary
// and neighbourhood counts over them, the paper's closed forms, the
// automorphisms the benchmark applies itself, and recounts over packet
// paths. Nothing here calls the library, so a library fault cannot hide
// behind the reference it is checked against.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench::ref {

enum class Fam : std::uint8_t { kB, kW, kCcc, kQ };

/// A service instance: family plus the width parameter n (columns; for
/// hypercubes the node count, so Q64 is the 6-cube).
struct Instance {
  Fam fam = Fam::kB;
  std::uint32_t n = 0;

  [[nodiscard]] std::string name() const;   ///< "B8", "W16", "CCC16", "Q64"
  [[nodiscard]] const char* token() const;  ///< protocol family token
  [[nodiscard]] std::uint32_t dims() const;
  [[nodiscard]] std::uint32_t nodes() const;
};

using Edge = std::pair<std::uint32_t, std::uint32_t>;

/// Edge multiset, node ids numbered as the service numbers them:
/// level-major (level * n + column) for B and W, position-major
/// (position * n + cycle) for CCC, the binary label for Q.
[[nodiscard]] std::vector<Edge> edges(const Instance& inst);

/// |∂S| over an edge multiset; in_set has one 0/1 entry per node.
[[nodiscard]] std::uint64_t boundary(const std::vector<Edge>& edges,
                                     const std::vector<std::uint8_t>& in_set);
[[nodiscard]] std::uint64_t boundary(const std::vector<Edge>& edges,
                                     std::uint64_t mask);
/// |N(S)|: nodes outside S adjacent to S.
[[nodiscard]] std::uint64_t neighbours(std::uint32_t nodes,
                                       const std::vector<Edge>& edges,
                                       const std::vector<std::uint8_t>& in_set);

/// BW from the paper's closed forms: Wn = n (Lemmas 3.1-3.2), CCCn = n/2
/// (Lemma 3.3), Q_d = 2^(d-1). None for Bn.
[[nodiscard]] std::optional<std::uint64_t> known_width(const Instance& inst);
/// Theorem 2.20's strict lower bound 2(sqrt 2 - 1) n for Bn.
[[nodiscard]] double bn_lower_bound(std::uint32_t n);
/// Capacity of Bn's column cut (columns below n/2 against the rest),
/// counted over edges(): every exact answer is at most this.
[[nodiscard]] std::uint64_t bn_column_cut(std::uint32_t n);

/// Image of a subset mask under the column XOR <w, i> -> <w ^ c, i>, an
/// automorphism of Bn, Wn and CCCn.
[[nodiscard]] std::uint64_t column_xor(const Instance& inst,
                                       std::uint64_t mask, std::uint32_t c);
/// Image of a subset mask of Q_d under x -> perm(x) ^ c, where perm
/// moves bit b to bit perm[b].
[[nodiscard]] std::uint64_t cube_map(std::uint32_t dims, std::uint64_t mask,
                                     const std::vector<std::uint32_t>& perm,
                                     std::uint32_t c);

/// Recounts over packet paths on Bn (n columns).
struct PathFacts {
  std::size_t packets = 0;
  std::uint64_t hops = 0;          ///< sum of path lengths in edges
  std::size_t longest = 0;         ///< longest path in edges
  std::size_t max_link_load = 0;   ///< most hops over one directed link
  std::size_t non_walks = 0;       ///< paths with a step that is no edge
};
[[nodiscard]] PathFacts path_facts(
    std::uint32_t n, const std::vector<std::vector<std::uint32_t>>& paths);

}  // namespace perfbench::ref
