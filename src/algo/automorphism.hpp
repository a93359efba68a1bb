// Permutation groups acting on graph vertices (the symmetry subsystem,
// DESIGN.md §10).
//
// Every butterfly-family network has a large, explicitly known
// automorphism group — column rotations/XORs of Wn and CCCn, the
// (c0, flips) translations and level reversal of Bn, bit permutations
// of Qd, row/column permutations of MOS — and the exact kernels exploit
// it: equivalent branch-and-bound states collapse through a canonical
// transposition table, and the sharded expansion sweep enumerates only
// orbit representatives of its shard prefixes. This module is the
// group-theory substrate: permutation arithmetic, automorphism
// verification, Schreier-style orbit computation on vertices and on
// small (<= 64-node) vertex subsets, and bounded enumeration of the
// full element closure for canonicalization.
//
// A permutation is stored one-line: p[v] is the image of v. Topology
// classes export generator sets (automorphism_generators()); the
// PermutationGroup never needs the graph itself, only its degree.
#pragma once

#include <cstdint>
#include <vector>

#include "core/graph.hpp"
#include "core/types.hpp"

namespace bfly::algo {

/// One-line permutation: p[v] = image of v.
using Perm = std::vector<NodeId>;

/// The identity on n points.
[[nodiscard]] Perm identity_perm(NodeId n);

/// True iff p is a bijection of [0, p.size()).
[[nodiscard]] bool is_permutation(const Perm& p);

/// (a then b)? No: returns a∘b, i.e. (a∘b)[v] = a[b[v]] — apply b first.
[[nodiscard]] Perm compose(const Perm& a, const Perm& b);

[[nodiscard]] Perm inverse(const Perm& p);

/// True iff p maps the edge multiset of g onto itself. Multigraph-safe:
/// parallel edges are compared with multiplicity, so the check is exact
/// for every graph this library builds (W4/CCC4 included).
[[nodiscard]] bool is_automorphism(const Graph& g, const Perm& p);

/// Applies p to a <= 64-node subset mask: bit v of mask becomes bit
/// p[v] of the result.
[[nodiscard]] std::uint64_t apply_to_mask(const Perm& p, std::uint64_t mask);

/// A finitely generated permutation group on [0, degree). Orbit queries
/// walk the generator closure (Schreier-style breadth-first chase, no
/// element enumeration needed); canonicalization consumers ask for the
/// full element list, which is enumerated once, capped, and cached.
///
/// Mask orbits (degree <= 64) run on MaskImageTables: a generator maps
/// a mask with one table lookup per byte, and visited masks live in an
/// open-addressing flat set, so Q64's 46,080-mask orbit takes about
/// 10 ms on one x86 core. min_mask_image() returns the orbit minimum
/// without building or sorting the orbit vector. Both build the tables
/// per call; a caller canonicalizing many masks of one group keeps a
/// MaskImageTables instead (the service holds one per instance).
///
/// Orbit queries are const and touch no shared state, so they are safe
/// to run concurrently on one group. elements() (and order(),
/// setwise_stabilizer()) fill a lazy cache and are not.
class PermutationGroup {
 public:
  /// Elements beyond this cap mean the group is too large for
  /// element-list canonicalization; orbit queries still work.
  static constexpr std::size_t kDefaultMaxElements = 4096;

  PermutationGroup() = default;

  /// Every generator must be a permutation of [0, n). Checked builds
  /// validate; an empty generator list yields the trivial group.
  PermutationGroup(NodeId n, std::vector<Perm> generators);

  [[nodiscard]] NodeId degree() const noexcept { return n_; }
  [[nodiscard]] const std::vector<Perm>& generators() const noexcept {
    return gens_;
  }

  /// Orbit of vertex v under the group (sorted ascending).
  [[nodiscard]] std::vector<NodeId> orbit(NodeId v) const;

  /// Partition of [0, degree) into orbits, each sorted, ordered by
  /// smallest member.
  [[nodiscard]] std::vector<std::vector<NodeId>> vertex_orbits() const;

  /// Orbit of a <= 64-node subset mask under the group (sorted
  /// ascending as integers). degree() must be <= 64 and the mask must
  /// hold no bit at or past degree().
  [[nodiscard]] std::vector<std::uint64_t> mask_orbit(
      std::uint64_t mask) const;

  /// The smallest member of mask_orbit(mask), i.e. mask_orbit(mask)
  /// .front(), found without materializing the sorted orbit. Same
  /// preconditions as mask_orbit.
  [[nodiscard]] std::uint64_t min_mask_image(std::uint64_t mask) const;

  /// The full element list (identity included), enumerated by closure
  /// over the generators and cached. Returns nullptr — without caching
  /// a partial list — when the group has more than max_elements
  /// elements, so callers can degrade to symmetry-off instead of
  /// enumerating a huge group.
  [[nodiscard]] const std::vector<Perm>* elements(
      std::size_t max_elements = kDefaultMaxElements) const;

  /// |G|. Throws PreconditionError when the group exceeds max_elements.
  [[nodiscard]] std::size_t order(
      std::size_t max_elements = kDefaultMaxElements) const;

  /// Every element fixing the subset mask setwise (a subgroup, identity
  /// included). degree() must be <= 64; requires element enumeration,
  /// so the same cap applies (nullptr-style empty result is impossible:
  /// throws PreconditionError when the cap is exceeded).
  [[nodiscard]] std::vector<Perm> setwise_stabilizer(
      std::uint64_t mask,
      std::size_t max_elements = kDefaultMaxElements) const;

 private:
  NodeId n_ = 0;
  std::vector<Perm> gens_;
  // Lazily built element closure; empty until the first elements()
  // call that fits the cap. too_large_ remembers a failed enumeration
  // so repeated calls do not redo the blown-up closure.
  mutable std::vector<Perm> elements_;
  mutable bool too_large_ = false;
};

/// Byte-sliced images of <= 64-node masks under a group's generators:
/// entry [g][s][b] is the image under generator g of byte value b placed
/// at bits [8s, 8s+8), so a generator maps a whole mask with one lookup
/// per occupied byte (at most eight) instead of one step per set bit.
/// Immutable once built, so one instance serves concurrent orbit walks.
class MaskImageTables {
 public:
  /// group.degree() must be <= 64.
  explicit MaskImageTables(const PermutationGroup& group);

  /// Image of mask under generator g; equals
  /// apply_to_mask(group.generators()[g], mask).
  [[nodiscard]] std::uint64_t image(std::size_t g, std::uint64_t mask) const {
    const std::uint64_t* t = table_.data() + g * slices_ * 256;
    std::uint64_t out = 0;
    for (unsigned s = 0; s < slices_; ++s, t += 256, mask >>= 8) {
      out |= t[mask & 0xff];
    }
    return out;
  }

  /// PermutationGroup::mask_orbit on the prebuilt tables.
  [[nodiscard]] std::vector<std::uint64_t> orbit(std::uint64_t mask) const;

  /// PermutationGroup::min_mask_image on the prebuilt tables.
  [[nodiscard]] std::uint64_t min_image(std::uint64_t mask) const;

 private:
  /// Every member of the orbit, in breadth-first discovery order. When
  /// stop_at_floor is set the walk ends early on reaching the smallest
  /// integer of the mask's popcount, which no image can undercut.
  [[nodiscard]] std::vector<std::uint64_t> walk(std::uint64_t mask,
                                                bool stop_at_floor) const;

  NodeId n_ = 0;
  unsigned slices_ = 0;
  std::size_t gens_ = 0;
  std::vector<std::uint64_t> table_;  // [gens_][slices_][256]
};

}  // namespace bfly::algo
