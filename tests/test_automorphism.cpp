// Symmetry subsystem (DESIGN.md §10): permutation arithmetic, the
// per-topology generator exports, group orders and orbit structure
// against the known automorphism groups, and the differential contract
// of both symmetry-pruned exact kernels — identical optimal capacities
// and expansion tables to the unpruned kernels on every instance, with
// the pruning actually biting on the butterfly family. Carries the
// `symmetry` ctest label (`ctest -L symmetry`).
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string_view>
#include <vector>

#include "algo/automorphism.hpp"
#include "core/graph.hpp"
#include "core/rng.hpp"
#include "cut/branch_bound.hpp"
#include "expansion/expansion.hpp"
#include "topology/butterfly.hpp"
#include "topology/ccc.hpp"
#include "topology/hypercube.hpp"
#include "topology/mesh_of_stars.hpp"
#include "topology/wrapped_butterfly.hpp"

namespace bfly {
namespace {

struct Named {
  const char* name;
  const Graph* g;
  std::vector<algo::Perm> gens;
};

// The generator-export surface under test: every topology class that
// ships automorphism_generators(), across the sizes the exact kernels
// run on. (W2/CCC2 do not exist — both families need log n >= 2.)
class Instances {
 public:
  Instances()
      : b2_(2), b4_(4), b8_(8), w4_(4), w8_(8), c4_(4), c8_(8),
        q3_(3), q4_(4), q5_(5), m22_(2, 2), m23_(2, 3), m33_(3, 3),
        m44_(4, 4) {}

  [[nodiscard]] std::vector<Named> all() const {
    return {
        {"B2", &b2_.graph(), b2_.automorphism_generators()},
        {"B4", &b4_.graph(), b4_.automorphism_generators()},
        {"B8", &b8_.graph(), b8_.automorphism_generators()},
        {"W4", &w4_.graph(), w4_.automorphism_generators()},
        {"W8", &w8_.graph(), w8_.automorphism_generators()},
        {"CCC4", &c4_.graph(), c4_.automorphism_generators()},
        {"CCC8", &c8_.graph(), c8_.automorphism_generators()},
        {"Q3", &q3_.graph(), q3_.automorphism_generators()},
        {"Q4", &q4_.graph(), q4_.automorphism_generators()},
        {"Q5", &q5_.graph(), q5_.automorphism_generators()},
        {"MOS2x2", &m22_.graph(), m22_.automorphism_generators()},
        {"MOS2x3", &m23_.graph(), m23_.automorphism_generators()},
        {"MOS3x3", &m33_.graph(), m33_.automorphism_generators()},
        {"MOS4x4", &m44_.graph(), m44_.automorphism_generators()},
    };
  }

 private:
  topo::Butterfly b2_, b4_, b8_;
  topo::WrappedButterfly w4_, w8_;
  topo::CubeConnectedCycles c4_, c8_;
  topo::Hypercube q3_, q4_, q5_;
  topo::MeshOfStars m22_, m23_, m33_, m44_;
};

TEST(Automorphism, PermArithmeticRoundTrips) {
  const algo::Perm id = algo::identity_perm(6);
  EXPECT_TRUE(algo::is_permutation(id));
  const algo::Perm p = {2, 0, 1, 5, 4, 3};
  ASSERT_TRUE(algo::is_permutation(p));
  EXPECT_EQ(algo::compose(p, algo::inverse(p)), id);
  EXPECT_EQ(algo::compose(algo::inverse(p), p), id);
  // apply_to_mask agrees with pointwise application, and the inverse
  // undoes it.
  Rng rng(99);
  for (int t = 0; t < 50; ++t) {
    const std::uint64_t m = rng.next() & 0x3f;
    std::uint64_t expect = 0;
    for (NodeId v = 0; v < 6; ++v) {
      if ((m >> v) & 1u) expect |= std::uint64_t{1} << p[v];
    }
    EXPECT_EQ(algo::apply_to_mask(p, m), expect);
    EXPECT_EQ(algo::apply_to_mask(algo::inverse(p),
                                  algo::apply_to_mask(p, m)),
              m);
  }
  EXPECT_FALSE(algo::is_permutation({0, 0, 1}));
}

TEST(Automorphism, EveryExportedGeneratorIsAnAutomorphism) {
  const Instances inst;
  for (const auto& [name, g, gens] : inst.all()) {
    ASSERT_FALSE(gens.empty()) << name;
    for (std::size_t i = 0; i < gens.size(); ++i) {
      EXPECT_TRUE(algo::is_permutation(gens[i]))
          << name << " generator " << i;
      EXPECT_EQ(gens[i].size(), g->num_nodes()) << name << " generator " << i;
      EXPECT_TRUE(algo::is_automorphism(*g, gens[i]))
          << name << " generator " << i;
    }
  }
}

TEST(Automorphism, GroupOrdersMatchTheKnownGroups) {
  const Instances inst;
  // |Aut| of the generated group. For Bn: 2^log2(n) translations x level
  // reversal x ...; for Wn/CCCn (n = 2^d columns, d >= 3): 2^d * d * 2
  // (XOR translations, rotations, reflection); Qd: 2^d * d!; MOS_j,k:
  // j! * k! (x 2 swap for j = k). The d = 2 wrapped/CCC cases are
  // degenerate (multi-edges collapse symmetries).
  const std::vector<std::pair<const char*, std::size_t>> expect = {
      {"B2", 8},      {"B4", 32},     {"B8", 128},  {"W4", 16},
      {"W8", 48},     {"CCC4", 8},    {"CCC8", 48}, {"Q3", 48},
      {"Q4", 384},    {"Q5", 3840},   {"MOS2x2", 8}, {"MOS2x3", 12},
      {"MOS3x3", 72}, {"MOS4x4", 1152},
  };
  const auto all = inst.all();
  for (const auto& [name, order] : expect) {
    bool found = false;
    for (const auto& [iname, g, gens] : all) {
      if (std::string_view(iname) != name) continue;
      found = true;
      const algo::PermutationGroup grp(g->num_nodes(), gens);
      EXPECT_EQ(grp.order(), order) << name;
    }
    EXPECT_TRUE(found) << name;
  }
}

TEST(Automorphism, OrbitStructureMatchesTransitivity) {
  const Instances inst;
  for (const auto& [name, g, gens] : inst.all()) {
    const algo::PermutationGroup grp(g->num_nodes(), gens);
    const auto orbits = grp.vertex_orbits();
    // Orbits partition the vertex set.
    std::size_t covered = 0;
    for (const auto& o : orbits) covered += o.size();
    EXPECT_EQ(covered, g->num_nodes()) << name;
    const std::string_view n(name);
    if (n == "W8" || n == "CCC8" || n.substr(0, 1) == "Q") {
      // Vertex-transitive families: one orbit.
      EXPECT_EQ(orbits.size(), 1u) << name;
    } else if (n == "B4") {
      // Level reversal fuses levels {0, 2}; level 1 is its own orbit.
      EXPECT_EQ(orbits.size(), 2u) << name;
    } else if (n == "MOS3x3" || n == "MOS4x4" || n == "MOS2x2") {
      // Square mesh-of-stars: centers vs leaves.
      EXPECT_EQ(orbits.size(), 2u) << name;
    } else if (n == "MOS2x3") {
      EXPECT_EQ(orbits.size(), 3u) << name;
    }
    // orbit(v) is consistent with the partition.
    for (const auto& o : orbits) {
      for (const NodeId v : o) {
        EXPECT_EQ(grp.orbit(v), o) << name << " vertex " << v;
      }
    }
  }
}

TEST(Automorphism, ElementEnumerationHonorsItsCap) {
  const topo::Hypercube q4(4);
  // |Aut(Q4)| = 384: a cap below that must answer nullptr (degrade to
  // symmetry-off), not a partial list — and the failed enumeration is
  // cached, so the same object keeps answering nullptr even for caps
  // that would fit (documented: no redoing a blown-up closure).
  const algo::PermutationGroup capped(q4.graph().num_nodes(),
                                      q4.automorphism_generators());
  EXPECT_EQ(capped.elements(/*max_elements=*/100), nullptr);
  EXPECT_EQ(capped.elements(/*max_elements=*/500), nullptr);
  const algo::PermutationGroup fresh(q4.graph().num_nodes(),
                                     q4.automorphism_generators());
  const auto* els = fresh.elements(/*max_elements=*/500);
  ASSERT_NE(els, nullptr);
  EXPECT_EQ(els->size(), 384u);
  // A cached full list answers per-cap: big enough sees it, smaller
  // does not.
  EXPECT_EQ(fresh.elements(/*max_elements=*/100), nullptr);
  EXPECT_NE(fresh.elements(/*max_elements=*/500), nullptr);
  EXPECT_THROW((void)fresh.order(/*max_elements=*/100), PreconditionError);
}

// --- Mask orbits: flat-set walk vs the std::set reference ---

// The orbit walk the library used before its flat-set rewrite, kept as
// the oracle: breadth-first closure over apply_to_mask, visited masks in
// a std::set, returned in ascending order.
std::vector<std::uint64_t> reference_mask_orbit(
    const algo::PermutationGroup& grp, std::uint64_t mask) {
  std::set<std::uint64_t> seen{mask};
  std::vector<std::uint64_t> frontier{mask};
  while (!frontier.empty()) {
    const std::uint64_t m = frontier.back();
    frontier.pop_back();
    for (const algo::Perm& gen : grp.generators()) {
      const std::uint64_t im = algo::apply_to_mask(gen, m);
      if (seen.insert(im).second) frontier.push_back(im);
    }
  }
  return {seen.begin(), seen.end()};
}

// A uniformly random k-subset of [0, n) as a mask.
std::uint64_t random_subset(Rng& rng, NodeId n, NodeId k) {
  std::uint64_t mask = 0;
  for (NodeId placed = 0; placed < k;) {
    const std::uint64_t bit = std::uint64_t{1} << rng.below(n);
    if ((mask & bit) == 0) {
      mask |= bit;
      ++placed;
    }
  }
  return mask;
}

TEST(Automorphism, MaskOrbitsMatchTheReferenceWalk) {
  const topo::Butterfly b4(4), b8(8);
  const topo::WrappedButterfly w8(8), w16(16);
  const topo::CubeConnectedCycles c8(8), c16(16);
  const topo::Hypercube q16(4), q32(5), q64(6);
  const std::vector<Named> instances = {
      {"B4", &b4.graph(), b4.automorphism_generators()},
      {"B8", &b8.graph(), b8.automorphism_generators()},
      {"W8", &w8.graph(), w8.automorphism_generators()},
      {"W16", &w16.graph(), w16.automorphism_generators()},
      {"CCC8", &c8.graph(), c8.automorphism_generators()},
      {"CCC16", &c16.graph(), c16.automorphism_generators()},
      {"Q16", &q16.graph(), q16.automorphism_generators()},
      {"Q32", &q32.graph(), q32.automorphism_generators()},
      {"Q64", &q64.graph(), q64.automorphism_generators()},
  };
  Rng rng(0x0b17);
  for (const auto& [name, g, gens] : instances) {
    const NodeId n = g->num_nodes();
    const algo::PermutationGroup grp(n, gens);
    const algo::MaskImageTables tables(grp);
    const std::uint64_t all =
        n == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
    std::vector<std::uint64_t> masks = {0, all};
    if (n == 64) masks.push_back(std::uint64_t{1} << 63);
    // The reference walk is slow on Q64's 46,080-mask orbits, so Q64
    // gets one random mask per popcount and the rest get two.
    const int per_size = n == 64 ? 1 : 2;
    for (const NodeId k : {NodeId{1}, NodeId{2}, n / 4, n / 2, n - 1}) {
      for (int i = 0; i < per_size; ++i) {
        masks.push_back(random_subset(rng, n, k));
      }
    }
    // Stabilizer counting needs the element list, which Q64 (46,080
    // elements) exceeds.
    const bool enumerable = grp.elements() != nullptr;
    for (const std::uint64_t mask : masks) {
      const std::vector<std::uint64_t> expect = reference_mask_orbit(grp, mask);
      EXPECT_EQ(grp.mask_orbit(mask), expect) << name << " mask " << mask;
      EXPECT_EQ(tables.orbit(mask), expect) << name << " mask " << mask;
      EXPECT_EQ(grp.min_mask_image(mask), expect.front())
          << name << " mask " << mask;
      EXPECT_EQ(tables.min_image(mask), expect.front())
          << name << " mask " << mask;
      if (enumerable) {
        // Orbit-stabilizer: |orbit| * |Stab(mask)| = |G|.
        EXPECT_EQ(expect.size() * grp.setwise_stabilizer(mask).size(),
                  grp.order())
            << name << " mask " << mask;
      }
    }
    EXPECT_EQ(enumerable, std::string_view(name) != "Q64") << name;
    for (std::size_t i = 0; i < gens.size(); ++i) {
      for (const std::uint64_t mask : masks) {
        EXPECT_EQ(tables.image(i, mask), algo::apply_to_mask(gens[i], mask))
            << name << " generator " << i << " mask " << mask;
      }
    }
  }
}

TEST(Automorphism, MaskOrbitsRejectBitsPastTheDegree) {
  const topo::Hypercube q4(4);
  const algo::PermutationGroup grp(q4.graph().num_nodes(),
                                   q4.automorphism_generators());
  EXPECT_THROW((void)grp.mask_orbit(std::uint64_t{1} << 16),
               PreconditionError);
  EXPECT_THROW((void)grp.min_mask_image(std::uint64_t{1} << 63),
               PreconditionError);
}

// --- Differential contracts of the symmetry-pruned kernels ---

TEST(SymmetryPrunedSearch, IdenticalCapacitiesOnTheDifferentialSuite) {
  const Instances inst;
  for (const auto& [name, g, gens] : inst.all()) {
    const algo::PermutationGroup grp(g->num_nodes(), gens);
    cut::BranchBoundOptions plain;
    plain.kernel = cut::BranchBoundKernel::kBitset;
    const bool bitset_ok = !g->has_parallel_edges();
    if (!bitset_ok) continue;  // W4/CCC4 collapse to multigraphs
    const auto ref = cut::min_bisection_branch_bound(*g, plain);
    cut::BranchBoundOptions sym = plain;
    sym.symmetry = &grp;
    const auto pruned = cut::min_bisection_branch_bound(*g, sym);
    EXPECT_EQ(pruned.capacity, ref.capacity) << name;
    EXPECT_EQ(pruned.exactness, cut::Exactness::kExact) << name;
    EXPECT_LE(pruned.nodes_visited, ref.nodes_visited) << name;
    cut::validate_cut(*g, pruned, /*require_bisection=*/true);
  }
}

TEST(SymmetryPrunedSearch, PruningMeetsTheFourFoldFloorOnW8AndCCC8) {
  // The E21 acceptance bar: >= 4x fewer search nodes than the plain
  // bitset kernel on W8 and CCC8, proved at the same optimum.
  for (const bool wrapped : {true, false}) {
    const topo::WrappedButterfly w8(8);
    const topo::CubeConnectedCycles c8(8);
    const Graph& g = wrapped ? w8.graph() : c8.graph();
    const algo::PermutationGroup grp(
        g.num_nodes(), wrapped ? w8.automorphism_generators()
                               : c8.automorphism_generators());
    cut::BranchBoundOptions plain;
    plain.kernel = cut::BranchBoundKernel::kBitset;
    const auto ref = cut::min_bisection_branch_bound(g, plain);
    cut::BranchBoundOptions sym = plain;
    sym.symmetry = &grp;
    const auto pruned = cut::min_bisection_branch_bound(g, sym);
    EXPECT_EQ(pruned.capacity, ref.capacity);
    EXPECT_GE(ref.nodes_visited, 4 * pruned.nodes_visited)
        << (wrapped ? "W8" : "CCC8") << ": " << pruned.nodes_visited
        << " symmetry nodes vs " << ref.nodes_visited << " plain";
  }
}

TEST(SymmetryPrunedSearch, TelemetryReportsTableActivity) {
  const topo::Butterfly b8(8);
  const algo::PermutationGroup grp(b8.graph().num_nodes(),
                                   b8.automorphism_generators());
  cut::BranchBoundOptions sym;
  sym.kernel = cut::BranchBoundKernel::kBitset;
  sym.symmetry = &grp;
  const auto res = cut::min_bisection_branch_bound(b8.graph(), sym);
  EXPECT_GT(res.tt_stores, 0u);
  // Plain runs leave the counters at zero.
  const auto plain = cut::min_bisection_branch_bound(b8.graph());
  EXPECT_EQ(plain.tt_hits, 0u);
  EXPECT_EQ(plain.tt_stores, 0u);
}

TEST(SymmetryShardedExpansion, IdenticalTablesAndWeightedCoverage) {
  const Instances inst;
  for (const char* pick : {"B4", "W4", "CCC4", "Q3", "MOS3x3"}) {
    for (const auto& [name, g, gens] : inst.all()) {
      if (std::string_view(name) != pick) continue;
      const algo::PermutationGroup grp(g->num_nodes(), gens);
      expansion::ExactExpansionOptions serial;
      serial.num_threads = 1;
      const auto ref = expansion::exact_expansion_full(*g, serial);
      expansion::ExactExpansionOptions sym;
      sym.num_threads = 1;
      sym.shard_bits = 4;
      sym.symmetry = &grp;
      const auto red = expansion::exact_expansion_full(*g, sym);
      // The weighted-coverage identity is the orbit math's self-check:
      // representatives times their orbit sizes must tile all 2^N
      // subsets exactly.
      EXPECT_EQ(red.visited_states, std::uint64_t{1} << g->num_nodes())
          << name;
      EXPECT_LE(red.scanned_states, ref.scanned_states) << name;
      ASSERT_EQ(red.table.size(), ref.table.size()) << name;
      for (std::size_t k = 1; k < ref.table.size(); ++k) {
        EXPECT_EQ(red.table[k].ee, ref.table[k].ee) << name << " k=" << k;
        EXPECT_EQ(red.table[k].ne, ref.table[k].ne) << name << " k=" << k;
        expansion::validate_expansion_entry(*g, k, red.table[k]);
      }
    }
  }
}

TEST(SymmetryShardedExpansion, OrbitReductionBitesOnTheButterfly) {
  const topo::Butterfly b4(4);
  const algo::PermutationGroup grp(b4.graph().num_nodes(),
                                   b4.automorphism_generators());
  expansion::ExactExpansionOptions sym;
  sym.num_threads = 1;
  sym.shard_bits = 4;
  sym.symmetry = &grp;
  const auto red = expansion::exact_expansion_full(b4.graph(), sym);
  // 4096 states unreduced; the top-4-bit pattern orbits leave < 2048.
  EXPECT_LT(red.scanned_states, std::uint64_t{1} << 11);
  EXPECT_EQ(red.visited_states, std::uint64_t{1} << 12);
}

}  // namespace
}  // namespace bfly
