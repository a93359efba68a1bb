// Flow-certified expansion (src/cert/): differential suite against the
// exhaustive sweeps on paper topologies, corrupted-witness rejection,
// class-wide connectivity bounds, and superconcentration certificates
// on concatenated butterfly pairs.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "algo/bfs.hpp"
#include "cert/expansion_certificate.hpp"
#include "cert/superconcentration.hpp"
#include "cut/vertex_bisection.hpp"
#include "expansion/expansion.hpp"
#include "topology/butterfly.hpp"
#include "topology/ccc.hpp"
#include "topology/complete.hpp"
#include "topology/debruijn.hpp"
#include "topology/hypercube.hpp"
#include "topology/shuffle_exchange.hpp"
#include "topology/wrapped_butterfly.hpp"

namespace bfly::cert {
namespace {

// Every witness the exhaustive sweep emits must certify at its recorded
// value, and the class-wide flow bounds must lie below every tabulated
// entry.
void expect_table_certified(const Graph& g) {
  const auto table = expansion::exact_expansion(g);
  const ExpansionClassBound bound = expansion_class_bounds(g);
  const NodeId n = g.num_nodes();
  // k = n (the full node set) has empty boundaries and no proper-subset
  // witness to certify; stop at n - 1.
  for (std::size_t k = 1; k + 1 < table.size(); ++k) {
    SCOPED_TRACE("k=" + std::to_string(k));
    const auto& entry = table[k];
    const auto ee_cert = certify_edge_boundary(
        g, entry.ee_witness, static_cast<std::int64_t>(entry.ee));
    EXPECT_TRUE(ee_cert.certified);
    EXPECT_EQ(ee_cert.flow, static_cast<std::int64_t>(entry.ee));
    const auto ne_cert = certify_node_boundary(
        g, entry.ne_witness, static_cast<std::int64_t>(entry.ne));
    EXPECT_TRUE(ne_cert.certified);
    EXPECT_EQ(ne_cert.recounted, static_cast<std::int64_t>(entry.ne));
    EXPECT_LE(ne_cert.flow, ne_cert.recounted);
    EXPECT_LE(edge_expansion_class_bound(bound),
              static_cast<std::int64_t>(entry.ee));
    EXPECT_LE(node_expansion_class_bound(bound, n, k),
              static_cast<std::int64_t>(entry.ne));
  }
}

// Same differential for ONE set size on graphs too large for the full
// 2^N sweep.
void expect_size_k_certified(const Graph& g, std::size_t k) {
  SCOPED_TRACE("k=" + std::to_string(k));
  const auto entry = expansion::exact_expansion_of_size(g, k);
  const auto ee_cert = certify_edge_boundary(
      g, entry.ee_witness, static_cast<std::int64_t>(entry.ee));
  EXPECT_TRUE(ee_cert.certified);
  const auto ne_cert = certify_node_boundary(
      g, entry.ne_witness, static_cast<std::int64_t>(entry.ne));
  EXPECT_TRUE(ne_cert.certified);
}

TEST(CertDifferential, Butterfly4) {
  expect_table_certified(topo::Butterfly(4).graph());
}

TEST(CertDifferential, WrappedButterfly8) {
  expect_table_certified(topo::WrappedButterfly(8).graph());
}

TEST(CertDifferential, CubeConnectedCycles8) {
  expect_table_certified(topo::CubeConnectedCycles(8).graph());
}

TEST(CertDifferential, Hypercube4) {
  expect_table_certified(topo::Hypercube(4).graph());
}

TEST(CertDifferential, ShuffleExchange3) {
  expect_table_certified(topo::ShuffleExchange(3).graph());
}

TEST(CertDifferential, DeBruijn3) {
  expect_table_certified(topo::DeBruijn(3).graph());
}

TEST(CertDifferential, Complete6) {
  expect_table_certified(topo::complete_graph(6));
}

TEST(CertDifferential, LargerButterfliesPerSize) {
  // B8 and B16 are beyond the 2^N sweep; the per-size enumerator still
  // gives exact small-k entries to certify against.
  for (const std::uint32_t cols : {8u, 16u}) {
    SCOPED_TRACE("B" + std::to_string(cols));
    const topo::Butterfly bf(cols);
    for (const std::size_t k : {1u, 2u, 3u}) {
      expect_size_k_certified(bf.graph(), k);
    }
  }
}

TEST(CertDifferential, WrappedButterfly16PerSize) {
  const topo::WrappedButterfly wbf(16);
  for (const std::size_t k : {1u, 2u, 3u}) {
    expect_size_k_certified(wbf.graph(), k);
  }
}

TEST(CertRejection, WrongClaimedEdgeBoundary) {
  const topo::Butterfly bf(4);
  const auto table = expansion::exact_expansion(bf.graph());
  const auto& entry = table[3];
  const auto claimed = static_cast<std::int64_t>(entry.ee);
  EXPECT_FALSE(
      certify_edge_boundary(bf.graph(), entry.ee_witness, claimed + 1)
          .certified);
  EXPECT_FALSE(
      certify_edge_boundary(bf.graph(), entry.ee_witness, claimed - 1)
          .certified);
}

TEST(CertRejection, WrongClaimedNodeBoundary) {
  const topo::Butterfly bf(4);
  const auto table = expansion::exact_expansion(bf.graph());
  const auto& entry = table[3];
  const auto claimed = static_cast<std::int64_t>(entry.ne);
  EXPECT_FALSE(
      certify_node_boundary(bf.graph(), entry.ne_witness, claimed + 1)
          .certified);
}

TEST(CertRejection, OffByOneWitnessSet) {
  // Swap one witness member for an outside node that changes the
  // boundary; the certificate must notice the claimed value no longer
  // matches the set actually presented.
  const topo::Butterfly bf(4);
  const Graph& g = bf.graph();
  const auto table = expansion::exact_expansion(g);
  const auto& entry = table[2];
  std::vector<char> in_set(g.num_nodes(), 0);
  for (const NodeId v : entry.ee_witness) in_set[v] = 1;
  bool corrupted_one = false;
  for (NodeId w = 0; w < g.num_nodes() && !corrupted_one; ++w) {
    if (in_set[w]) continue;
    std::vector<NodeId> corrupted = entry.ee_witness;
    corrupted[0] = w;
    if (expansion::edge_boundary(g, corrupted) == entry.ee) continue;
    corrupted_one = true;
    const auto cert = certify_edge_boundary(
        g, corrupted, static_cast<std::int64_t>(entry.ee));
    EXPECT_FALSE(cert.certified);
    EXPECT_EQ(cert.flow, static_cast<std::int64_t>(
                             expansion::edge_boundary(g, corrupted)));
  }
  // Some replacement must change the boundary on a 12-node butterfly.
  EXPECT_TRUE(corrupted_one);
}

TEST(CertNodeBoundary, TightOnHypercubeSingleton) {
  // N({v}) in Q4 is the 4 neighbors, and no smaller set separates v
  // from the rest (kappa = 4): the certificate must report tightness.
  const topo::Hypercube q(4);
  const std::vector<NodeId> s = {0};
  const auto cert = certify_node_boundary(q.graph(), s, 4);
  EXPECT_TRUE(cert.certified);
  EXPECT_TRUE(cert.tight);
  EXPECT_EQ(cert.flow, 4);
}

TEST(CertNodeBoundary, DegenerateNoBSide) {
  // In K6 every proper S has S ∪ N(S) = V: the degenerate branch must
  // still certify |N(S)| = n - |S|.
  const Graph k6 = topo::complete_graph(6);
  const std::vector<NodeId> s = {0, 1};
  const auto cert = certify_node_boundary(k6, s, 4);
  EXPECT_TRUE(cert.certified);
  EXPECT_TRUE(cert.tight);
}

TEST(CertClassBounds, KnownConnectivities) {
  const ExpansionClassBound q4 = expansion_class_bounds(
      topo::Hypercube(4).graph());
  EXPECT_EQ(q4.kappa, 4);
  EXPECT_EQ(q4.lambda, 4);
  const ExpansionClassBound b8 = expansion_class_bounds(
      topo::Butterfly(8).graph());
  // Butterfly connectivity equals the input degree 2.
  EXPECT_EQ(b8.kappa, 2);
  EXPECT_EQ(b8.lambda, 2);
}

// Witness shapes on a butterfly-like topology (Bn or Wn): nodes on
// levels [lo, hi] whose column's top `t` bits equal `prefix`.
template <class Topo>
std::vector<NodeId> column_block(const Topo& bf, std::uint32_t lo,
                                 std::uint32_t hi, std::uint32_t t,
                                 std::uint32_t prefix) {
  std::vector<NodeId> set;
  for (std::uint32_t level = lo; level <= hi; ++level) {
    for (std::uint32_t w = 0; w < bf.n(); ++w) {
      if (w >> (bf.dims() - t) == prefix) set.push_back(bf.node(w, level));
    }
  }
  return set;
}

// Nodes within `radius` hops of `center`.
std::vector<NodeId> ball(const Graph& g, NodeId center, std::uint32_t radius) {
  const std::vector<std::uint32_t> dist = algo::bfs_distances(g, center);
  std::vector<NodeId> set;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (dist[v] <= radius) set.push_back(v);
  }
  return set;
}

// Certifies four witness shapes of the paper's expansion arguments on
// Bn or Wn — column halves and blocks, a level band and a ball — against
// |∂S| and |N(S)| recounted by the expansion layer, independently of
// the flow networks.
template <class Topo>
void expect_witness_shapes_certified(const char* name, const Topo& topo) {
  const Graph& g = topo.graph();
  const std::uint32_t last = topo.num_levels() - 1;
  const std::uint32_t mid = last / 2;
  const struct {
    const char* shape;
    std::vector<NodeId> set;
  } witnesses[] = {
      {"half-columns", column_block(topo, 0, last, 1, 1)},
      {"eighth-columns", column_block(topo, 0, last, 3, 5)},
      {"three-level band", column_block(topo, mid - 1, mid + 1, 2, 2)},
      {"radius-4 ball", ball(g, topo.node(37, mid), 4)},
  };
  for (const auto& w : witnesses) {
    SCOPED_TRACE(std::string(name) + " " + w.shape);
    const auto edges = static_cast<std::int64_t>(
        expansion::edge_boundary(g, w.set));
    const auto nodes = static_cast<std::int64_t>(
        expansion::node_boundary(g, w.set));
    const auto ee = certify_edge_boundary(g, w.set, edges);
    EXPECT_TRUE(ee.certified);
    EXPECT_EQ(ee.flow, edges);
    const auto ne = certify_node_boundary(g, w.set, nodes);
    EXPECT_TRUE(ne.certified);
    EXPECT_EQ(ne.recounted, nodes);
    EXPECT_LE(ne.flow, nodes);
  }
}

TEST(CertScale, ButterflyWitnessShapesMatchRecounts) {
  // Certificates past exhaustive-sweep size.
  expect_witness_shapes_certified("B256", topo::Butterfly(256));
  expect_witness_shapes_certified("W256", topo::WrappedButterfly(256));
}

TEST(Superconc, PairStructure) {
  const ConcatenatedButterflyPair pair = concatenated_butterfly_pair(8);
  EXPECT_EQ(pair.dims, 3u);
  EXPECT_EQ(pair.graph.num_nodes(), 8u * 7u);
  EXPECT_EQ(pair.graph.num_edges(), 2u * 8u * 6u);
  pair.graph.validate();
  ASSERT_EQ(pair.inputs.size(), 8u);
  ASSERT_EQ(pair.outputs.size(), 8u);
  for (const NodeId v : pair.inputs) EXPECT_EQ(pair.graph.degree(v), 2u);
  for (const NodeId v : pair.outputs) EXPECT_EQ(pair.graph.degree(v), 2u);
}

TEST(Superconc, ButterflyPairN4Exhaustive) {
  const ConcatenatedButterflyPair pair = concatenated_butterfly_pair(4);
  const auto cert = certify_superconcentration(pair.graph, pair.inputs,
                                               pair.outputs);
  EXPECT_TRUE(cert.exhaustive);
  EXPECT_EQ(cert.queries, 69u);  // C(8, 4) - 1
  EXPECT_EQ(cert.failures, 0u);
  EXPECT_TRUE(cert.certified);
}

TEST(Superconc, ButterflyPairN8Exhaustive) {
  const ConcatenatedButterflyPair pair = concatenated_butterfly_pair(8);
  const auto cert = certify_superconcentration(pair.graph, pair.inputs,
                                               pair.outputs);
  EXPECT_TRUE(cert.exhaustive);
  EXPECT_EQ(cert.queries, 12869u);  // C(16, 8) - 1
  EXPECT_TRUE(cert.certified);
}

TEST(Superconc, StarIsRejected) {
  // Two inputs and two outputs all hanging off one center: two
  // vertex-disjoint paths cannot both pass the center, so the k = 2
  // queries must fail.
  GraphBuilder gb(5);
  for (NodeId leaf = 1; leaf < 5; ++leaf) gb.add_edge(0, leaf);
  const Graph star = std::move(gb).build();
  const std::vector<NodeId> inputs = {1, 2};
  const std::vector<NodeId> outputs = {3, 4};
  const auto cert = certify_superconcentration(star, inputs, outputs);
  EXPECT_TRUE(cert.exhaustive);
  EXPECT_EQ(cert.queries, 5u);  // C(4, 2) - 1
  EXPECT_GT(cert.failures, 0u);
  EXPECT_FALSE(cert.certified);
}

TEST(Superconc, SampledModeOnN16Pair) {
  const ConcatenatedButterflyPair pair = concatenated_butterfly_pair(16);
  SuperconcOptions opts;
  opts.samples = 32;
  opts.seed = 11;
  const auto cert = certify_superconcentration(pair.graph, pair.inputs,
                                               pair.outputs, opts);
  EXPECT_FALSE(cert.exhaustive);
  EXPECT_EQ(cert.queries, 32u);
  EXPECT_TRUE(cert.certified);
  // Seeded determinism: the same options replay the same queries.
  const auto replay = certify_superconcentration(pair.graph, pair.inputs,
                                                 pair.outputs, opts);
  EXPECT_EQ(replay.failures, cert.failures);
}

TEST(VertexBisection, WidthRecountsOnKnownPartition) {
  // Q3 split into antipodal subcubes: every far-side node touches the
  // near side, width = 4 either way.
  const topo::Hypercube q(3);
  std::vector<std::uint8_t> sides(8, 0);
  for (NodeId v = 4; v < 8; ++v) sides[v] = 1;
  EXPECT_EQ(cut::vertex_boundary_width(q.graph(), sides, 0), 4u);
  EXPECT_EQ(cut::vertex_boundary_width(q.graph(), sides, 1), 4u);
}

TEST(VertexBisection, PortfolioWitnessIsValidAndScored) {
  const topo::Butterfly bf(8);
  cut::PortfolioOptions opts;
  opts.num_threads = 1;
  opts.run_branch_bound = false;
  const auto result = cut::vertex_bisection_portfolio(bf.graph(), opts);
  cut::validate_vertex_bisection(bf.graph(), result);
  EXPECT_GT(result.width, 0u);
  EXPECT_LE(result.certified_lower,
            static_cast<std::int64_t>(result.width));
  EXPECT_EQ(result.exactness, cut::Exactness::kHeuristic);
  // Deterministic replay: same options, same witness.
  const auto replay = cut::vertex_bisection_portfolio(bf.graph(), opts);
  EXPECT_EQ(replay.width, result.width);
  EXPECT_EQ(replay.sides, result.sides);
}

}  // namespace
}  // namespace bfly::cert
