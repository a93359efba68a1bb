// Max-flow substrate: Dinic on hand-built networks, Menger path counts,
// minimum vertex cuts on butterflies, reusable-network semantics
// (reset / re-entry / re-wiring), min-cut sides vs residual reachability,
// the int64 overflow guard, and certified connectivities.
#include <gtest/gtest.h>

#include <limits>
#include <span>
#include <string>
#include <vector>

#include "algo/maxflow.hpp"
#include "core/error.hpp"
#include "core/rng.hpp"
#include "topology/butterfly.hpp"
#include "topology/complete.hpp"
#include "topology/hypercube.hpp"
#include "topology/wrapped_butterfly.hpp"

namespace bfly::algo {
namespace {

TEST(MaxFlow, TextbookNetwork) {
  // Classic 4-node diamond: s=0, t=3; 0->1 (3), 0->2 (2), 1->2 (5),
  // 1->3 (2), 2->3 (3). Max flow = 5.
  FlowNetwork net(4);
  net.add_arc(0, 1, 3);
  net.add_arc(0, 2, 2);
  net.add_arc(1, 2, 5);
  net.add_arc(1, 3, 2);
  net.add_arc(2, 3, 3);
  EXPECT_EQ(net.max_flow(0, 3), 5);
  EXPECT_TRUE(net.on_source_side(0));
  EXPECT_FALSE(net.on_source_side(3));
}

TEST(MaxFlow, DisconnectedIsZero) {
  FlowNetwork net(3);
  net.add_arc(0, 1, 7);
  EXPECT_EQ(net.max_flow(0, 2), 0);
}

TEST(MaxFlow, FlowOnArcs) {
  FlowNetwork net(3);
  const auto a = net.add_arc(0, 1, 4);
  const auto b = net.add_arc(1, 2, 2);
  EXPECT_EQ(net.max_flow(0, 2), 2);
  EXPECT_EQ(net.flow_on(a), 2);
  EXPECT_EQ(net.flow_on(b), 2);
}

TEST(MaxFlow, EdgeDisjointPathsOnButterfly) {
  // Between the inputs and outputs of Bn there are exactly 2n edge-
  // disjoint paths (each input has degree 2; flow saturates all edges
  // out of level 0).
  const topo::Butterfly bf(8);
  const auto inputs = bf.level_nodes(0);
  const auto outputs = bf.level_nodes(bf.dims());
  EXPECT_EQ(max_edge_disjoint_paths(bf.graph(), inputs, outputs), 16);
}

TEST(MaxFlow, VertexDisjointPathsOnButterfly) {
  // Fully vertex-disjoint input-output paths: at most n (each level has
  // n nodes) and exactly n (the identity monotonic paths).
  const topo::Butterfly bf(8);
  const auto inputs = bf.level_nodes(0);
  const auto outputs = bf.level_nodes(bf.dims());
  EXPECT_EQ(max_vertex_disjoint_paths(bf.graph(), inputs, outputs), 8);
}

TEST(MaxFlow, MinVertexCutSingleTarget) {
  // Separating one internal node from the inputs requires cutting it or
  // its 2 upward neighbors; minimum is 1 (the node itself).
  const topo::Butterfly bf(8);
  const auto inputs = bf.level_nodes(0);
  const std::vector<NodeId> target = {bf.node(3, 2)};
  const auto cut = min_vertex_cut(bf.graph(), inputs, target);
  EXPECT_EQ(cut.size, 1);
  ASSERT_EQ(cut.nodes.size(), 1u);
}

TEST(MaxFlow, MinVertexCutWholeLevel) {
  // Separating all outputs from all inputs requires n nodes.
  const topo::Butterfly bf(8);
  const auto inputs = bf.level_nodes(0);
  const auto outputs = bf.level_nodes(bf.dims());
  const auto cut = min_vertex_cut(bf.graph(), inputs, outputs);
  EXPECT_EQ(cut.size, 8);
  EXPECT_EQ(cut.nodes.size(), 8u);
}

TEST(MaxFlow, MingCutMatchesMengerOnHypercube) {
  const topo::Hypercube q(4);
  const std::vector<NodeId> a = {0};
  const std::vector<NodeId> b = {15};
  // kappa(Q4) between antipodes = 4 = degree.
  EXPECT_EQ(max_edge_disjoint_paths(q.graph(), a, b), 4);
}

TEST(MaxFlow, CompleteGraphCut) {
  const Graph k6 = topo::complete_graph(6);
  const std::vector<NodeId> a = {0};
  const std::vector<NodeId> b = {5};
  EXPECT_EQ(max_edge_disjoint_paths(k6, a, b), 5);
}

// An arc as added to a network, kept outside it to recompute cuts and
// residual capacities.
struct RecordedArc {
  NodeId u, v;
  std::int64_t cap;
  std::uint32_t index;
};

// A seeded random DAG (arcs u -> v with u < v only).
std::vector<RecordedArc> build_random_dag(FlowNetwork& net, NodeId n,
                                          std::uint64_t seed) {
  Rng rng(seed);
  std::vector<RecordedArc> arcs;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      if (rng.below(100) < 30) {
        const auto cap = static_cast<std::int64_t>(1 + rng.below(20));
        arcs.push_back({u, v, cap, net.add_arc(u, v, cap)});
      }
    }
  }
  return arcs;
}

TEST(MaxFlowRandom, FlowEqualsCutOnRandomDags) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const NodeId n = 30;
    FlowNetwork net(n);
    const std::vector<RecordedArc> arcs = build_random_dag(net, n, seed);
    const NodeId s = 0, t = n - 1;
    const std::int64_t flow = net.max_flow(s, t);
    // Max-flow = min-cut from first principles: the residual-reachable
    // side defines a cut whose crossing arcs must all be saturated and
    // sum to the flow value.
    ASSERT_TRUE(net.on_source_side(s));
    ASSERT_FALSE(net.on_source_side(t));
    std::int64_t cut = 0;
    for (const RecordedArc& a : arcs) {
      if (net.on_source_side(a.u) && !net.on_source_side(a.v)) {
        cut += a.cap;
        EXPECT_EQ(net.flow_on(a.index), a.cap) << "unsaturated cut arc";
      }
    }
    EXPECT_EQ(flow, cut) << "seed " << seed;
  }
}

TEST(MaxFlowReuse, ResetRestoresAndReentryIsIdempotent) {
  FlowNetwork net(4);
  const auto a01 = net.add_arc(0, 1, 3);
  net.add_arc(0, 2, 2);
  net.add_arc(1, 2, 5);
  net.add_arc(1, 3, 2);
  net.add_arc(2, 3, 3);
  EXPECT_EQ(net.max_flow(0, 3), 5);
  // Re-entry: the network is already at its maximum — the second call
  // augments nothing and leaves the flows intact.
  const std::int64_t f01 = net.flow_on(a01);
  EXPECT_EQ(net.max_flow(0, 3), 0);
  EXPECT_EQ(net.flow_on(a01), f01);
  // Reset: all flow erased, the full computation replays.
  net.reset();
  EXPECT_EQ(net.flow_on(a01), 0);
  EXPECT_EQ(net.max_flow(0, 3), 5);
}

TEST(MaxFlowReuse, SetCapacityRewiresBetweenQueries) {
  FlowNetwork net(3);
  const auto a01 = net.add_arc(0, 1, 4);
  const auto a12 = net.add_arc(1, 2, 2);
  EXPECT_EQ(net.max_flow(0, 2), 2);
  // Widening the bottleneck after a reset changes the answer; the
  // rewire persists across further resets.
  net.reset();
  net.set_capacity(a12, 10);
  EXPECT_EQ(net.max_flow(0, 2), 4);
  net.reset();
  net.set_capacity(a01, 0);
  EXPECT_EQ(net.max_flow(0, 2), 0);
  // Re-wiring an arc that carries flow is a contract violation.
  net.reset();
  net.set_capacity(a01, 4);
  EXPECT_EQ(net.max_flow(0, 2), 4);
  EXPECT_THROW(net.set_capacity(a12, 1), PreconditionError);
}

TEST(MaxFlowReuse, ReentryAugmentsTheIncrement) {
  // Adding capacity between calls makes the next call push exactly the
  // new increment, on top of the flow already in place.
  FlowNetwork net(3);
  net.add_arc(0, 1, 3);
  const auto a12 = net.add_arc(1, 2, 3);
  EXPECT_EQ(net.max_flow(0, 2), 3);
  net.add_arc(0, 2, 2);
  EXPECT_EQ(net.max_flow(0, 2), 2);
  EXPECT_EQ(net.flow_on(a12), 3);  // prior flow undisturbed
}

TEST(MaxFlowOverflow, GuardNearInt64Max) {
  constexpr std::int64_t kHuge = std::numeric_limits<std::int64_t>::max() - 1;
  FlowNetwork net(3);
  net.add_arc(0, 2, kHuge);
  net.add_arc(0, 1, kHuge);
  net.add_arc(1, 2, kHuge);
  // Each phase pushes kHuge; the second augmentation would take the
  // total past int64 — the guard must throw, not wrap.
  EXPECT_THROW((void)net.max_flow(0, 2), PreconditionError);
}

TEST(MaxFlowOverflow, LargeCapacitiesStayExact) {
  constexpr std::int64_t kBig = 1ll << 62;
  FlowNetwork net(3);
  net.add_arc(0, 1, kBig);
  net.add_arc(1, 2, kBig - 7);
  EXPECT_EQ(net.max_flow(0, 2), kBig - 7);
}

TEST(MaxFlowOverflow, ArcPairCapacityIsChecked) {
  FlowNetwork net(2);
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  EXPECT_THROW(net.add_arc(0, 1, kMax, kMax), PreconditionError);
  EXPECT_THROW(net.add_arc(0, 1, -1), PreconditionError);
}

// Marks the nodes reachable from `from` through `next(v)` (v's
// successors), never entering a node marked in `blocked`.
template <class Next>
std::vector<char> reachable(std::span<const NodeId> from,
                            const std::vector<char>& blocked, Next next) {
  std::vector<char> reached(blocked.size(), 0);
  std::vector<NodeId> queue;
  const auto visit = [&](NodeId w) {
    if (blocked[w] || reached[w]) return;
    reached[w] = 1;
    queue.push_back(w);
  };
  for (const NodeId v : from) visit(v);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    for (const NodeId w : next(queue[head])) visit(w);
  }
  return reached;
}

// on_source_side() must equal residual reachability from s, recomputed
// from the recorded (forward-only) arcs and flow_on(): the sink-level
// early exit must never cut the final, failing BFS short.
void expect_source_side_is_reachability(const FlowNetwork& net,
                                        const std::vector<RecordedArc>& arcs,
                                        NodeId s) {
  std::vector<std::vector<NodeId>> residual(net.num_nodes());
  for (const RecordedArc& a : arcs) {
    const std::int64_t flow = net.flow_on(a.index);
    if (a.cap - flow > 0) residual[a.u].push_back(a.v);
    if (flow > 0) residual[a.v].push_back(a.u);
  }
  const std::vector<char> reached = reachable(
      {&s, 1}, std::vector<char>(net.num_nodes(), 0),
      [&](NodeId v) -> const std::vector<NodeId>& { return residual[v]; });
  for (NodeId v = 0; v < net.num_nodes(); ++v) {
    EXPECT_EQ(net.on_source_side(v), reached[v] != 0) << "node " << v;
  }
}

TEST(MaxFlowCut, SourceSideIsResidualReachability) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    FlowNetwork net(30);
    const std::vector<RecordedArc> arcs = build_random_dag(net, 30, seed);
    (void)net.max_flow(0, 29);
    expect_source_side_is_reachability(net, arcs, 0);
  }
  // Hong–Kung node splits (v_in = v, v_out = n + v) of B8 and W8, with
  // the first level as sources and the last as sinks.
  const topo::Butterfly b8(8);
  const topo::WrappedButterfly w8(8);
  const struct {
    const char* name;
    const Graph& g;
    std::vector<NodeId> sources, sinks;
  } cases[] = {
      {"B8", b8.graph(), b8.level_nodes(0), b8.level_nodes(b8.dims())},
      {"W8", w8.graph(), w8.level_nodes(0), w8.level_nodes(w8.dims() - 1)},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    const NodeId n = c.g.num_nodes(), s = 2 * n, t = 2 * n + 1;
    FlowNetwork net(2 * n + 2);
    std::vector<RecordedArc> arcs;
    const auto add = [&](NodeId u, NodeId v, std::int64_t cap) {
      arcs.push_back({u, v, cap, net.add_arc(u, v, cap)});
    };
    for (NodeId v = 0; v < n; ++v) add(v, n + v, 1);
    for (const auto& [u, v] : c.g.edges()) {
      add(n + u, v, kUnboundedCapacity);
      add(n + v, u, kUnboundedCapacity);
    }
    for (const NodeId v : c.sources) add(s, v, kUnboundedCapacity);
    for (const NodeId v : c.sinks) add(n + v, t, kUnboundedCapacity);
    const std::int64_t flow = net.max_flow(s, t);
    expect_source_side_is_reachability(net, arcs, s);
    // min_vertex_cut's nodes, removed from the graph, leave no sink
    // reachable from the sources.
    const VertexCut cut = min_vertex_cut(c.g, c.sources, c.sinks);
    EXPECT_EQ(cut.size, flow);
    EXPECT_EQ(cut.nodes.size(), static_cast<std::size_t>(cut.size));
    std::vector<char> removed(n, 0);
    for (const NodeId v : cut.nodes) removed[v] = 1;
    const std::vector<char> reached = reachable(
        c.sources, removed, [&](NodeId v) { return c.g.neighbors(v); });
    for (const NodeId v : c.sinks) EXPECT_FALSE(reached[v]) << "sink " << v;
  }
}

TEST(Connectivity, KnownValues) {
  EXPECT_EQ(vertex_connectivity(topo::Hypercube(4).graph()), 4);
  EXPECT_EQ(edge_connectivity(topo::Hypercube(4).graph()), 4);
  EXPECT_EQ(vertex_connectivity(topo::complete_graph(6)), 5);
  EXPECT_EQ(edge_connectivity(topo::complete_graph(6)), 5);

  GraphBuilder cycle(8);
  for (NodeId v = 0; v < 8; ++v) cycle.add_edge(v, (v + 1) % 8);
  const Graph c8 = std::move(cycle).build();
  EXPECT_EQ(vertex_connectivity(c8), 2);
  EXPECT_EQ(edge_connectivity(c8), 2);

  GraphBuilder path(5);
  for (NodeId v = 0; v + 1 < 5; ++v) path.add_edge(v, v + 1);
  const Graph p5 = std::move(path).build();
  EXPECT_EQ(vertex_connectivity(p5), 1);
  EXPECT_EQ(edge_connectivity(p5), 1);

  GraphBuilder split(4);
  split.add_edge(0, 1);
  split.add_edge(2, 3);
  const Graph disconnected = std::move(split).build();
  EXPECT_EQ(vertex_connectivity(disconnected), 0);
  EXPECT_EQ(edge_connectivity(disconnected), 0);
}

TEST(Connectivity, MinVertexSeparatorOnHypercube) {
  // Antipodal nodes of Q3 are non-adjacent with kappa(u, v) = 3.
  const topo::Hypercube q(3);
  EXPECT_EQ(min_vertex_separator(q.graph(), 0, 7), 3);
  EXPECT_THROW((void)min_vertex_separator(q.graph(), 0, 1),
               PreconditionError);
}

}  // namespace
}  // namespace bfly::algo
