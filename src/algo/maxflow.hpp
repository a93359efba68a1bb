// Dinic's maximum-flow algorithm on explicit directed flow networks.
//
// Substrate for several of the paper's side results and for the flow
// certification subsystem (src/cert/):
//   * the directed input/output bisection ("bandwidth") of [13] quoted in
//     Section 1.2 — a minimum directed cut;
//   * Menger-type counts of edge-disjoint paths (Lemma 2.5/2.8 checks);
//   * the Hong–Kung dominator bound of Section 1.6 — a minimum vertex
//     cut via the standard node-splitting reduction;
//   * certified vertex/edge connectivity, the class-wide expansion lower
//     bounds of cert::node_expansion_class_bound, and the witness
//     certificates of cert::certify_edge_boundary.
//
// A FlowNetwork is reusable across queries: max_flow() is re-entrant
// (each call augments from the current residual state), reset() restores
// the original capacities, and set_capacity() re-wires individual arcs
// (typically super-source/super-sink attachments) between queries, so a
// large node-split network is built once and answers many certification
// queries. Each Dinic phase levels the residual network with one BFS
// over the CSR arc lists that stops once the sink's level is complete,
// which keeps B1024-scale certification linear in arcs per phase.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "core/graph.hpp"
#include "core/types.hpp"

namespace bfly::algo {

/// Capacity used for "effectively unbounded" arcs. Far above any flow a
/// unit-capacity reduction can carry, far below the int64 overflow guard.
inline constexpr std::int64_t kUnboundedCapacity = 1ll << 40;

/// A directed flow network with residual arcs.
class FlowNetwork {
 public:
  explicit FlowNetwork(NodeId num_nodes) : head_(num_nodes, kNoArc) {}

  [[nodiscard]] NodeId num_nodes() const noexcept {
    return static_cast<NodeId>(head_.size());
  }

  [[nodiscard]] std::size_t num_arcs() const noexcept { return arcs_.size(); }

  /// Adds a directed arc u -> v with the given capacity and its residual
  /// reverse arc v -> u with `reverse_capacity` (0 for a purely directed
  /// arc; equal to `capacity` to model one undirected edge as a single
  /// arc pair).
  /// Returns the arc index; the reverse arc is always at index ^ 1.
  std::uint32_t add_arc(NodeId u, NodeId v, std::int64_t capacity,
                        std::int64_t reverse_capacity = 0);

  /// Maximum flow from s to t (Dinic). Re-entrant: every call augments
  /// from the CURRENT residual state and returns the flow pushed by this
  /// call only — a second call with the same terminals returns 0, and a
  /// call after re-wiring (reset()/set_capacity()) pushes exactly the
  /// increment the new capacities admit. For a fresh computation on a
  /// reused network, call reset() first. Throws PreconditionError if the
  /// accumulated value would overflow int64.
  [[nodiscard]] std::int64_t max_flow(NodeId s, NodeId t);

  /// Restores every arc to its original capacity (all flow erased).
  /// After reset(), flow_on() is 0 for every arc.
  void reset();

  /// Re-wires one arc: its capacity (and recorded original) becomes
  /// `capacity`; the paired reverse arc is untouched. Only legal while
  /// the arc carries no flow — reset() first when re-wiring between
  /// queries. This is how certification reuses one node-split network
  /// for many source/sink sets.
  void set_capacity(std::uint32_t arc, std::int64_t capacity);

  /// After max_flow: true iff v is reachable from s in the residual
  /// network (i.e. v is on the source side of the minimum cut).
  [[nodiscard]] bool on_source_side(NodeId v) const;

  /// Net flow currently on arc `arc` (as returned by add_arc). Negative
  /// when the paired reverse arc carries more flow than this direction
  /// (possible only for arcs created with reverse_capacity > 0).
  [[nodiscard]] std::int64_t flow_on(std::uint32_t arc) const;

 private:
  static constexpr std::uint32_t kNoArc =
      std::numeric_limits<std::uint32_t>::max();
  static constexpr std::uint32_t kUnreached = kNoArc;

  struct Arc {
    NodeId to;
    std::uint32_t next;      // next arc out of the same tail
    std::int64_t capacity;   // residual capacity
    std::int64_t original;   // original capacity (for flow_on)
  };

  bool bfs_levels(NodeId s, NodeId t);
  std::int64_t dfs_push(NodeId v, NodeId t, std::int64_t limit);

  std::vector<Arc> arcs_;
  std::vector<std::uint32_t> head_;
  std::vector<std::uint32_t> level_;
  std::vector<std::uint32_t> iter_;
  std::vector<NodeId> queue_;  // BFS queue, reused across phases
};

/// Maximum number of pairwise EDGE-disjoint undirected paths between the
/// node sets A and B in g (each undirected edge usable once, in either
/// direction). Standard reduction: each undirected edge becomes two
/// opposite arcs of capacity 1; super-source to A, B to super-sink.
[[nodiscard]] std::int64_t max_edge_disjoint_paths(
    const Graph& g, std::span<const NodeId> from, std::span<const NodeId> to);

/// Maximum number of FULLY vertex-disjoint paths between A and B (every
/// node, endpoints included, used by at most one path). Node-splitting
/// reduction.
[[nodiscard]] std::int64_t max_vertex_disjoint_paths(
    const Graph& g, std::span<const NodeId> from, std::span<const NodeId> to);

/// The Hong–Kung node-splitting reduction over g, prebuilt for reuse:
/// node v splits into v_in (= v) and v_out (= n + v) joined by an arc of
/// `split_capacity`; every undirected edge {u, v} (parallel edges
/// collapsed into one arc of unbounded capacity) becomes u_out -> v_in
/// and v_out -> u_in; a super-source (node 2n) and super-sink (2n + 1)
/// are pre-wired to every v_in / from every v_out with capacity 0, so a
/// query toggles exactly the attachments it needs via set_capacity() and
/// resets between queries.
struct NodeSplitNetwork {
  FlowNetwork net;
  NodeId n = 0;  ///< nodes of the underlying graph

  [[nodiscard]] NodeId in_node(NodeId v) const { return v; }
  [[nodiscard]] NodeId out_node(NodeId v) const { return n + v; }
  [[nodiscard]] NodeId source() const { return 2 * n; }
  [[nodiscard]] NodeId sink() const { return 2 * n + 1; }
  /// Arc v_in -> v_out.
  [[nodiscard]] std::uint32_t split_arc(NodeId v) const { return 2 * v; }
  /// Arc source -> v_in (capacity 0 until a query enables it).
  [[nodiscard]] std::uint32_t source_arc(NodeId v) const {
    return 2 * n + 2 * v;
  }
  /// Arc v_out -> sink (capacity 0 until a query enables it).
  [[nodiscard]] std::uint32_t sink_arc(NodeId v) const {
    return 4 * n + 2 * v;
  }
};

[[nodiscard]] NodeSplitNetwork make_node_split_network(
    const Graph& g, std::int64_t split_capacity = 1);

struct VertexCut {
  std::int64_t size = 0;
  std::vector<NodeId> nodes;  ///< one minimum cut (every node cuttable)
};

/// Minimum number of nodes whose removal intercepts every path from
/// `sources` to `sinks` — ALL nodes are cuttable, including sources and
/// sinks themselves (so the value is always finite). This is the
/// dominator-set quantity in the Hong–Kung bound the paper cites in
/// Section 1.6: every input-to-S path must pass through the cut.
[[nodiscard]] VertexCut min_vertex_cut(const Graph& g,
                                       std::span<const NodeId> sources,
                                       std::span<const NodeId> sinks);

/// Minimum number of OTHER nodes whose removal separates u from v
/// (u, v not cuttable) — the Menger quantity kappa(u, v). u and v must
/// be distinct and non-adjacent, else no such separator exists.
[[nodiscard]] std::int64_t min_vertex_separator(const Graph& g, NodeId u,
                                                NodeId v);

/// Exact vertex connectivity kappa(G), n - 1 for complete graphs, 0 when
/// disconnected. Even's flow algorithm around a minimum-degree pivot p:
/// every minimum separator either avoids p — then it separates p from
/// some non-neighbor, caught by min_vertex_separator(p, u) — or contains
/// p, in which case minimality forces p to have non-adjacent neighbors
/// x, y in two different components, caught by min_vertex_separator(x, y).
/// O(n + deg(p)^2) max-flow calls on ONE reused node-split network.
[[nodiscard]] std::int64_t vertex_connectivity(const Graph& g);

/// Exact edge connectivity lambda(G) (parallel edges counted with
/// multiplicity), 0 when disconnected. n - 1 max-flow calls from a fixed
/// pivot on one reused network: a minimum edge cut separates the pivot
/// from some node on the other side.
[[nodiscard]] std::int64_t edge_connectivity(const Graph& g);

}  // namespace bfly::algo
