#include "algo/maxflow.hpp"

#include <algorithm>

#include "core/error.hpp"

namespace bfly::algo {

std::uint32_t FlowNetwork::add_arc(NodeId u, NodeId v, std::int64_t capacity,
                                   std::int64_t reverse_capacity) {
  BFLY_CHECK(u < num_nodes() && v < num_nodes(), "arc endpoint range");
  BFLY_CHECK(capacity >= 0 && reverse_capacity >= 0,
             "capacity must be nonnegative");
  // Flow pushed forward lands on the reverse residual (and vice versa),
  // so the pair's combined capacity is the largest residual either side
  // can ever reach — cap it below the int64 edge once, here.
  BFLY_CHECK(capacity <=
                 std::numeric_limits<std::int64_t>::max() - reverse_capacity,
             "arc pair capacity overflows int64");
  const auto fwd = static_cast<std::uint32_t>(arcs_.size());
  arcs_.push_back({v, head_[u], capacity, capacity});
  head_[u] = fwd;
  arcs_.push_back({u, head_[v], reverse_capacity, reverse_capacity});
  head_[v] = fwd + 1;
  return fwd;
}

void FlowNetwork::reset() {
  for (Arc& arc : arcs_) arc.capacity = arc.original;
}

void FlowNetwork::set_capacity(std::uint32_t arc, std::int64_t capacity) {
  BFLY_CHECK(arc < arcs_.size(), "arc index out of range");
  BFLY_CHECK(capacity >= 0, "capacity must be nonnegative");
  BFLY_CHECK(flow_on(arc) == 0,
             "set_capacity on an arc carrying flow — reset() first");
  BFLY_CHECK(capacity < std::numeric_limits<std::int64_t>::max() -
                            arcs_[arc ^ 1u].original,
             "arc pair capacity overflows int64");
  Arc& a = arcs_[arc];
  a.capacity = a.original = capacity;
}

bool FlowNetwork::bfs_levels(NodeId s, NodeId t) {
  level_.assign(num_nodes(), kUnreached);
  queue_.clear();
  level_[s] = 0;
  queue_.push_back(s);
  for (std::size_t head = 0; head < queue_.size(); ++head) {
    const NodeId v = queue_[head];
    // The first node dequeued at the sink's level means that level is
    // complete; the DFS never needs anything farther out. A failing BFS
    // never stops here, so on_source_side() reads a complete one.
    if (level_[v] == level_[t]) break;
    for (std::uint32_t a = head_[v]; a != kNoArc; a = arcs_[a].next) {
      const NodeId w = arcs_[a].to;
      if (arcs_[a].capacity > 0 && level_[w] == kUnreached) {
        level_[w] = level_[v] + 1;
        queue_.push_back(w);
      }
    }
  }
  return level_[t] != kUnreached;
}

std::int64_t FlowNetwork::dfs_push(NodeId v, NodeId t, std::int64_t limit) {
  if (v == t) return limit;
  for (std::uint32_t& a = iter_[v]; a != kNoArc; a = arcs_[a].next) {
    Arc& arc = arcs_[a];
    if (arc.capacity > 0 && level_[arc.to] == level_[v] + 1) {
      const std::int64_t pushed =
          dfs_push(arc.to, t, std::min(limit, arc.capacity));
      if (pushed > 0) {
        arc.capacity -= pushed;
        arcs_[a ^ 1u].capacity += pushed;
        return pushed;
      }
    }
  }
  return 0;
}

std::int64_t FlowNetwork::max_flow(NodeId s, NodeId t) {
  BFLY_CHECK(s < num_nodes() && t < num_nodes(), "terminal out of range");
  BFLY_CHECK(s != t, "source and sink must differ");
  std::int64_t total = 0;
  while (bfs_levels(s, t)) {
    iter_ = head_;
    std::int64_t phase = 0;
    while (true) {
      const std::int64_t pushed =
          dfs_push(s, t, std::numeric_limits<std::int64_t>::max());
      if (pushed == 0) break;
      BFLY_CHECK(pushed <= std::numeric_limits<std::int64_t>::max() - total,
                 "maximum flow overflows int64");
      total += pushed;
      phase += pushed;
    }
    // The level phase is an exact residual BFS up to the sink's level,
    // so a reachable sink always admits at least one augmentation.
    BFLY_ASSERT_MSG(phase > 0, "level phase pushed no flow");
  }
  return total;
}

bool FlowNetwork::on_source_side(NodeId v) const {
  BFLY_CHECK(!level_.empty(), "call max_flow first");
  return level_[v] != kUnreached;
}

std::int64_t FlowNetwork::flow_on(std::uint32_t arc) const {
  BFLY_CHECK(arc < arcs_.size(), "arc index out of range");
  return arcs_[arc].original - arcs_[arc].capacity;
}

std::int64_t max_edge_disjoint_paths(const Graph& g,
                                     std::span<const NodeId> from,
                                     std::span<const NodeId> to) {
  const NodeId n = g.num_nodes();
  FlowNetwork net(n + 2);
  const NodeId s = n, t = n + 1;
  // Undirected edge -> one unit of capacity usable in either direction:
  // a single arc pair with unit capacity on both sides. Net flow across
  // the pair is at most one unit either way, which (by flow
  // decomposition) is exactly "each edge carries at most one path".
  for (const auto& [u, v] : g.edges()) net.add_arc(u, v, 1, 1);
  for (const NodeId v : from) net.add_arc(s, v, kUnboundedCapacity);
  for (const NodeId v : to) net.add_arc(v, t, kUnboundedCapacity);
  return net.max_flow(s, t);
}

NodeSplitNetwork make_node_split_network(const Graph& g,
                                         std::int64_t split_capacity) {
  const NodeId n = g.num_nodes();
  BFLY_CHECK(n >= 1, "node-split network needs a nonempty graph");
  NodeSplitNetwork ns{FlowNetwork(2 * n + 2), n};
  for (NodeId v = 0; v < n; ++v) {
    ns.net.add_arc(ns.in_node(v), ns.out_node(v), split_capacity);
  }
  for (NodeId v = 0; v < n; ++v) ns.net.add_arc(ns.source(), v, 0);
  for (NodeId v = 0; v < n; ++v) ns.net.add_arc(ns.out_node(v), ns.sink(), 0);
  for (NodeId u = 0; u < n; ++u) {
    const auto nb = g.neighbors(u);
    for (std::size_t i = 0; i < nb.size(); ++i) {
      const NodeId v = nb[i];
      if (v <= u) continue;                  // each undirected pair once
      if (i > 0 && nb[i - 1] == v) continue;  // collapse parallel edges
      ns.net.add_arc(ns.out_node(u), ns.in_node(v), kUnboundedCapacity);
      ns.net.add_arc(ns.out_node(v), ns.in_node(u), kUnboundedCapacity);
    }
  }
  return ns;
}

std::int64_t max_vertex_disjoint_paths(const Graph& g,
                                       std::span<const NodeId> from,
                                       std::span<const NodeId> to) {
  NodeSplitNetwork ns = make_node_split_network(g, 1);
  // Endpoints enter at v_in / leave at v_out with unit capacity, so every
  // node — endpoints included — carries at most one path.
  for (const NodeId v : from) ns.net.set_capacity(ns.source_arc(v), 1);
  for (const NodeId v : to) ns.net.set_capacity(ns.sink_arc(v), 1);
  return ns.net.max_flow(ns.source(), ns.sink());
}

VertexCut min_vertex_cut(const Graph& g, std::span<const NodeId> sources,
                         std::span<const NodeId> sinks) {
  NodeSplitNetwork ns = make_node_split_network(g, 1);
  // Sources enter at v_in (the source node itself is cuttable), sinks
  // exit at v_out (likewise cuttable), both with infinite multiplicity.
  for (const NodeId v : sources) {
    ns.net.set_capacity(ns.source_arc(v), kUnboundedCapacity);
  }
  for (const NodeId v : sinks) {
    ns.net.set_capacity(ns.sink_arc(v), kUnboundedCapacity);
  }
  VertexCut cut;
  cut.size = ns.net.max_flow(ns.source(), ns.sink());
  // A node is in the minimum cut iff its split arc crosses the residual
  // reachability boundary.
  for (NodeId v = 0; v < ns.n; ++v) {
    if (ns.net.on_source_side(ns.in_node(v)) &&
        !ns.net.on_source_side(ns.out_node(v))) {
      cut.nodes.push_back(v);
    }
  }
  return cut;
}

std::int64_t min_vertex_separator(const Graph& g, NodeId u, NodeId v) {
  BFLY_CHECK(u < g.num_nodes() && v < g.num_nodes() && u != v,
             "separator endpoints must be distinct in-range nodes");
  BFLY_CHECK(!g.has_edge(u, v),
             "adjacent nodes admit no vertex separator");
  NodeSplitNetwork ns = make_node_split_network(g, 1);
  // Starting at u_out and ending at v_in leaves the endpoints' own split
  // arcs off every path, so neither endpoint is cuttable.
  return ns.net.max_flow(ns.out_node(u), ns.in_node(v));
}

std::int64_t vertex_connectivity(const Graph& g) {
  const NodeId n = g.num_nodes();
  BFLY_CHECK(n >= 1, "vertex connectivity of the empty graph is undefined");
  if (n == 1) return 0;
  NodeId pivot = 0;
  for (NodeId v = 1; v < n; ++v) {
    if (g.degree(v) < g.degree(pivot)) pivot = v;
  }
  std::int64_t best = static_cast<std::int64_t>(n) - 1;  // complete graph
  NodeSplitNetwork ns = make_node_split_network(g, 1);
  const auto separator = [&](NodeId a, NodeId b) {
    ns.net.reset();
    return ns.net.max_flow(ns.out_node(a), ns.in_node(b));
  };
  std::vector<bool> closed(n, false);
  closed[pivot] = true;
  std::vector<NodeId> nbrs;
  for (const NodeId w : g.neighbors(pivot)) {
    if (!closed[w]) nbrs.push_back(w);  // dedupes parallel edges
    closed[w] = true;
  }
  for (NodeId u = 0; u < n && best > 0; ++u) {
    if (!closed[u]) best = std::min(best, separator(pivot, u));
  }
  for (std::size_t i = 0; i < nbrs.size() && best > 0; ++i) {
    for (std::size_t j = i + 1; j < nbrs.size() && best > 0; ++j) {
      if (!g.has_edge(nbrs[i], nbrs[j])) {
        best = std::min(best, separator(nbrs[i], nbrs[j]));
      }
    }
  }
  return best;
}

std::int64_t edge_connectivity(const Graph& g) {
  const NodeId n = g.num_nodes();
  BFLY_CHECK(n >= 2, "edge connectivity needs at least two nodes");
  FlowNetwork net(n);
  for (NodeId u = 0; u < n; ++u) {
    const auto nb = g.neighbors(u);
    for (std::size_t i = 0; i < nb.size();) {
      const NodeId v = nb[i];
      std::size_t mult = 1;
      while (i + mult < nb.size() && nb[i + mult] == v) ++mult;
      if (v > u) {
        const auto cap = static_cast<std::int64_t>(mult);
        net.add_arc(u, v, cap, cap);
      }
      i += mult;
    }
  }
  std::int64_t best = kUnboundedCapacity;
  for (NodeId v = 1; v < n && best > 0; ++v) {
    net.reset();
    best = std::min(best, net.max_flow(0, v));
  }
  return best;
}

}  // namespace bfly::algo
