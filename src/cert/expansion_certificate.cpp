#include "cert/expansion_certificate.hpp"

#include <vector>

#include "algo/maxflow.hpp"
#include "core/error.hpp"

namespace bfly::cert {
namespace {

// Membership flags for `set` with duplicates collapsed; throws on
// out-of-range nodes, returns the distinct count.
std::size_t membership(const Graph& g, std::span<const NodeId> set,
                       std::vector<char>& in_set) {
  in_set.assign(g.num_nodes(), 0);
  std::size_t distinct = 0;
  for (const NodeId v : set) {
    BFLY_CHECK(v < g.num_nodes(), "witness node out of range");
    distinct += 1 - in_set[v];
    in_set[v] = 1;
  }
  return distinct;
}

}  // namespace

EdgeBoundaryCertificate certify_edge_boundary(const Graph& g,
                                              std::span<const NodeId> set,
                                              std::int64_t claimed) {
  const NodeId n = g.num_nodes();
  std::vector<char> in_set;
  const std::size_t members = membership(g, set, in_set);
  BFLY_CHECK(members > 0 && members < n,
             "edge-boundary witness must be a nonempty proper subset");
  algo::FlowNetwork net(n + 2);
  const NodeId s = n, t = n + 1;
  // Parallel edges collapse into one arc pair of capacity = multiplicity
  // (fewer arcs for every BFS and DFS to scan); capacity on both sides
  // since either endpoint may sit in S.
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
  for (NodeId v = 0; v < n; ++v) {
    if (in_set[v]) {
      net.add_arc(s, v, algo::kUnboundedCapacity);
    } else {
      net.add_arc(v, t, algo::kUnboundedCapacity);
    }
  }
  EdgeBoundaryCertificate cert;
  cert.claimed = claimed;
  // The unbounded terminal arcs pin S to the source side and V \ S to
  // the sink side, so the unique finite cut is the partition (S, V \ S)
  // itself: the flow value IS |∂S|, independently of how the witness
  // was produced.
  cert.flow = net.max_flow(s, t);
  cert.certified = cert.flow == claimed;
  return cert;
}

NodeBoundaryCertificate certify_node_boundary(const Graph& g,
                                              std::span<const NodeId> set,
                                              std::int64_t claimed) {
  const NodeId n = g.num_nodes();
  std::vector<char> in_set;
  const std::size_t members = membership(g, set, in_set);
  BFLY_CHECK(members > 0 && members < n,
             "node-boundary witness must be a nonempty proper subset");
  // 0 = S, 1 = N(S), 2 = B.
  std::vector<char> side(n, 2);
  for (NodeId v = 0; v < n; ++v) {
    if (in_set[v]) side[v] = 0;
  }
  NodeBoundaryCertificate cert;
  cert.claimed = claimed;
  for (NodeId u = 0; u < n; ++u) {
    if (side[u] != 0) continue;
    for (const NodeId v : g.neighbors(u)) {
      if (side[v] == 2) {
        side[v] = 1;
        ++cert.recounted;
      }
    }
  }
  const auto b_count = static_cast<std::int64_t>(n - members) - cert.recounted;
  if (b_count == 0) {
    // S ∪ N(S) = V: nothing to separate; |N(S)| = n - |S| is forced.
    cert.flow = cert.recounted;
    cert.tight = true;
    cert.certified = cert.recounted == claimed;
    return cert;
  }
  algo::NodeSplitNetwork ns = algo::make_node_split_network(g, 1);
  // Make S and B uncuttable (unbounded split arcs) and attach the
  // terminals through them, leaving exactly the candidate separator
  // nodes — N(S) and beyond — with unit splits.
  for (NodeId v = 0; v < n; ++v) {
    if (side[v] == 0) {
      ns.net.set_capacity(ns.source_arc(v), algo::kUnboundedCapacity);
      ns.net.set_capacity(ns.split_arc(v), algo::kUnboundedCapacity);
    } else if (side[v] == 2) {
      ns.net.set_capacity(ns.sink_arc(v), algo::kUnboundedCapacity);
      ns.net.set_capacity(ns.split_arc(v), algo::kUnboundedCapacity);
    }
  }
  cert.flow = ns.net.max_flow(ns.source(), ns.sink());
  cert.tight = cert.flow == cert.recounted;
  cert.certified = cert.recounted == claimed && cert.flow <= cert.recounted;
  return cert;
}

ExpansionClassBound expansion_class_bounds(const Graph& g) {
  ExpansionClassBound bound;
  bound.kappa = algo::vertex_connectivity(g);
  bound.lambda = algo::edge_connectivity(g);
  return bound;
}

std::int64_t node_expansion_class_bound(const ExpansionClassBound& bound,
                                        NodeId n, std::size_t k) {
  BFLY_CHECK(k >= 1 && k < n, "size class must satisfy 1 <= k < n");
  const auto rest = static_cast<std::int64_t>(n - k);
  return bound.kappa < rest ? bound.kappa : rest;
}

std::int64_t edge_expansion_class_bound(const ExpansionClassBound& bound) {
  return bound.lambda;
}

}  // namespace bfly::cert
