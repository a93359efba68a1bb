#include "cert/superconcentration.hpp"

#include <numeric>

#include "algo/maxflow.hpp"
#include "core/error.hpp"
#include "core/math_util.hpp"
#include "core/rng.hpp"

namespace bfly::cert {
namespace {

// C(2n, n) - 1, the size of the full superconcentration query family,
// saturated at `cap` (so callers can compare without overflow).
std::uint64_t query_family_size(std::uint64_t n, std::uint64_t cap) {
  unsigned __int128 c = 1;
  for (std::uint64_t i = 1; i <= n; ++i) {
    c = c * (n + i) / i;  // exact: c is always a binomial prefix
    if (c > cap) return cap + 1;
  }
  return static_cast<std::uint64_t>(c - 1);
}

// Next k-subset bitmask in colex order (Gosper's hack).
std::uint64_t next_subset(std::uint64_t mask) {
  const std::uint64_t low = mask & (~mask + 1);
  const std::uint64_t ripple = mask + low;
  return ripple | (((mask ^ ripple) >> 2) / low);
}

}  // namespace

ConcatenatedButterflyPair concatenated_butterfly_pair(std::uint32_t n) {
  BFLY_CHECK(n >= 2, "butterfly pair needs at least 2 columns");
  ConcatenatedButterflyPair pair;
  pair.n = n;
  pair.dims = log2_exact(n);
  const std::uint32_t d = pair.dims;
  GraphBuilder gb(n * (2 * d + 1));
  const auto id = [n](std::uint32_t col, std::uint32_t lvl) {
    return static_cast<NodeId>(lvl * n + col);
  };
  for (std::uint32_t lvl = 0; lvl < 2 * d; ++lvl) {
    // First half crosses bits d-1..0, second half 0..d-1: the second
    // butterfly is the mirror image of the first, glued at level d.
    const std::uint32_t bit = lvl < d ? d - 1 - lvl : lvl - d;
    for (std::uint32_t w = 0; w < n; ++w) {
      gb.add_edge(id(w, lvl), id(w, lvl + 1));
      gb.add_edge(id(w, lvl), id(w ^ (1u << bit), lvl + 1));
    }
  }
  pair.graph = std::move(gb).build();
  pair.inputs.reserve(n);
  pair.outputs.reserve(n);
  for (std::uint32_t w = 0; w < n; ++w) {
    pair.inputs.push_back(id(w, 0));
    pair.outputs.push_back(id(w, 2 * d));
  }
  return pair;
}

SuperconcentrationCertificate certify_superconcentration(
    const Graph& g, std::span<const NodeId> inputs,
    std::span<const NodeId> outputs, const SuperconcOptions& opts) {
  const std::size_t n_io = inputs.size();
  BFLY_CHECK(n_io >= 1 && n_io == outputs.size(),
             "need equally many inputs and outputs");
  std::vector<char> seen(g.num_nodes(), 0);
  for (const NodeId v : inputs) {
    BFLY_CHECK(v < g.num_nodes() && !seen[v], "terminals must be distinct");
    seen[v] = 1;
  }
  for (const NodeId v : outputs) {
    BFLY_CHECK(v < g.num_nodes() && !seen[v], "terminals must be distinct");
    seen[v] = 1;
  }

  algo::NodeSplitNetwork ns = algo::make_node_split_network(g, 1);
  const auto wire = [&](std::span<const NodeId> io, std::uint64_t mask,
                        bool sources) {
    for (std::size_t i = 0; i < io.size(); ++i) {
      const std::int64_t cap = (mask >> i) & 1u;
      ns.net.set_capacity(
          sources ? ns.source_arc(io[i]) : ns.sink_arc(io[i]), cap);
    }
  };
  const auto query = [&](std::uint64_t amask, std::uint64_t bmask,
                         std::int64_t k, SuperconcentrationCertificate& cert) {
    ns.net.reset();
    wire(inputs, amask, /*sources=*/true);
    wire(outputs, bmask, /*sources=*/false);
    ++cert.queries;
    // Source caps sum to k, so flow <= k; == k iff the k disjoint
    // paths exist (Menger).
    if (ns.net.max_flow(ns.source(), ns.sink()) < k) ++cert.failures;
  };

  SuperconcentrationCertificate cert;
  const std::uint64_t family =
      n_io <= 32 ? query_family_size(n_io, opts.max_exhaustive_queries)
                 : opts.max_exhaustive_queries + 1;
  if (family <= opts.max_exhaustive_queries) {
    cert.exhaustive = true;
    const std::uint64_t limit = 1ull << n_io;
    for (std::size_t k = 1; k <= n_io; ++k) {
      const std::uint64_t first = (1ull << k) - 1;
      for (std::uint64_t amask = first; amask < limit;
           amask = next_subset(amask)) {
        for (std::uint64_t bmask = first; bmask < limit;
             bmask = next_subset(bmask)) {
          query(amask, bmask, static_cast<std::int64_t>(k), cert);
        }
        if (amask == limit - (limit >> k)) break;  // last k-subset
      }
    }
    BFLY_ASSERT_MSG(cert.queries == family, "query family miscounted");
  } else {
    Rng rng(opts.seed);
    std::vector<std::size_t> in_idx(n_io), out_idx(n_io);
    std::iota(in_idx.begin(), in_idx.end(), 0u);
    std::iota(out_idx.begin(), out_idx.end(), 0u);
    for (std::uint64_t q = 0; q < opts.samples; ++q) {
      const auto k = static_cast<std::size_t>(1 + rng.below(n_io));
      shuffle(in_idx, rng);
      shuffle(out_idx, rng);
      std::uint64_t amask = 0, bmask = 0;
      for (std::size_t i = 0; i < k; ++i) {
        amask |= 1ull << in_idx[i];
        bmask |= 1ull << out_idx[i];
      }
      query(amask, bmask, static_cast<std::int64_t>(k), cert);
    }
  }
  cert.certified = cert.failures == 0;
  return cert;
}

}  // namespace bfly::cert
