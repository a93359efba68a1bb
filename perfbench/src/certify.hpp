// certify's pieces, shared with the traced replay: witness sets on large
// butterflies, their flow certificates, and the exhaustive
// superconcentration check on the concatenated B8 pair.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cert/superconcentration.hpp"
#include "core/graph.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace cert = bfly::cert;
using bfly::Graph;
using bfly::NodeId;

struct Witness {
  std::string name;               ///< instance and set shape
  std::size_t graph = 0;          ///< index into CertSetup::graphs
  std::vector<NodeId> set;
  std::uint64_t edge_recount = 0;  ///< the benchmark's own |∂S|
  std::uint64_t node_recount = 0;  ///< the benchmark's own |N(S)|
};

struct CertSetup {
  std::vector<ref::Instance> instances;
  std::vector<Graph> graphs;
  std::vector<Witness> witnesses;
  std::unique_ptr<cert::ConcatenatedButterflyPair> pair;
};

/// Builds the graphs and the pair, places the witness sets from the seed
/// and recounts their boundaries.
[[nodiscard]] CertSetup cert_setup(std::uint64_t seed);

struct CertRound {
  std::vector<double> edge_s;  ///< certify_edge_boundary, per witness
  std::vector<double> node_s;  ///< certify_node_boundary, per witness
  double superconc_s = 0.0; ///< certify_superconcentration on the pair
  std::uint64_t superconc_queries = 0;
};

/// Certifies every witness both ways and runs the superconcentration
/// check; counts attempts and failures and checks every certificate.
/// Spans: cert.edge_boundary, cert.node_boundary, cert.superconc.
[[nodiscard]] CertRound cert_round(const CertSetup& s, RunResult& out,
                                   Tracer* tr = nullptr);

}  // namespace perfbench
