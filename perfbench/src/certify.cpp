// certify: flow certificates in process — edge- and node-boundary
// witness sets on B256..B1024 and Wn, and the exhaustive
// superconcentration check on the concatenated B8 pair.
#include "certify.hpp"

#include <iostream>

#include "cert/expansion_certificate.hpp"
#include "checks.hpp"
#include "topology/butterfly.hpp"
#include "topology/wrapped_butterfly.hpp"

namespace perfbench {

namespace {

using ref::Fam;
using ref::Instance;

const std::vector<Instance>& cert_instances() {
  static const std::vector<Instance> k = {
      {Fam::kB, 256}, {Fam::kB, 512}, {Fam::kB, 1024}, {Fam::kW, 256},
      {Fam::kW, 1024}};
  return k;
}

std::uint32_t levels(const Instance& inst) {
  return inst.fam == Fam::kB ? inst.dims() + 1 : inst.dims();
}

/// Nodes on levels [lo, hi] whose column's top `t` bits equal `prefix`.
std::vector<NodeId> column_block(const Instance& inst, std::uint32_t lo,
                                 std::uint32_t hi, std::uint32_t t,
                                 std::uint32_t prefix) {
  std::vector<NodeId> set;
  const std::uint32_t d = inst.dims();
  for (std::uint32_t level = lo; level <= hi; ++level) {
    for (std::uint32_t w = 0; w < inst.n; ++w) {
      if ((w >> (d - t)) == prefix) set.push_back(level * inst.n + w);
    }
  }
  return set;
}

/// Nodes within `radius` hops of `center`, over the benchmark's own edges.
std::vector<NodeId> ball(const Instance& inst,
                         const std::vector<ref::Edge>& edges, NodeId center,
                         std::uint32_t radius) {
  std::vector<std::vector<NodeId>> adj(inst.nodes());
  for (const auto& [u, v] : edges) {
    adj[u].push_back(v);
    adj[v].push_back(u);
  }
  std::vector<std::uint32_t> dist(inst.nodes(), radius + 1);
  std::vector<NodeId> set = {center};
  dist[center] = 0;
  for (std::size_t head = 0; head < set.size(); ++head) {
    const NodeId u = set[head];
    if (dist[u] == radius) continue;
    for (const NodeId v : adj[u]) {
      if (dist[v] > dist[u] + 1) {
        dist[v] = dist[u] + 1;
        set.push_back(v);
      }
    }
  }
  return set;
}

}  // namespace

CertSetup cert_setup(std::uint64_t seed) {
  Rng rng(derive_seed(seed, 4));
  CertSetup s;
  s.instances = cert_instances();
  for (const Instance& inst : s.instances) {
    s.graphs.push_back(inst.fam == Fam::kB
                           ? bfly::topo::Butterfly(inst.n).graph()
                           : bfly::topo::WrappedButterfly(inst.n).graph());
  }
  s.pair = std::make_unique<cert::ConcatenatedButterflyPair>(
      cert::concatenated_butterfly_pair(8));

  // Shapes are fixed and only their placement (a column XOR, an
  // automorphism) depends on the seed, so every seed certifies
  // isomorphic sets.
  for (std::size_t g = 0; g < s.instances.size(); ++g) {
    const Instance& inst = s.instances[g];
    const std::vector<ref::Edge> edges = ref::edges(inst);
    const std::uint32_t top = levels(inst) - 1;
    const std::uint32_t mid = top / 2;
    const auto add = [&](const std::string& shape, std::vector<NodeId> set) {
      std::vector<std::uint8_t> in(inst.nodes(), 0);
      for (const NodeId v : set) in[v] = 1;
      s.witnesses.push_back({inst.name() + "/" + shape, g, std::move(set),
                             ref::boundary(edges, in),
                             ref::neighbours(inst.nodes(), edges, in)});
    };
    add("half", column_block(inst, 0, top, 1,
                             static_cast<std::uint32_t>(rng.below(2))));
    add("block8", column_block(inst, 0, top, 3,
                               static_cast<std::uint32_t>(rng.below(8))));
    add("band", column_block(inst, mid - 1, mid + 1, 2,
                              static_cast<std::uint32_t>(rng.below(4))));
    add("ball4", ball(inst, edges,
                      mid * inst.n + static_cast<NodeId>(rng.below(inst.n)),
                      4));
  }
  return s;
}

CertRound cert_round(const CertSetup& s, RunResult& out, Tracer* tr) {
  CertRound r;
  r.edge_s.assign(s.witnesses.size(), 0.0);
  r.node_s.assign(s.witnesses.size(), 0.0);
  for (std::size_t i = 0; i < s.witnesses.size(); ++i) {
    const Witness& w = s.witnesses[i];
    const Graph& g = s.graphs[w.graph];
    ++out.attempted;
    try {
      cert::EdgeBoundaryCertificate c;
      r.edge_s[i] = timed(tr, "cert.edge_boundary", [&] {
        c = cert::certify_edge_boundary(
            g, w.set, static_cast<std::int64_t>(w.edge_recount));
      });
      check_edge_cert(out.checks, w.name, w.edge_recount, c.flow, c.certified);
    } catch (const std::exception& e) {
      ++out.failed;
      std::cerr << "perfbench: " << w.name << " edge certificate: " << e.what()
                << '\n';
    }
    ++out.attempted;
    try {
      cert::NodeBoundaryCertificate c;
      r.node_s[i] = timed(tr, "cert.node_boundary", [&] {
        c = cert::certify_node_boundary(
            g, w.set, static_cast<std::int64_t>(w.node_recount));
      });
      check_node_cert(out.checks, w.name, w.node_recount, c.recounted, c.flow,
                      c.certified);
    } catch (const std::exception& e) {
      ++out.failed;
      std::cerr << "perfbench: " << w.name << " node certificate: " << e.what()
                << '\n';
    }
  }
  ++out.attempted;
  try {
    cert::SuperconcentrationCertificate c;
    r.superconc_s = timed(tr, "cert.superconc", [&] {
      c = cert::certify_superconcentration(s.pair->graph, s.pair->inputs,
                                           s.pair->outputs);
    });
    r.superconc_queries = c.queries;
    check_superconc(out.checks, c.queries, c.failures, c.exhaustive,
                    c.certified);
  } catch (const std::exception& e) {
    ++out.failed;
    std::cerr << "perfbench: superconcentration: " << e.what() << '\n';
  }
  return r;
}

void run_certify(const Options& opt, RunResult& out) {
  const CertSetup s = cert_setup(opt.seed);
  out.metric("setup_s", seconds_since(opt.process_start), "s");
  // Per witness, every round's time for each certificate; a phase sums
  // each witness's fastest.
  std::vector<std::vector<double>> edge_s(s.witnesses.size());
  std::vector<std::vector<double>> node_s(s.witnesses.size());
  std::vector<double> superconc_s;
  const int rounds = run_rounds(opt.seconds, [&](int) {
    const CertRound r = cert_round(s, out);
    for (std::size_t i = 0; i < s.witnesses.size(); ++i) {
      edge_s[i].push_back(r.edge_s[i]);
      node_s[i].push_back(r.node_s[i]);
    }
    superconc_s.push_back(r.superconc_s);
  });
  double edge_total = 0.0;
  double node_total = 0.0;
  for (std::size_t i = 0; i < s.witnesses.size(); ++i) {
    edge_total += fastest(edge_s[i]);
    node_total += fastest(node_s[i]);
  }
  out.metric("phase1_s", edge_total, "s");
  out.metric("phase2_s", node_total, "s");
  out.metric("phase3_s", fastest(superconc_s), "s");
  out.metric("peak_rss_mb", self_peak_rss_mb(), "MiB");
  out.figure("cert_boundary_s", edge_total + node_total, "s");
  out.figure("cert_superconc_s", fastest(superconc_s), "s");
  out.figure("witness_sets", static_cast<double>(s.witnesses.size()), "count");
  out.figure("rounds", rounds, "count");
}

}  // namespace perfbench
