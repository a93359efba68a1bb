// --selfcheck: takes real outputs of the daemon, the simulator and the
// certificates, shows that each output check accepts them, then feeds
// every check a corrupted copy and shows that it rejects it.
#include <iostream>

#include "cert/expansion_certificate.hpp"
#include "cert/superconcentration.hpp"
#include "checks.hpp"
#include "daemon_client.hpp"
#include "routing/sim_engine.hpp"
#include "routing/traffic.hpp"
#include "topology/butterfly.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace cert = bfly::cert;
namespace routing = bfly::routing;
namespace topo = bfly::topo;
using bfly::NodeId;

namespace {

class SelfCheck {
 public:
  template <class F>
  void pass(const std::string& what, F&& fn) {
    CheckLog log;
    fn(log);
    report(what, log.failures() == 0, "accepted", "REJECTED a true value");
  }
  template <class F>
  void fail(const std::string& what, F&& fn) {
    CheckLog log;
    fn(log);
    report(what, log.failures() > 0, "rejected", "ACCEPTED a corrupted value");
  }
  [[nodiscard]] int missed() const { return missed_; }

 private:
  void report(const std::string& what, bool good, const char* ok,
              const char* bad) {
    std::cout << "selfcheck: " << what << ": " << (good ? ok : bad) << '\n';
    if (!good) ++missed_;
  }
  int missed_ = 0;
};

Reply ask(Daemon& d, const std::string& line) {
  Reply r;
  if (!parse_reply(d.ask(line), r) || !r.ok) {
    throw std::runtime_error("selfcheck query failed: " + line);
  }
  return r;
}

void serve_checks(const Options& opt, SelfCheck& sc) {
  using ref::Fam;
  Daemon d(opt.daemon, {"--workers=1"});
  const ref::Instance w8{Fam::kW, 8};
  const ref::Instance b8{Fam::kB, 8};
  const ref::Instance q16{Fam::kQ, 16};
  const Reply w = ask(d, bw_line(w8, true, "w8"));
  const Reply b = ask(d, bw_line(b8, true, "b8"));
  const Reply wh = ask(d, bw_line({Fam::kW, 32}, false, "w32"));

  sc.pass("BW closed form", [&](CheckLog& l) { check_bw(l, w8, true, w.value, w.exact); });
  sc.fail("BW exact answer off by one", [&](CheckLog& l) { check_bw(l, w8, true, w.value + 1, w.exact); });
  sc.fail("BW exact policy without proof", [&](CheckLog& l) { check_bw(l, w8, true, w.value, false); });
  sc.pass("BW Bn bounds", [&](CheckLog& l) { check_bw(l, b8, true, b.value, b.exact); });
  sc.fail("BW Bn at the Theorem 2.20 lower bound", [&](CheckLog& l) {
    check_bw(l, b8, false, static_cast<std::uint64_t>(ref::bn_lower_bound(8)), false);
  });
  sc.fail("BW Bn exact above the column cut", [&](CheckLog& l) {
    check_bw(l, b8, true, ref::bn_column_cut(8) + 1, true);
  });
  sc.pass("BW heuristic at or above the known width",
          [&](CheckLog& l) { check_bw(l, {Fam::kW, 32}, false, wh.value, wh.exact); });
  sc.fail("BW heuristic below the known width",
          [&](CheckLog& l) { check_bw(l, {Fam::kW, 32}, false, 31, false); });

  Rng rng(7);
  const std::uint64_t mask = distinct_orbit_masks(q16, 1, rng).front();
  const std::uint64_t image = random_image(q16, mask, rng);
  const Reply m = ask(d, boundary_line(q16, mask, "m"));
  const Reply i = ask(d, boundary_line(q16, image, "i"));
  const std::uint64_t recount = ref::boundary(ref::edges(q16), mask);
  sc.pass("BOUNDARY recount", [&](CheckLog& l) { check_boundary(l, q16, mask, m.value, recount); });
  sc.fail("BOUNDARY value off by one",
          [&](CheckLog& l) { check_boundary(l, q16, mask, m.value + 1, recount); });
  sc.pass("canonical key symmetric",
          [&](CheckLog& l) { check_symmetric(l, q16, m.key, i.key, m.value, i.value); });
  std::string other_key = i.key;
  other_key[15] = other_key[15] == '0' ? '1' : '0';
  sc.fail("canonical keys differ",
          [&](CheckLog& l) { check_symmetric(l, q16, m.key, other_key, m.value, i.value); });
  sc.fail("symmetric values differ",
          [&](CheckLog& l) { check_symmetric(l, q16, m.key, i.key, m.value, i.value + 1); });

  sc.pass("reply metadata", [&](CheckLog& l) { check_reply_meta(l, i, "i", "memory", 30000.0); });
  sc.fail("reply id mismatch", [&](CheckLog& l) { check_reply_meta(l, i, "j", "memory", 30000.0); });
  sc.fail("reply from the wrong tier",
          [&](CheckLog& l) { check_reply_meta(l, i, "i", "computed", 30000.0); });
  Reply late = i;
  late.ms = 30000.0;
  sc.fail("reply at the deadline", [&](CheckLog& l) { check_reply_meta(l, late, "i", "memory", 30000.0); });
  Reply junk;
  sc.fail("malformed reply line", [&](CheckLog& l) {
    l.expect(parse_reply("OK id=x key=123 value=abc", junk), "unparseable reply");
  });
  d.finish();
}

void sim_checks(SelfCheck& sc) {
  const std::uint32_t n = 16;
  const topo::Butterfly bf(n);
  routing::TrafficSpec spec;
  spec.packets_per_node = 4;
  spec.seed = 3;
  routing::TrafficSet t = routing::make_traffic(bf, spec);
  SimFacts f[2];
  for (const unsigned threads : {1u, 2u}) {
    routing::SimOptions so;
    so.num_threads = threads;
    routing::SimEngine eng(bf.graph(), so);
    eng.load(t.paths);
    const routing::EngineStats st = eng.run();
    f[threads - 1] = {st.delivered, st.num_packets, st.total_hops,
                      st.makespan, st.steps, st.max_queue};
  }
  const ref::PathFacts pf = ref::path_facts(n, t.paths);
  sc.pass("simulator run", [&](CheckLog& l) { check_sim(l, "B16", n, pf, f[0], f[1]); });
  SimFacts bad = f[0];
  bad.delivered -= 1;
  sc.fail("simulator lost a packet", [&](CheckLog& l) { check_sim(l, "B16", n, pf, bad, f[1]); });
  bad = f[0];
  bad.total_hops += 1;
  sc.fail("simulator hop count off", [&](CheckLog& l) { check_sim(l, "B16", n, pf, bad, f[1]); });
  bad = f[0];
  bad.makespan = static_cast<std::uint32_t>(pf.max_link_load - 1);
  sc.fail("makespan below the link load", [&](CheckLog& l) { check_sim(l, "B16", n, pf, bad, bad); });
  bad = f[1];
  bad.makespan += 1;
  sc.fail("thread counts disagree", [&](CheckLog& l) { check_sim(l, "B16", n, pf, f[0], bad); });
  for (auto& path : t.paths) {
    if (path.size() > 2) {
      path[1] = path[2];  // a repeated node is no edge
      break;
    }
  }
  const ref::PathFacts broken = ref::path_facts(n, t.paths);
  sc.fail("path that is not a walk", [&](CheckLog& l) { check_sim(l, "B16", n, broken, f[0], f[1]); });
}

void cert_checks(SelfCheck& sc) {
  const ref::Instance inst{ref::Fam::kB, 16};
  const topo::Butterfly bf(inst.n);
  std::vector<NodeId> set;
  std::vector<std::uint8_t> in(inst.nodes(), 0);
  for (NodeId v = 0; v < inst.nodes(); v += 3) {
    set.push_back(v);
    in[v] = 1;
  }
  const auto edges = ref::edges(inst);
  const std::uint64_t eb = ref::boundary(edges, in);
  const std::uint64_t nb = ref::neighbours(inst.nodes(), edges, in);
  const auto ec = cert::certify_edge_boundary(bf.graph(), set, static_cast<std::int64_t>(eb));
  const auto nc = cert::certify_node_boundary(bf.graph(), set, static_cast<std::int64_t>(nb));
  sc.pass("edge certificate", [&](CheckLog& l) { check_edge_cert(l, "B16", eb, ec.flow, ec.certified); });
  sc.fail("edge flow off by one",
          [&](CheckLog& l) { check_edge_cert(l, "B16", eb, ec.flow + 1, ec.certified); });
  sc.fail("edge certificate not certified",
          [&](CheckLog& l) { check_edge_cert(l, "B16", eb, ec.flow, false); });
  sc.pass("node certificate",
          [&](CheckLog& l) { check_node_cert(l, "B16", nb, nc.recounted, nc.flow, nc.certified); });
  sc.fail("node recount off by one",
          [&](CheckLog& l) { check_node_cert(l, "B16", nb, nc.recounted + 1, nc.flow, nc.certified); });
  sc.fail("node flow above |N(S)|", [&](CheckLog& l) {
    check_node_cert(l, "B16", nb, nc.recounted, static_cast<std::int64_t>(nb) + 1, nc.certified);
  });
  sc.fail("node certificate not certified",
          [&](CheckLog& l) { check_node_cert(l, "B16", nb, nc.recounted, nc.flow, false); });

  const cert::ConcatenatedButterflyPair pair = cert::concatenated_butterfly_pair(8);
  const auto c = cert::certify_superconcentration(pair.graph, pair.inputs, pair.outputs);
  sc.pass("superconcentration",
          [&](CheckLog& l) { check_superconc(l, c.queries, c.failures, c.exhaustive, c.certified); });
  sc.fail("superconcentration missing a query",
          [&](CheckLog& l) { check_superconc(l, c.queries - 1, c.failures, c.exhaustive, c.certified); });
  sc.fail("superconcentration with a failed query",
          [&](CheckLog& l) { check_superconc(l, c.queries, 1, c.exhaustive, c.certified); });
  sc.fail("superconcentration sampled, not exhaustive",
          [&](CheckLog& l) { check_superconc(l, c.queries, c.failures, false, c.certified); });
  sc.fail("superconcentration not certified",
          [&](CheckLog& l) { check_superconc(l, c.queries, c.failures, c.exhaustive, false); });
}

}  // namespace

int run_selfcheck(const Options& opt) {
  SelfCheck sc;
  try {
    serve_checks(opt, sc);
    sim_checks(sc);
    cert_checks(sc);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: selfcheck aborted: " << e.what() << '\n';
    return 1;
  }
  std::cout << "selfcheck: " << (sc.missed() == 0 ? "every check behaved"
                                                  : "SOME CHECKS MISBEHAVED")
            << '\n';
  return sc.missed() == 0 ? 0 : 1;
}

}  // namespace perfbench
