// route_sim: SimEngine in process on B1024 — uniform traffic, cut-
// saturating traffic against an FM witness cut, and a bounded-capacity
// configuration with stage-weighted virtual channels — each at 1 and 2
// threads.
#include "route.hpp"

#include <iostream>

#include "cut/fiduccia_mattheyses.hpp"

namespace perfbench {

namespace cut = bfly::cut;

const std::vector<SimConfig>& sim_configs() {
  static const std::vector<SimConfig> k = {
      {"uniform", routing::TrafficPattern::kUniform, 1, 1, 0},
      {"cutsat", routing::TrafficPattern::kCutSaturating, 1, 1, 0},
      {"vc3cap4", routing::TrafficPattern::kUniform, 1, 3, 4}};
  return k;
}

namespace {

void load(RouteSetup& s, std::size_t c, std::size_t t) {
  routing::SimEngine& eng = *s.engines[c * 2 + t];
  if (sim_configs()[c].vcs > 1) {
    eng.load(s.traffic[c].paths, s.hop_vcs[c]);
  } else {
    eng.load(s.traffic[c].paths);
  }
}

}  // namespace

RouteSetup route_setup(std::uint64_t seed, Tracer* tr) {
  RouteSetup s;
  timed(tr, "topology.build", [&] {
    s.bf = std::make_unique<topo::Butterfly>(kColumns);
  });

  timed(tr, "routing.traffic", [&] {
    // The witness cut and the traffic come from fixed seeds; the run's
    // seed picks a column XOR, an automorphism of Bn that maps bit-fixing
    // routes onto bit-fixing routes. Every seed thus simulates an
    // isomorphic load with the same makespan and step count, while the
    // packets' nodes differ.
    cut::FiducciaMattheysesOptions fm;
    fm.restarts = 1;
    fm.num_threads = 1;
    fm.seed = derive_seed(0, 30);
    const cut::CutResult witness =
        cut::min_bisection_fiduccia_mattheyses(s.bf->graph(), fm);
    const auto flip = static_cast<bfly::NodeId>(derive_seed(seed, 30) % kColumns);
    for (std::size_t c = 0; c < sim_configs().size(); ++c) {
      const SimConfig& cfg = sim_configs()[c];
      routing::TrafficSpec spec;
      spec.pattern = cfg.pattern;
      spec.packets_per_node = cfg.ppn;
      spec.seed = derive_seed(0, 31 + c);
      s.traffic.push_back(routing::make_traffic(*s.bf, spec, &witness.sides));
      for (std::vector<bfly::NodeId>& path : s.traffic.back().paths) {
        for (bfly::NodeId& v : path) {
          v = (v / kColumns) * kColumns + ((v % kColumns) ^ flip);
        }
      }
      s.hop_vcs.push_back(cfg.vcs > 1
                              ? routing::stage_weighted_vcs(
                                    *s.bf, s.traffic.back().paths, cfg.vcs)
                              : std::vector<std::vector<std::uint32_t>>{});
    }
  });

  timed(tr, "routing.engine_build", [&] {
    for (const SimConfig& cfg : sim_configs()) {
      for (const unsigned threads : {1u, 2u}) {
        routing::SimOptions so;
        so.num_threads = threads;
        so.vcs_per_link = cfg.vcs;
        so.vc_capacity = cfg.capacity;
        s.engines.push_back(
            std::make_unique<routing::SimEngine>(s.bf->graph(), so));
      }
    }
  });

  timed(tr, "routing.load", [&] {
    for (std::size_t c = 0; c < sim_configs().size(); ++c) {
      load(s, c, 0);
      load(s, c, 1);
    }
  });
  return s;
}

RouteRound route_round(RouteSetup& s, bool reload, RunResult& out,
                       Tracer* tr) {
  RouteRound r;
  for (std::size_t c = 0; c < sim_configs().size(); ++c) {
    std::array<double, 2> secs{};
    std::array<SimFacts, 2> facts{};
    std::array<bool, 2> ok{};
    for (std::size_t t = 0; t < 2; ++t) {
      ++out.attempted;
      try {
        if (reload) load(s, c, t);
        routing::EngineStats st;
        pin_thread(t + 1);  // run() starts its workers on these CPUs
        secs[t] = timed(tr, t == 0 ? "routing.run" : "routing.run_2t",
                        [&] { st = s.engines[c * 2 + t]->run(); });
        pin_thread();
        facts[t] = {st.delivered, st.num_packets, st.total_hops,
                    st.makespan,  st.steps,       st.max_queue};
        ok[t] = true;
      } catch (const std::exception& e) {
        ++out.failed;
        std::cerr << "perfbench: simulator run failed: " << e.what() << '\n';
      }
    }
    r.run_s.push_back(secs);
    r.facts.push_back(facts);
    r.ok.push_back(ok);
  }
  return r;
}

std::vector<ref::PathFacts> route_path_facts(const RouteSetup& s) {
  std::vector<ref::PathFacts> pf;
  for (const routing::TrafficSet& t : s.traffic) {
    pf.push_back(ref::path_facts(kColumns, t.paths));
  }
  return pf;
}

void route_checks(const std::vector<ref::PathFacts>& pf, const RouteRound& r,
                  RunResult& out) {
  for (std::size_t c = 0; c < sim_configs().size(); ++c) {
    if (!r.ok[c][0] || !r.ok[c][1]) continue;
    check_sim(out.checks, std::string("B1024 ") + sim_configs()[c].name,
              kColumns, pf[c], r.facts[c][0], r.facts[c][1]);
  }
}

void run_route_sim(const Options& opt, RunResult& out) {
  RouteSetup s = route_setup(opt.seed);
  out.metric("setup_s", seconds_since(opt.process_start), "s");
  const std::vector<ref::PathFacts> pf = route_path_facts(s);

  // Per config, the 1-thread run time; 2-thread runs are made and checked
  // against them, but their times swing with the host's other load.
  std::vector<double> run_1t[3], phops_1t, phops_2t;
  const int rounds = run_rounds(opt.seconds, [&](int round) {
    const RouteRound r = route_round(s, round > 0, out);
    route_checks(pf, r, out);
    double hops = 0.0;
    double secs[2] = {0.0, 0.0};
    for (std::size_t c = 0; c < sim_configs().size(); ++c) {
      hops += static_cast<double>(pf[c].hops);
      secs[0] += r.run_s[c][0];
      secs[1] += r.run_s[c][1];
    }
    for (std::size_t c = 0; c < 3; ++c) run_1t[c].push_back(r.run_s[c][0]);
    phops_1t.push_back(hops / secs[0]);
    phops_2t.push_back(hops / secs[1]);
  });

  out.metric("phase1_s", fastest(run_1t[0]), "s");
  out.metric("phase2_s", fastest(run_1t[1]), "s");
  out.metric("phase3_s", fastest(run_1t[2]), "s");
  out.metric("peak_rss_mb", self_peak_rss_mb(), "MiB");
  out.figure("sim_phops_per_s", *std::max_element(phops_1t.begin(), phops_1t.end()),
             "packet-hops/s");
  out.figure("sim_phops_per_s_2t", *std::max_element(phops_2t.begin(), phops_2t.end()),
             "packet-hops/s");
  out.figure("rounds", rounds, "count");
}

}  // namespace perfbench
