// The traced run: replays every workload's inputs once, with a span
// around each call into a layer's public functions, writes the spans as
// a Chrome trace-event file, and sums them into the per-layer table.
// Its timings include the span bookkeeping; the end-to-end numbers come
// from the untraced runs.
#include <unistd.h>

#include <filesystem>
#include <iostream>
#include <map>

#include "algo/automorphism.hpp"
#include "certify.hpp"
#include "checks.hpp"
#include "cut/branch_bound.hpp"
#include "cut/portfolio.hpp"
#include "daemon_client.hpp"
#include "expansion/expansion.hpp"
#include "robust/supervisor.hpp"
#include "route.hpp"
#include "service/cache.hpp"
#include "service/executor.hpp"
#include "service/request.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace svc = bfly::service;
using ref::Fam;
using ref::Instance;

svc::Family to_family(Fam f) {
  switch (f) {
    case Fam::kB: return svc::Family::kButterfly;
    case Fam::kW: return svc::Family::kWrapped;
    case Fam::kCcc: return svc::Family::kCcc;
    case Fam::kQ: return svc::Family::kHypercube;
  }
  return svc::Family::kButterfly;
}

/// Count and summed length of the spans carrying one name.
struct SpanSum {
  std::uint64_t count = 0;
  double total_us = 0.0;
  [[nodiscard]] double mean_us() const {
    return count == 0 ? 0.0 : total_us / static_cast<double>(count);
  }
  [[nodiscard]] double total_s() const { return total_us / 1e6; }
};

std::map<std::string, SpanSum> sum_spans(const Tracer& tr) {
  std::map<std::string, SpanSum> sums;
  for (const Tracer::SpanRec& s : tr.spans()) {
    SpanSum& e = sums[s.name];
    ++e.count;
    e.total_us += s.end_us - s.start_us;
  }
  return sums;
}

/// Instances whose BOUNDARY canonicalization is reported per instance.
const std::vector<Instance>& traced_boundary_instances() {
  static const std::vector<Instance> k = {
      {Fam::kB, 8}, {Fam::kW, 16}, {Fam::kCcc, 16}, {Fam::kQ, 32},
      {Fam::kQ, 64}};
  return k;
}

struct Counts {
  std::map<std::string, double> orbit_size;  // per instance, summed
  std::map<std::string, std::uint64_t> masks;
  std::map<std::string, std::uint64_t> bb_nodes;
  unsigned ladder_steps = 0;
  std::uint64_t members_run = 0;
  std::uint64_t members_useful = 0;
  std::uint64_t steps = 0, hops = 0, makespan = 0, max_queue = 0;
  std::uint64_t superconc_queries = 0;
};

// --- serve: the BW-hit path, in process and over the pipe ------------

void trace_service_hits(const Options& opt, Tracer& tr, Rng& rng,
                        RunResult& out) {
  Tracer::Scope wl(tr, "workload.serve_warm");
  Daemon daemon(opt.daemon, {"--workers=1"});
  svc::ServiceOptions so;
  so.workers = 1;
  svc::Service service(so);
  std::vector<std::pair<Instance, bool>> primed;
  for (const auto& [inst, exact] : warm_bw_set()) {
    const std::string line = bw_line(inst, exact, "prime-" + std::to_string(primed.size()));
    ++out.attempted;
    Reply r;
    if (!parse_reply(daemon.ask(line), r) || !r.ok) {
      ++out.failed;
      continue;
    }
    ++out.attempted;
    const svc::Response local = service.query(svc::parse_request(line));
    if (local.status != svc::Status::kOk) {
      ++out.failed;
      continue;
    }
    check_bw(out.checks, inst, exact, local.value, local.exact);
    primed.push_back({inst, exact});
  }
  if (primed.empty()) throw std::runtime_error("no BW entry primed");
  for (int i = 0; i < 4000; ++i) {
    const auto& [inst, exact] = primed[rng.below(primed.size())];
    const std::string id = std::to_string(i);
    const std::string line = bw_line(inst, exact, id);
    Tracer::Scope req(tr, "serve.request");
    Reply r;
    {
      Tracer::Scope s(tr, "service.pipe_roundtrip");
      out.attempted += 2;
      if (!parse_reply(daemon.ask(line), r) || !r.ok) ++out.failed;
    }
    svc::Request parsed;
    {
      Tracer::Scope s(tr, "service.parse_request");
      parsed = svc::parse_request(line);
    }
    svc::Response resp;
    {
      Tracer::Scope s(tr, "service.query_hit");
      resp = service.query(parsed);
    }
    std::string formatted;
    {
      Tracer::Scope s(tr, "service.format_response");
      formatted = svc::format_response(resp);
    }
    if (resp.status != svc::Status::kOk) {
      ++out.failed;
      continue;
    }
    Reply local;
    out.checks.expect(parse_reply(formatted, local) && local.source == "memory" &&
                          r.source == "memory" && local.key == r.key &&
                          local.value == r.value,
                      [&] { return "in-process and daemon hits disagree: '" + formatted + "'"; });
  }
  daemon.finish();
}

// --- serve: BOUNDARY canonicalization, recount and insert ------------

void trace_boundary(const Options& opt, Tracer& tr, Rng& rng, Counts& counts,
                    RunResult& out) {
  Tracer::Scope wl(tr, "workload.serve_boundary");
  const TempDir dir(std::filesystem::path(opt.work_dir) /
                    ("trace-cache-" + std::to_string(getpid())));
  {
    svc::ServiceCache cache(1024, dir.path());
    for (const Instance& inst : traced_boundary_instances()) {
      const svc::Family fam = to_family(inst.fam);
      const bfly::Graph g = svc::build_graph(fam, inst.n);
      const std::vector<ref::Edge> edges = ref::edges(inst);
      const std::size_t count = inst.nodes() == 64 && inst.fam == Fam::kQ ? 4 : 16;
      for (const std::uint64_t base : distinct_orbit_masks(inst, count, rng)) {
        const std::uint64_t mask = random_image(inst, base, rng);
        ++out.attempted;
        svc::Request req;
        req.kind = svc::QueryKind::kBoundary;
        req.family = fam;
        req.n = inst.n;
        req.subset_mask = mask;
        std::uint64_t key = 0;
        {
          Tracer::Scope s(tr, "service.canonical_key." + inst.name());
          key = svc::canonical_key(req);
        }
        std::vector<std::uint64_t> orbit;
        {
          bfly::algo::PermutationGroup group;
          {
            Tracer::Scope s(tr, "algo.automorphism.group_build." + inst.name());
            group = svc::automorphism_group(fam, inst.n);
          }
          Tracer::Scope s(tr, "algo.automorphism.mask_orbit." + inst.name());
          orbit = group.mask_orbit(mask);
        }
        counts.orbit_size[inst.name()] += static_cast<double>(orbit.size());
        ++counts.masks[inst.name()];
        std::vector<bfly::NodeId> set;
        for (bfly::NodeId v = 0; v < g.num_nodes(); ++v) {
          if ((mask >> v) & 1u) set.push_back(v);
        }
        std::size_t value = 0;
        {
          Tracer::Scope s(tr, "expansion.edge_boundary");
          value = bfly::expansion::edge_boundary(g, set);
        }
        check_boundary(out.checks, inst, mask, value, ref::boundary(edges, mask));
        svc::CacheEntry entry;
        entry.key = key;
        entry.kind = req.kind;
        entry.family = fam;
        entry.n = inst.n;
        entry.mask = orbit.empty() ? mask : orbit.front();
        entry.value = value;
        entry.exact = true;
        Tracer::Scope s(tr, "service.boundary_insert");
        if (cache.insert(entry) != svc::ServiceCache::InsertOutcome::kPersisted) {
          ++out.failed;
        }
      }
    }
  }
}

// --- serve_cold: the supervisor ladder, branch-and-bound, members ----

void trace_exact(Tracer& tr, Counts& counts, RunResult& out) {
  Tracer::Scope wl(tr, "workload.serve_cold.exact");
  for (const Instance& inst : exact_instances()) {
    const bfly::Graph g = svc::build_graph(to_family(inst.fam), inst.n);
    bfly::robust::SupervisorOptions so;
    so.deadline_seconds = 30.0;
    so.budgeted_exact_nodes = svc::ServiceOptions{}.default_node_budget;
    ++out.attempted;
    bfly::robust::SolveReport rep;
    {
      Tracer::Scope s(tr, "robust.ladder." + inst.name());
      rep = bfly::robust::Supervisor(so).solve_bisection(g);
    }
    if (rep.status == bfly::robust::SolveStatus::kFailed) ++out.failed;
    counts.ladder_steps = std::max<unsigned>(
        counts.ladder_steps, static_cast<unsigned>(rep.degradation_path.size()));
    check_bw(out.checks, inst, true, rep.best.capacity,
             rep.best.exactness == bfly::cut::Exactness::kExact);

    ++out.attempted;
    bfly::cut::BranchBoundOptions bo;
    bo.num_threads = 1;
    bfly::cut::CutResult bb;
    {
      Tracer::Scope s(tr, "cut.bb." + inst.name());
      bb = bfly::cut::min_bisection_branch_bound(g, bo);
    }
    counts.bb_nodes[inst.name()] = bb.nodes_visited;
    check_bw(out.checks, inst, true, bb.capacity,
             bb.exactness == bfly::cut::Exactness::kExact);
  }
}

void trace_heuristic(Tracer& tr, Counts& counts, RunResult& out) {
  Tracer::Scope wl(tr, "workload.serve_cold.heuristic");
  namespace cut = bfly::cut;
  const cut::PortfolioSeeds seeds =
      cut::derive_portfolio_seeds(cut::PortfolioOptions{}.master_seed);
  for (const Instance& inst : heuristic_instances()) {
    const bfly::Graph g = svc::build_graph(to_family(inst.fam), inst.n);
    std::vector<std::size_t> caps;
    const auto member = [&](const char* name, auto&& solve) {
      ++out.attempted;
      Tracer::Scope s(tr, std::string("cut.") + name);
      caps.push_back(solve().capacity);
    };
    member("spectral", [&] {
      cut::SpectralBisectionOptions o;
      o.seed = seeds.spectral;
      return cut::min_bisection_spectral(g, o);
    });
    member("multilevel", [&] {
      cut::MultilevelOptions o;
      o.seed = seeds.multilevel;
      return cut::min_bisection_multilevel(g, o);
    });
    member("fm", [&] {
      cut::FiducciaMattheysesOptions o;
      o.seed = seeds.fm;
      o.num_threads = 1;
      return cut::min_bisection_fiduccia_mattheyses(g, o);
    });
    member("kl", [&] {
      cut::KernighanLinOptions o;
      o.seed = seeds.kl;
      return cut::min_bisection_kernighan_lin(g, o);
    });
    member("sa", [&] {
      cut::SimulatedAnnealingOptions o;
      o.seed = seeds.sa;
      return cut::min_bisection_simulated_annealing(g, o);
    });
    const std::size_t best = *std::min_element(caps.begin(), caps.end());
    for (const std::size_t c : caps) counts.members_useful += c == best;
    counts.members_run += caps.size();
    check_bw(out.checks, inst, false, best, false);
  }
}

// --- route_sim and certify -------------------------------------------

void trace_route(const Options& opt, Tracer& tr, Counts& counts,
                 RunResult& out) {
  Tracer::Scope wl(tr, "workload.route_sim");
  RouteSetup s = route_setup(opt.seed, &tr);
  const RouteRound r = route_round(s, false, out, &tr);
  for (std::size_t c = 0; c < r.facts.size(); ++c) {
    if (!r.ok[c][0]) continue;
    counts.steps += r.facts[c][0].steps;
    counts.hops += r.facts[c][0].total_hops;
    counts.makespan += r.facts[c][0].makespan;
    counts.max_queue =
        std::max<std::uint64_t>(counts.max_queue, r.facts[c][0].max_queue);
  }
  route_checks(route_path_facts(s), r, out);
}

void trace_certify(const Options& opt, Tracer& tr, Counts& counts,
                   RunResult& out) {
  Tracer::Scope wl(tr, "workload.certify");
  const CertSetup s = cert_setup(opt.seed);
  counts.superconc_queries = cert_round(s, out, &tr).superconc_queries;
}

}  // namespace

void run_traced(const Options& opt, RunResult& out) {
  Tracer tr;
  Rng rng(derive_seed(opt.seed, 9));
  Counts counts;
  {
    Tracer::Scope all(tr, "traced_run");
    trace_service_hits(opt, tr, rng, out);
    trace_boundary(opt, tr, rng, counts, out);
    trace_exact(tr, counts, out);
    trace_heuristic(tr, counts, out);
    trace_route(opt, tr, counts, out);
    trace_certify(opt, tr, counts, out);
  }
  const std::string path = (std::filesystem::path(opt.work_dir) /
                            ("trace-" + opt.workload + "-" +
                             std::to_string(opt.seed) + ".json"))
                               .string();
  if (!tr.write_chrome_trace(path)) {
    throw std::runtime_error("cannot write trace file " + path);
  }
  std::cout << "trace: " << path << " (" << tr.spans().size() << " spans)\n";

  const std::map<std::string, SpanSum> sum = sum_spans(tr);
  const auto span = [&](const std::string& name) {
    const auto it = sum.find(name);
    return it == sum.end() ? SpanSum{} : it->second;
  };
  const double in_process = span("service.parse_request").mean_us() +
                            span("service.query_hit").mean_us() +
                            span("service.format_response").mean_us();
  out.metric("service.parse_us", span("service.parse_request").mean_us(), "us");
  out.metric("service.format_us", span("service.format_response").mean_us(), "us");
  out.metric("service.hit_us", span("service.query_hit").mean_us(), "us");
  out.metric("service.pipe_us",
             span("service.pipe_roundtrip").mean_us() - in_process, "us");
  for (const Instance& inst : traced_boundary_instances()) {
    const std::string n = inst.name();
    out.metric("service.canonical_key_us." + n,
               span("service.canonical_key." + n).mean_us(), "us");
    out.metric("algo.automorphism.group_build_us." + n,
               span("algo.automorphism.group_build." + n).mean_us(), "us");
    out.metric("algo.automorphism.mask_orbit_us." + n,
               span("algo.automorphism.mask_orbit." + n).mean_us(), "us");
    out.metric("algo.automorphism.orbit_size." + n,
               counts.orbit_size[n] / static_cast<double>(counts.masks[n]),
               "count");
  }
  out.metric("expansion.edge_boundary_us", span("expansion.edge_boundary").mean_us(), "us");
  out.metric("service.boundary_insert_us", span("service.boundary_insert").mean_us(), "us");

  double bb_s = 0.0;
  std::uint64_t bb_nodes = 0;
  for (const Instance& inst : exact_instances()) {
    const std::string n = inst.name();
    out.metric("robust.ladder_s." + n, span("robust.ladder." + n).total_s(), "s");
    out.metric("cut.bb.nodes." + n, static_cast<double>(counts.bb_nodes[n]), "count");
    out.metric("cut.bb_s." + n, span("cut.bb." + n).total_s(), "s");
    bb_s += span("cut.bb." + n).total_s();
    bb_nodes += counts.bb_nodes[n];
  }
  out.metric("robust.ladder_steps", counts.ladder_steps, "count");
  out.metric("cut.bb.nodes_per_s", static_cast<double>(bb_nodes) / bb_s, "1/s");
  for (const char* m : {"spectral", "multilevel", "fm", "kl", "sa"}) {
    out.metric(std::string("cut.") + m + "_s", span(std::string("cut.") + m).total_s(), "s");
  }
  out.metric("cut.portfolio.useful_ratio",
             static_cast<double>(counts.members_useful) /
                 static_cast<double>(counts.members_run),
             "ratio");

  out.metric("topology.build_s", span("topology.build").total_s(), "s");
  out.metric("routing.traffic_s", span("routing.traffic").total_s(), "s");
  out.metric("routing.engine_build_s", span("routing.engine_build").total_s(), "s");
  out.metric("routing.load_s", span("routing.load").total_s(), "s");
  out.metric("routing.run_s", span("routing.run").total_s(), "s");
  out.metric("routing.run_s_2t", span("routing.run_2t").total_s(), "s");
  out.metric("routing.steps", static_cast<double>(counts.steps), "count");
  out.metric("routing.total_hops", static_cast<double>(counts.hops), "count");
  out.metric("routing.makespan", static_cast<double>(counts.makespan), "count");
  out.metric("routing.max_queue", static_cast<double>(counts.max_queue), "count");

  out.metric("cert.edge_boundary_s", span("cert.edge_boundary").total_s(), "s");
  out.metric("cert.node_boundary_s", span("cert.node_boundary").total_s(), "s");
  out.metric("cert.superconc_s", span("cert.superconc").total_s(), "s");
  out.metric("cert.superconc.queries", static_cast<double>(counts.superconc_queries), "count");
}

}  // namespace perfbench
