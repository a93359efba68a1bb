// route_sim's pieces, shared with the traced replay: B1024, three traffic
// configurations, one SimEngine per configuration and thread count.
#pragma once

#include <array>
#include <memory>
#include <vector>

#include "checks.hpp"
#include "routing/sim_engine.hpp"
#include "routing/traffic.hpp"
#include "topology/butterfly.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace routing = bfly::routing;
namespace topo = bfly::topo;

inline constexpr std::uint32_t kColumns = 1024;

struct SimConfig {
  const char* name;
  routing::TrafficPattern pattern;
  std::uint32_t ppn;       ///< packets per node
  std::uint32_t vcs;       ///< virtual channels per link
  std::uint32_t capacity;  ///< per-queue capacity (0 = unbounded)
};

/// uniform and cutsat take the unbounded single-channel drain/advance
/// path; vc3cap4 adds the arbitration phase.
[[nodiscard]] const std::vector<SimConfig>& sim_configs();

struct RouteSetup {
  std::unique_ptr<topo::Butterfly> bf;
  std::vector<routing::TrafficSet> traffic;                      // per config
  std::vector<std::vector<std::vector<std::uint32_t>>> hop_vcs;  // per config
  std::vector<std::unique_ptr<routing::SimEngine>> engines;  // config x {1,2}
};

/// Graph, FM witness cut and traffic, engines and first loads. Spans:
/// topology.build, routing.traffic, routing.engine_build, routing.load.
[[nodiscard]] RouteSetup route_setup(std::uint64_t seed,
                                     Tracer* tr = nullptr);

struct RouteRound {
  std::vector<std::array<double, 2>> run_s;  ///< seconds inside run()
  std::vector<std::array<SimFacts, 2>> facts;
  std::vector<std::array<bool, 2>> ok;
};

/// Runs every config at 1 and 2 threads (reloading first when `reload`,
/// since run() consumes the load); counts attempts and failures. Spans:
/// routing.run / routing.run_2t.
[[nodiscard]] RouteRound route_round(RouteSetup& s, bool reload,
                                     RunResult& out, Tracer* tr = nullptr);
[[nodiscard]] std::vector<ref::PathFacts> route_path_facts(
    const RouteSetup& s);
void route_checks(const std::vector<ref::PathFacts>& pf, const RouteRound& r,
                  RunResult& out);

}  // namespace perfbench
