// perfbench: the end-to-end benchmark client (see README.md).
//
//   perfbench --daemon PATH --work-dir DIR --workload NAME --seed N
//             --seconds S --trace 0|1
//   perfbench --daemon PATH --work-dir DIR --selfcheck
//
// Prints a host stamp, the workload's named figures, and as its last
// line one JSON object: {"correct", "attempted", "failed", "metrics"}.
// Exits non-zero without that line when the run cannot be carried out.
#include <csignal>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>

#include "core/simd.hpp"
#include "robust/fault_injection.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Metric;

const perfbench::Clock::time_point g_process_start = perfbench::Clock::now();

std::string json_metrics(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.10g", ms[i].value);
    out += (i == 0 ? "\"" : ", \"") + ms[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return out + "}";
}

std::string host_stamp() {
#if defined(__clang__)
  const std::string compiler = std::string("Clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("GNU ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  return std::string("{\"hardware_threads\": ") +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\", \"compiler\": \"" +
         compiler + "\", \"simd\": \"" +
         bfly::simd::to_string(bfly::simd::active_level()) +
         "\", \"fault_hooks\": " +
         (bfly::fault::compiled_in() ? "true" : "false") + "}";
}

int usage(const char* msg) {
  std::cerr << "perfbench: " << msg
            << "\nusage: perfbench --daemon PATH --work-dir DIR "
               "(--selfcheck | --workload NAME --seed N --seconds S "
               "--trace 0|1)\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);  // a dead daemon shows up as EPIPE
  perfbench::Options opt;
  opt.process_start = g_process_start;
  bool selfcheck = false;
  int trace = -1;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    try {
      if (a == "--selfcheck") {
        selfcheck = true;
      } else if (a == "--daemon" && has_value) {
        opt.daemon = argv[++i];
      } else if (a == "--work-dir" && has_value) {
        opt.work_dir = argv[++i];
      } else if (a == "--workload" && has_value) {
        opt.workload = argv[++i];
      } else if (a == "--seed" && has_value) {
        opt.seed = std::stoull(argv[++i]);
        have_seed = true;
      } else if (a == "--seconds" && has_value) {
        opt.seconds = std::stod(argv[++i]);
      } else if (a == "--trace" && has_value) {
        trace = std::stoi(argv[++i]);
      } else {
        return usage(("unknown argument " + a).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + a).c_str());
    }
  }
  if (opt.daemon.empty() || opt.work_dir.empty()) {
    return usage("--daemon and --work-dir are required");
  }
  std::cout << "host: " << host_stamp() << std::endl;
  if (selfcheck) return perfbench::run_selfcheck(opt);
  if (!have_seed || (trace != 0 && trace != 1) || opt.seconds <= 0.0) {
    return usage("--seed, --seconds and --trace 0|1 are required");
  }
  if (opt.workload != "serve_cold" && opt.workload != "serve_warm" &&
      opt.workload != "route_sim" && opt.workload != "certify") {
    return usage(("unknown workload " + opt.workload).c_str());
  }

  perfbench::RunResult result;
  try {
    if (trace == 1) {
      perfbench::run_traced(opt, result);
    } else if (opt.workload == "serve_cold") {
      perfbench::run_serve_cold(opt, result);
    } else if (opt.workload == "serve_warm") {
      perfbench::run_serve_warm(opt, result);
    } else if (opt.workload == "route_sim") {
      perfbench::run_route_sim(opt, result);
    } else {
      perfbench::run_certify(opt, result);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opt.workload << " aborted: " << e.what()
              << '\n';
    return 1;
  }
  if (result.attempted == 0) {
    std::cerr << "perfbench: no operation was attempted\n";
    return 1;
  }
  std::cout << "figures: " << json_metrics(result.figures) << "\n";
  std::cout << "checks: " << result.checks.checks() << " run, "
            << result.checks.failures() << " failed\n";
  std::cout << "{\"correct\": "
            << (result.checks.failures() == 0 ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed
            << ", \"metrics\": " << json_metrics(result.metrics) << "}"
            << std::endl;
  return 0;
}
