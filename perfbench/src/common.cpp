#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  if (q <= 0.0) return v.front();
  if (q >= 1.0) return v.back();
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  return v[std::min(rank, v.size() - 1)];
}

double self_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

/// The CPUs this process was allowed when it first asked.
const std::vector<int>& usable_cpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) out.push_back(c);
      }
    }
    return out;
  }();
  return cpus;
}

std::size_t g_round_cpu = 0;

/// Pins thread or process `tid` (0: the calling thread); a failure only
/// leaves the thread where it was.
void pin(int tid, std::size_t count, std::size_t offset) {
  const std::vector<int>& cpus = usable_cpus();
  if (cpus.size() < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (std::size_t i = 0; i < std::min(count, cpus.size()); ++i) {
    CPU_SET(cpus[(g_round_cpu + offset + i) % cpus.size()], &set);
  }
  sched_setaffinity(tid, sizeof set, &set);
}

}  // namespace

void pin_thread(std::size_t count, std::size_t offset) {
  pin(0, count, offset);
}

void pin_process(int pid, std::size_t count, std::size_t offset) {
  std::error_code ec;
  const std::filesystem::path tasks =
      "/proc/" + std::to_string(pid) + "/task";
  for (const auto& entry : std::filesystem::directory_iterator(tasks, ec)) {
    pin(std::stoi(entry.path().filename().string()), count, offset);
  }
}

void rotate_cpu(int round) {
  g_round_cpu = static_cast<std::size_t>(round);
  pin_thread();
}

Tracer::Tracer() : t0_(Clock::now()) {}

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0_).count();
}

Tracer::Scope::Scope(Tracer& t, std::string name)
    : t_(t), idx_(static_cast<int>(t.spans_.size())) {
  const int parent = t.open_.empty() ? -1 : t.open_.back();
  t.spans_.push_back({std::move(name), t.now_us(), 0.0, parent});
  t.open_.push_back(idx_);
}

Tracer::Scope::~Scope() {
  t_.spans_[static_cast<std::size_t>(idx_)].end_us = t_.now_us();
  t_.open_.pop_back();  // scopes nest, so this one is innermost
}

void Tracer::record(const std::string& name, double start_us, double end_us) {
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, start_us, end_us, parent});
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRec& s = spans_[i];
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, "
                  "\"dur\": %.3f, \"args\": {\"id\": %zu, \"parent\": %d}}",
                  s.start_us, s.end_us - s.start_us, i, s.parent);
    out << (i == 0 ? "" : ",\n") << "{\"name\": \"" << s.name << buf;
  }
  out << "\n], \"displayTimeUnit\": \"ms\"}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
