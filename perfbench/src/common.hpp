// Shared pieces of the benchmark client: clocks, the input RNG, the
// check log, the result record every workload fills in, and the span
// recorder behind the traced run.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Input generator. Deliberately the benchmark's own (not the library's
/// RNG), so a change to the library cannot change the inputs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, bound), bound > 0.
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }
  template <class T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[below(i)]);
    }
  }

 private:
  std::uint64_t s_;
};

/// Independent seeds for the parts of one workload.
[[nodiscard]] inline std::uint64_t derive_seed(std::uint64_t seed,
                                               std::uint64_t salt) {
  Rng r(seed ^ (salt * 0x2545f4914f6cdd1dull));
  return r.next();
}

/// Output checks. Each failure is counted and the first few are printed
/// to stderr with what was expected.
class CheckLog {
 public:
  /// `what` is a string or a callable returning one; a callable is only
  /// invoked when the check fails, so passing checks build no message.
  template <class What>
  bool expect(bool ok, What&& what) {
    ++checks_;
    if (!ok) {
      if constexpr (std::is_invocable_v<What>) {
        fail(what());
      } else {
        fail(what);
      }
    }
    return ok;
  }
  [[nodiscard]] std::uint64_t failures() const { return failures_; }
  [[nodiscard]] std::uint64_t checks() const { return checks_; }

 private:
  void fail(const std::string& what);
  std::uint64_t checks_ = 0;
  std::uint64_t failures_ = 0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports: the end-to-end or per-layer metrics plus the
/// operation counts; `figures` are the workload's named figures, printed
/// on the line before the result.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  CheckLog checks;
  std::vector<Metric> metrics;
  std::vector<Metric> figures;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void figure(const std::string& name, double value, const std::string& unit) {
    figures.push_back({name, value, unit});
  }
};

/// The fastest of a run's rounds. Work that repeats exactly is only ever
/// slowed by the rest of a shared host, so the minimum is the steadiest
/// estimate of its own cost.
[[nodiscard]] inline double fastest(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}
/// Value at quantile q in [0, 1] (nearest rank on the sorted values).
[[nodiscard]] double quantile(std::vector<double> v, double q);

/// Peak resident set of this process, in MiB.
[[nodiscard]] double self_peak_rss_mb();

/// CPU rotation. On a shared host one CPU can run slowly for seconds at a
/// time while a neighbouring tenant keeps its core busy. A run that stays
/// on such a CPU reads slow in every round, so the fastest round does not
/// help. run_rounds() therefore moves the measuring thread to the next
/// usable CPU before each round; threads and processes started during
/// the round inherit the choice.
///
/// Restricts the calling thread to `count` consecutive usable CPUs,
/// starting `offset` places after the current round's CPU.
void pin_thread(std::size_t count = 1, std::size_t offset = 0);
/// The same for every thread of process `pid` (a child of this one).
void pin_process(int pid, std::size_t count = 1, std::size_t offset = 0);
/// Makes `round`'s CPU the current one and pins the calling thread to it.
void rotate_cpu(int round);

/// In-memory span recorder for the traced run: name, start, end and the
/// enclosing span, written as a Chrome trace-event file at the end and
/// summed per name into the per-layer table.
class Tracer {
 public:
  struct SpanRec {
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    int parent = -1;
  };

  class Scope {
   public:
    Scope(Tracer& t, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    int idx_;
  };

  Tracer();
  [[nodiscard]] double now_us() const;
  /// Records an already-timed span (start/end in now_us() terms) under
  /// the innermost open scope.
  void record(const std::string& name, double start_us, double end_us);
  [[nodiscard]] const std::vector<SpanRec>& spans() const { return spans_; }
  /// Writes {"traceEvents": [...]} with one complete ("X") event per span.
  bool write_chrome_trace(const std::string& path) const;

 private:
  Clock::time_point t0_;
  std::vector<SpanRec> spans_;
  std::vector<int> open_;
};

/// A fresh directory, removed with everything in it when this goes out
/// of scope (on error paths too).
class TempDir {
 public:
  explicit TempDir(std::filesystem::path path) : path_(std::move(path)) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  [[nodiscard]] const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

/// Runs fn and returns its seconds; given a tracer, also records a span
/// under `name` around the call.
template <class F>
double timed(Tracer* tr, const std::string& name, F&& fn) {
  const double start_us = tr != nullptr ? tr->now_us() : 0.0;
  const Clock::time_point t0 = Clock::now();
  fn();
  const double secs = seconds_since(t0);
  if (tr != nullptr) tr->record(name, start_us, tr->now_us());
  return secs;
}

}  // namespace perfbench
