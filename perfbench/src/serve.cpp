// serve_cold and serve_warm: the real bfly_serviced binary over its line
// protocol, from a single client process.
#include <unistd.h>

#include <atomic>
#include <bit>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>

#include "checks.hpp"
#include "daemon_client.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

std::string hex_mask(std::uint64_t mask) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%llx", static_cast<unsigned long long>(mask));
  return buf;
}

}  // namespace

using ref::Fam;
using ref::Instance;

const std::vector<Instance>& exact_instances() {
  // W16 is left out: its single 0.6-1 s solve made a round too long to
  // repeat often enough for a steady fastest time.
  static const std::vector<Instance> k = {
      {Fam::kB, 8},    {Fam::kW, 8},  {Fam::kCcc, 8}, {Fam::kCcc, 16},
      {Fam::kQ, 8},    {Fam::kQ, 16}, {Fam::kQ, 32}};
  return k;
}

const std::vector<Instance>& heuristic_instances() {
  static const std::vector<Instance> k = {
      {Fam::kB, 32}, {Fam::kW, 32}, {Fam::kCcc, 32}, {Fam::kQ, 128}};
  return k;
}

std::vector<std::uint64_t> distinct_orbit_masks(const Instance& inst,
                                                std::size_t count, Rng& rng) {
  // The popcounts are fixed (consecutive, centred on nodes/2) and only the
  // positions come from the seed: the cost of canonicalizing a mask grows
  // with its popcount, so a seed must not change the mix.
  const std::uint32_t nodes = inst.nodes();
  if (count > nodes / 2) throw std::logic_error("too many masks asked");
  std::vector<std::uint32_t> weights;
  for (std::size_t i = 0; i < count; ++i) {
    weights.push_back(static_cast<std::uint32_t>(nodes / 2 - count / 2 + i));
  }
  std::vector<std::uint64_t> masks;
  std::vector<std::uint32_t> order(nodes);
  for (std::size_t i = 0; i < count; ++i) {
    for (std::uint32_t v = 0; v < nodes; ++v) order[v] = v;
    rng.shuffle(order);
    std::uint64_t mask = 0;
    for (std::uint32_t k = 0; k < weights[i]; ++k) {
      mask |= std::uint64_t{1} << order[k];
    }
    masks.push_back(mask);
  }
  return masks;
}

std::uint64_t random_image(const Instance& inst, std::uint64_t mask,
                           Rng& rng) {
  if (inst.fam != Fam::kQ) {
    return ref::column_xor(inst, mask,
                           static_cast<std::uint32_t>(rng.below(inst.n)));
  }
  std::vector<std::uint32_t> perm(inst.dims());
  for (std::uint32_t b = 0; b < perm.size(); ++b) perm[b] = b;
  rng.shuffle(perm);
  return ref::cube_map(inst.dims(), mask, perm,
                       static_cast<std::uint32_t>(rng.below(inst.n)));
}


std::string bw_line(const Instance& inst, bool exact, const std::string& id) {
  return std::string("BW ") + inst.token() + " " + std::to_string(inst.n) +
         (exact ? " policy=exact" : " policy=heuristic") + " id=" + id;
}

std::string boundary_line(const Instance& inst, std::uint64_t mask,
                          const std::string& id) {
  return std::string("BOUNDARY ") + inst.token() + " " +
         std::to_string(inst.n) + " " + hex_mask(mask) + " id=" + id;
}

namespace {

/// The daemon's default deadline; no query may come near it.
constexpr double kDeadlineMs = 30000.0;
/// Outstanding requests in the pipelined warm stream.
constexpr std::size_t kWindow = 32;

/// Edge lists of the instances a run touches, built once.
const std::vector<ref::Edge>& edges_of(const Instance& inst) {
  static std::map<std::string, std::vector<ref::Edge>> cache;
  auto it = cache.find(inst.name());
  if (it == cache.end()) it = cache.emplace(inst.name(), ref::edges(inst)).first;
  return it->second;
}

/// Sends one request, checks the reply's status, and returns it parsed
/// (ok == false when it failed; the failure is counted).
Reply ask(Daemon& d, const std::string& line, RunResult& out) {
  ++out.attempted;
  Reply r;
  const std::string raw = d.ask(line);
  if (!parse_reply(raw, r)) {
    out.checks.expect(false, "unparseable reply '" + raw + "'");
  }
  if (!r.ok) ++out.failed;
  return r;
}

// --- serve_cold ---------------------------------------------------------

/// Entries no measured query shares, so every round's daemon starts from
/// the same state and the first measured query is not the first served.
void prime_cold(Daemon& d, RunResult& out) {
  const Instance b4{Fam::kB, 4};
  const std::uint64_t mask = 0x0f3;
  Reply r = ask(d, bw_line(b4, true, "p0"), out);
  if (r.ok) check_bw(out.checks, b4, true, r.value, r.exact);
  r = ask(d, boundary_line(b4, mask, "p1"), out);
  if (r.ok) {
    check_boundary(out.checks, b4, mask, r.value,
                   ref::boundary(edges_of(b4), mask));
  }
}

enum class Kind { kExact, kHeuristic, kBoundary };

struct ColdQuery {
  Kind kind = Kind::kExact;
  Instance inst;
  std::uint64_t mask = 0;
};

/// BOUNDARY misses per round on the largest instances the service takes
/// for BOUNDARY (64 nodes).
const std::vector<std::pair<Instance, std::size_t>>& cold_boundary_mix() {
  static const std::vector<std::pair<Instance, std::size_t>> k = {
      {{Fam::kW, 16}, 8}, {{Fam::kCcc, 16}, 8}, {{Fam::kQ, 64}, 2}};
  return k;
}

std::vector<std::string> cold_daemon_args() { return {"--workers=1"}; }

}  // namespace

void run_serve_cold(const Options& opt, RunResult& out) {
  Rng rng(derive_seed(opt.seed, 1));
  auto daemon = std::make_unique<Daemon>(opt.daemon, cold_daemon_args());
  prime_cold(*daemon, out);
  out.metric("setup_s", seconds_since(opt.process_start), "s");

  // Round trips per query slot (kind, instance, and for BOUNDARY the
  // mask's popcount); every round asks each slot once.
  std::map<std::string, std::vector<double>> slot_rtt[3];
  double peak_rss = 0.0;
  std::size_t per_round = 0;
  const int rounds = run_rounds(opt.seconds, [&](int round) {
    // The daemon shares the round's CPU with this thread: one request is
    // outstanding at a time, so the two never run at once.
    if (round > 0) {
      daemon = std::make_unique<Daemon>(opt.daemon, cold_daemon_args());
      prime_cold(*daemon, out);
    } else {
      pin_process(daemon->pid());
    }
    std::vector<ColdQuery> qs;
    for (const Instance& inst : exact_instances()) qs.push_back({Kind::kExact, inst, 0});
    for (const Instance& inst : heuristic_instances()) {
      qs.push_back({Kind::kHeuristic, inst, 0});
    }
    for (const auto& [inst, count] : cold_boundary_mix()) {
      for (const std::uint64_t m : distinct_orbit_masks(inst, count, rng)) {
        qs.push_back({Kind::kBoundary, inst, m});
      }
    }
    rng.shuffle(qs);
    per_round = qs.size();

    for (std::size_t i = 0; i < qs.size(); ++i) {
      const ColdQuery& q = qs[i];
      const int kind = static_cast<int>(q.kind);
      const std::string slot = q.inst.name() + "#" +
                               std::to_string(std::popcount(q.mask));
      const std::string id = "cold" + std::to_string(round) + "-" + std::to_string(i);
      const std::string line = q.kind == Kind::kBoundary
                                   ? boundary_line(q.inst, q.mask, id)
                                   : bw_line(q.inst, q.kind == Kind::kExact, id);
      const Clock::time_point t0 = Clock::now();
      const Reply r = ask(*daemon, line, out);
      const double rtt = seconds_since(t0);
      slot_rtt[kind][slot].push_back(rtt);
      if (!r.ok) continue;
      check_reply_meta(out.checks, r, id, "computed", kDeadlineMs);
      out.checks.expect(rtt * 1e3 < kDeadlineMs,
                        [&] { return line + ": round trip reached the deadline"; });
      if (q.kind == Kind::kBoundary) {
        check_boundary(out.checks, q.inst, q.mask, r.value,
                       ref::boundary(edges_of(q.inst), q.mask));
        // The mask's image under an automorphism the benchmark applies
        // itself must hit the entry just made: same key, same value.
        // Not timed.
        const std::string image_id = id + "i";
        const Reply h = ask(*daemon,
                            boundary_line(q.inst, random_image(q.inst, q.mask, rng),
                                          image_id),
                            out);
        if (h.ok) {
          check_reply_meta(out.checks, h, image_id, "memory", kDeadlineMs);
          check_symmetric(out.checks, q.inst, r.key, h.key, r.value, h.value);
        }
      } else {
        check_bw(out.checks, q.inst, q.kind == Kind::kExact, r.value, r.exact);
      }
    }
    peak_rss = std::max(peak_rss, daemon->finish());
    daemon.reset();
  });

  // Each phase sums, over its slots, the slot's fastest round trip.
  double phase[3] = {0.0, 0.0, 0.0};
  for (int k = 0; k < 3; ++k) {
    for (const auto& [slot, rtts] : slot_rtt[k]) phase[k] += fastest(rtts);
  }
  out.metric("phase1_s", phase[0], "s");
  out.metric("phase2_s", phase[1], "s");
  out.metric("phase3_s", phase[2], "s");
  out.metric("peak_rss_mb", peak_rss, "MiB");
  out.figure("cold_exact_s", phase[0], "s");
  out.figure("cold_heuristic_s", phase[1], "s");
  out.figure("cold_boundary_s", phase[2], "s");
  out.figure("rounds", rounds, "count");
  out.figure("queries_per_round", static_cast<double>(per_round), "count");
}

// --- serve_warm ---------------------------------------------------------

const std::vector<std::pair<Instance, bool>>& warm_bw_set() {
  static const std::vector<std::pair<Instance, bool>> k = {
      {{Fam::kB, 8}, true},     {{Fam::kW, 8}, true},
      {{Fam::kCcc, 8}, true},   {{Fam::kCcc, 16}, true},
      {{Fam::kQ, 8}, true},     {{Fam::kQ, 16}, true},
      {{Fam::kQ, 32}, true},    {{Fam::kB, 32}, false},
      {{Fam::kW, 32}, false},   {{Fam::kCcc, 32}, false},
      {{Fam::kQ, 128}, false}};
  return k;
}

const std::vector<PoolSpec>& warm_small_pools() {
  static const std::vector<PoolSpec> k = {
      {{Fam::kB, 8}, 16, 192},    {{Fam::kW, 8}, 8, 192},
      {{Fam::kCcc, 8}, 8, 192},   {{Fam::kW, 16}, 16, 192},
      {{Fam::kCcc, 16}, 16, 192}, {{Fam::kQ, 16}, 8, 192},
      {{Fam::kQ, 32}, 8, 16}};
  return k;
}

const PoolSpec& warm_q64_pool() {
  static const PoolSpec k{{Fam::kQ, 64}, 4, 4};
  return k;
}

namespace {

constexpr std::size_t kWarmBwPerRound = 12500;

struct Primed {
  std::uint64_t mask = 0;
  std::string key;
  std::uint64_t value = 0;
};

struct Expect {
  Instance inst;
  std::uint64_t mask = 0;  ///< BOUNDARY: the mask sent
  const Primed* primed = nullptr;
  bool exact = false;      ///< BW: the policy asked
  std::uint64_t value = 0; ///< BW: the primed answer
};

/// Closed-loop pipelined stream: one writer (this thread) keeps at most
/// kWindow requests outstanding; one reader thread collects the replies.
/// Returns the seconds from the first write to the last reply and
/// appends each request's write-to-reply time, in microseconds, to rtt_us.
double stream(Daemon& d, const std::vector<std::string>& lines,
              std::vector<std::string>& replies, std::vector<double>& rtt_us) {
  std::string blob;
  std::vector<std::size_t> off(lines.size() + 1, 0);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    blob += lines[i];
    blob += '\n';
    off[i + 1] = blob.size();
  }
  replies.assign(lines.size(), std::string());
  std::vector<Clock::time_point> sent_at(lines.size());
  std::vector<Clock::time_point> got_at(lines.size());
  constexpr std::size_t kAbort = static_cast<std::size_t>(-1);
  std::atomic<std::size_t> received{0};
  std::exception_ptr reader_error;
  const Clock::time_point t0 = Clock::now();
  std::thread reader([&] {
    try {
      for (std::size_t i = 0; i < lines.size(); ++i) {
        if (!d.read_line(replies[i])) {
          throw std::runtime_error("daemon closed its output mid-stream");
        }
        got_at[i] = Clock::now();
        received.store(i + 1, std::memory_order_release);
        received.notify_one();
      }
    } catch (...) {
      reader_error = std::current_exception();
      received.store(kAbort, std::memory_order_release);
      received.notify_one();
    }
  });
  std::exception_ptr writer_error;
  try {
    std::size_t sent = 0;
    while (sent < lines.size()) {
      const std::size_t got = received.load(std::memory_order_acquire);
      if (got == kAbort) break;
      if (sent - got >= kWindow) {
        received.wait(got, std::memory_order_acquire);
        continue;
      }
      const std::size_t upto = std::min(lines.size(), got + kWindow);
      const Clock::time_point now = Clock::now();
      for (std::size_t i = sent; i < upto; ++i) sent_at[i] = now;
      d.send(std::string_view(blob).substr(off[sent], off[upto] - off[sent]));
      sent = upto;
    }
  } catch (...) {
    writer_error = std::current_exception();
  }
  reader.join();
  const double secs = seconds_since(t0);
  if (reader_error) std::rethrow_exception(reader_error);
  if (writer_error) std::rethrow_exception(writer_error);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    rtt_us.push_back(
        std::chrono::duration<double, std::micro>(got_at[i] - sent_at[i])
            .count());
  }
  return secs;
}

void verify_stream(const std::vector<std::string>& replies,
                   const std::vector<Expect>& expect, RunResult& out) {
  for (std::size_t i = 0; i < replies.size(); ++i) {
    ++out.attempted;
    Reply r;
    if (!parse_reply(replies[i], r)) {
      out.checks.expect(false, "unparseable reply '" + replies[i] + "'");
    }
    if (!r.ok) {
      ++out.failed;
      continue;
    }
    const Expect& e = expect[i];
    check_reply_meta(out.checks, r, std::to_string(i), "memory", kDeadlineMs);
    if (e.primed == nullptr) {
      out.checks.expect(r.value == e.value, [&] {
        return "BW " + e.inst.name() + " hit gave " + std::to_string(r.value) +
               ", primed " + std::to_string(e.value);
      });
      check_bw(out.checks, e.inst, e.exact, r.value, r.exact);
    } else {
      check_boundary(out.checks, e.inst, e.mask, r.value,
                     ref::boundary(edges_of(e.inst), e.mask));
      check_symmetric(out.checks, e.inst, e.primed->key, r.key,
                      e.primed->value, r.value);
    }
  }
}

std::vector<Primed> prime_pool(Daemon& d, const PoolSpec& spec, Rng& rng,
                               RunResult& out) {
  std::vector<Primed> pool;
  for (const std::uint64_t m : distinct_orbit_masks(spec.inst, spec.pool, rng)) {
    const std::string id = "prime-" + spec.inst.name() + "-" + std::to_string(pool.size());
    const Reply r = ask(d, boundary_line(spec.inst, m, id), out);
    if (!r.ok) continue;
    check_reply_meta(out.checks, r, id, "computed", kDeadlineMs);
    check_boundary(out.checks, spec.inst, m, r.value,
                   ref::boundary(edges_of(spec.inst), m));
    pool.push_back({m, r.key, r.value});
  }
  if (pool.empty()) throw std::runtime_error("no BOUNDARY pool entry primed");
  return pool;
}

void add_boundary_queries(const PoolSpec& spec, const std::vector<Primed>& pool,
                          Rng& rng, std::vector<Expect>& expect) {
  for (std::size_t k = 0; k < spec.per_round; ++k) {
    const Primed& p = pool[k % pool.size()];
    Expect e;
    e.inst = spec.inst;
    e.primed = &p;
    e.mask = random_image(spec.inst, p.mask, rng);
    expect.push_back(e);
  }
}

std::vector<std::string> to_lines(const std::vector<Expect>& expect) {
  std::vector<std::string> lines;
  lines.reserve(expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    const Expect& e = expect[i];
    const std::string id = std::to_string(i);
    lines.push_back(e.primed == nullptr ? bw_line(e.inst, e.exact, id)
                                        : boundary_line(e.inst, e.mask, id));
  }
  return lines;
}

}  // namespace

void run_serve_warm(const Options& opt, RunResult& out) {
  Rng rng(derive_seed(opt.seed, 2));
  const TempDir dir(std::filesystem::path(opt.work_dir) /
                    ("warm-cache-" + std::to_string(getpid())));
  Daemon daemon(opt.daemon, {"--cache-dir=" + dir.path().string()});
  std::vector<Expect> bw_pool;
  for (const auto& [inst, exact] : warm_bw_set()) {
    const Reply r = ask(daemon, bw_line(inst, exact, "prime-" + inst.name()), out);
    if (!r.ok) continue;
    check_bw(out.checks, inst, exact, r.value, r.exact);
    Expect e;
    e.inst = inst;
    e.exact = exact;
    e.value = r.value;
    bw_pool.push_back(e);
  }
  if (bw_pool.empty()) throw std::runtime_error("no BW entry primed");
  std::vector<std::vector<Primed>> small_pools;
  for (const PoolSpec& spec : warm_small_pools()) {
    small_pools.push_back(prime_pool(daemon, spec, rng, out));
  }
  const std::vector<Primed> q64_pool = prime_pool(daemon, warm_q64_pool(), rng, out);
  out.metric("setup_s", seconds_since(opt.process_start), "s");

  std::vector<double> bw_s, small_s;
  // Q64 round trips per pool mask: each query is a closed-loop round trip
  // of about 0.1 s, and the phase sums each mask's fastest.
  std::vector<std::vector<double>> q64_rtt(q64_pool.size());
  std::vector<double> bw_qps;
  std::size_t small_count = 0;
  std::vector<std::string> replies;
  std::vector<double> bw_rtt_us, boundary_rtt_us;
  const int rounds = run_rounds(opt.seconds, [&](int) {
    // The writer and the reader thread get a CPU each, the daemon a third.
    pin_thread(2);
    pin_process(daemon.pid(), 1, 2);
    std::vector<Expect> expect;
    for (std::size_t k = 0; k < kWarmBwPerRound; ++k) {
      expect.push_back(bw_pool[k % bw_pool.size()]);
    }
    rng.shuffle(expect);
    bw_s.push_back(stream(daemon, to_lines(expect), replies, bw_rtt_us));
    verify_stream(replies, expect, out);
    bw_qps.push_back(static_cast<double>(expect.size()) / bw_s.back());

    expect.clear();
    for (std::size_t p = 0; p < small_pools.size(); ++p) {
      add_boundary_queries(warm_small_pools()[p], small_pools[p], rng, expect);
    }
    rng.shuffle(expect);
    small_count = expect.size();
    small_s.push_back(stream(daemon, to_lines(expect), replies, boundary_rtt_us));
    verify_stream(replies, expect, out);

    expect.clear();
    add_boundary_queries(warm_q64_pool(), q64_pool, rng, expect);
    const std::vector<std::string> lines = to_lines(expect);
    replies.assign(lines.size(), std::string());
    for (std::size_t i = 0; i < lines.size(); ++i) {
      const Clock::time_point t0 = Clock::now();
      daemon.send(lines[i] + "\n");
      if (!daemon.read_line(replies[i])) {
        throw std::runtime_error("daemon closed its output");
      }
      const double rtt = seconds_since(t0);
      q64_rtt[i % q64_pool.size()].push_back(rtt);
      boundary_rtt_us.push_back(rtt * 1e6);
    }
    verify_stream(replies, expect, out);
  });
  const double rss = daemon.finish();

  double q64_s = 0.0;
  for (const std::vector<double>& rtts : q64_rtt) q64_s += fastest(rtts);
  const double small_s_best = fastest(small_s);
  const auto q64_count = static_cast<double>(q64_pool.size());
  out.metric("phase1_s", fastest(bw_s), "s");
  out.metric("phase2_s", small_s_best, "s");
  out.metric("phase3_s", q64_s, "s");
  out.metric("peak_rss_mb", rss, "MiB");
  out.figure("warm_bw_qps", *std::max_element(bw_qps.begin(), bw_qps.end()), "queries/s");
  out.figure("warm_boundary_qps",
             (static_cast<double>(small_count) + q64_count) /
                 (small_s_best + q64_s),
             "queries/s");
  out.figure("warm_bw_rtt_p50_us", quantile(bw_rtt_us, 0.5), "us");
  out.figure("warm_bw_rtt_p99_us", quantile(bw_rtt_us, 0.99), "us");
  out.figure("warm_boundary_rtt_p50_us", quantile(boundary_rtt_us, 0.5), "us");
  out.figure("warm_boundary_rtt_p99_us", quantile(boundary_rtt_us, 0.99), "us");
  out.figure("warm_samples", static_cast<double>(bw_rtt_us.size() + boundary_rtt_us.size()), "count");
  out.figure("rounds", rounds, "count");
}

}  // namespace perfbench
