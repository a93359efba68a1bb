#include "checks.hpp"

#include <charconv>
#include <cstdio>
#include <iostream>
#include <sstream>

namespace perfbench {

void CheckLog::fail(const std::string& what) {
  ++failures_;
  if (failures_ <= 10) std::cerr << "perfbench: CHECK FAILED: " << what << '\n';
}

namespace {

/// Value of "name=" within the line (up to the next space), or empty.
std::string field(const std::string& line, const char* name) {
  const std::string tag = std::string(" ") + name + "=";
  const std::size_t at = line.find(tag);
  if (at == std::string::npos) return {};
  const std::size_t begin = at + tag.size();
  const std::size_t end = line.find(' ', begin);
  return line.substr(begin, end == std::string::npos ? std::string::npos
                                                     : end - begin);
}

bool to_u64(const std::string& s, std::uint64_t& out) {
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc() && ptr == s.data() + s.size() && !s.empty();
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

bool parse_reply(const std::string& line, Reply& out) {
  out = Reply{};
  if (line.rfind("ERR ", 0) == 0) {
    out.id = field(line, "id");
    return !field(line, "status").empty();
  }
  if (line.rfind("OK ", 0) != 0) return false;
  out.ok = true;
  out.id = field(line, "id");
  out.key = field(line, "key");
  out.source = field(line, "source");
  const std::string exact = field(line, "exact");
  out.exact = exact == "1";
  const std::string ms = field(line, "ms");
  try {
    out.ms = std::stod(ms);
  } catch (const std::exception&) {
    return false;
  }
  return to_u64(field(line, "value"), out.value) && out.key.size() == 16 &&
         (exact == "0" || exact == "1") && !out.source.empty();
}

void check_bw(CheckLog& log, const ref::Instance& inst, bool exact_policy,
              std::uint64_t value, bool exact_flag) {
  const auto what = [&](const std::string& why) {
    return "BW " + inst.name() + " = " + std::to_string(value) +
           (exact_policy ? " (exact policy): " : " (heuristic): ") + why;
  };
  if (exact_policy) {
    log.expect(exact_flag, [&] { return what("answered without proof"); });
  }
  if (const auto known = ref::known_width(inst)) {
    if (exact_policy) {
      log.expect(value == *known, [&] {
        return what("closed form gives " + std::to_string(*known));
      });
    } else {
      log.expect(value >= *known, [&] {
        return what("below the known width " + std::to_string(*known));
      });
    }
    return;
  }
  const double lower = ref::bn_lower_bound(inst.n);
  log.expect(static_cast<double>(value) > lower, [&] {
    return what("not above Theorem 2.20's 2(sqrt2-1)n = " +
                std::to_string(lower));
  });
  if (exact_policy) {
    const std::uint64_t column = ref::bn_column_cut(inst.n);
    log.expect(value <= column, [&] {
      return what("above the column cut " + std::to_string(column));
    });
  }
}

void check_boundary(CheckLog& log, const ref::Instance& inst,
                    std::uint64_t mask, std::uint64_t value,
                    std::uint64_t recount) {
  log.expect(value == recount, [&] {
    return "BOUNDARY " + inst.name() + " " + hex(mask) + " = " +
           std::to_string(value) + ", recount gives " +
           std::to_string(recount);
  });
}

void check_symmetric(CheckLog& log, const ref::Instance& inst,
                     const std::string& key_a, const std::string& key_b,
                     std::uint64_t value_a, std::uint64_t value_b) {
  log.expect(key_a == key_b && value_a == value_b, [&] {
    return "BOUNDARY " + inst.name() + ": automorphic masks got key " + key_a +
           " value " + std::to_string(value_a) + " vs key " + key_b +
           " value " + std::to_string(value_b);
  });
}

void check_reply_meta(CheckLog& log, const Reply& r,
                      const std::string& want_id,
                      const std::string& want_source, double deadline_ms) {
  log.expect(r.id == want_id,
             [&] { return "reply id " + r.id + ", expected " + want_id; });
  log.expect(r.source == want_source, [&] {
    return "reply " + r.id + " came from " + r.source + ", expected " +
           want_source;
  });
  log.expect(r.ms < deadline_ms, [&] {
    return "reply " + r.id + " took " + std::to_string(r.ms) +
           " ms, at or past the deadline";
  });
}

void check_sim(CheckLog& log, const std::string& what, std::uint32_t n,
               const ref::PathFacts& paths, const SimFacts& one,
               const SimFacts& two) {
  const double c14 = static_cast<double>(paths.packets) / (4.0 * n);
  const auto msg = [&](const char* why) {
    std::ostringstream s;
    s << what << ": delivered " << one.delivered << "/" << paths.packets
      << ", hops " << one.total_hops << " (recount " << paths.hops
      << "), makespan " << one.makespan << " vs longest path "
      << paths.longest << ", link load " << paths.max_link_load
      << ", N/(4n) " << c14 << "; 2 threads: makespan " << two.makespan
      << ", steps " << two.steps << ", max queue " << two.max_queue
      << ", hops " << two.total_hops << ", non-walks " << paths.non_walks
      << " [" << why << "]";
    return s.str();
  };
  log.expect(one.delivered == paths.packets && one.packets == paths.packets,
             [&] { return msg("delivered"); });
  log.expect(one.total_hops == paths.hops, [&] { return msg("hops"); });
  log.expect(paths.non_walks == 0, [&] { return msg("paths not walks"); });
  log.expect(one.makespan >= paths.longest &&
                 one.makespan >= paths.max_link_load &&
                 static_cast<double>(one.makespan) >= c14,
             [&] { return msg("makespan below a lower bound"); });
  log.expect(two.makespan == one.makespan && two.steps == one.steps &&
                 two.max_queue == one.max_queue &&
                 two.delivered == one.delivered &&
                 two.total_hops == one.total_hops,
             [&] { return msg("thread counts disagree"); });
}

void check_edge_cert(CheckLog& log, const std::string& what,
                     std::uint64_t recount, std::int64_t flow,
                     bool certified) {
  log.expect(
      flow >= 0 && static_cast<std::uint64_t>(flow) == recount && certified,
      [&] {
        return what + ": edge flow " + std::to_string(flow) + " certified=" +
               std::to_string(certified) + ", recount |dS| = " +
               std::to_string(recount);
      });
}

void check_node_cert(CheckLog& log, const std::string& what,
                     std::uint64_t recount, std::int64_t cert_recount,
                     std::int64_t flow, bool certified) {
  log.expect(cert_recount >= 0 &&
                 static_cast<std::uint64_t>(cert_recount) == recount &&
                 flow >= 0 && static_cast<std::uint64_t>(flow) <= recount &&
                 certified,
             [&] {
               return what + ": node recount " + std::to_string(cert_recount) +
                      " flow " + std::to_string(flow) + " certified=" +
                      std::to_string(certified) + ", benchmark |N(S)| = " +
                      std::to_string(recount);
             });
}

void check_superconc(CheckLog& log, std::uint64_t queries,
                     std::uint64_t failures, bool exhaustive, bool certified) {
  log.expect(queries == 12869 && failures == 0 && exhaustive && certified, [&] {
    return "superconcentration on the B8 pair: " + std::to_string(queries) +
           " queries (expected C(16,8)-1 = 12869), " +
           std::to_string(failures) + " failures, exhaustive=" +
           std::to_string(exhaustive) + " certified=" +
           std::to_string(certified);
  });
}

}  // namespace perfbench
