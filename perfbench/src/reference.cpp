#include "reference.hpp"

#include <cmath>

namespace perfbench::ref {

namespace {

std::uint32_t log2_exact(std::uint32_t n) {
  std::uint32_t d = 0;
  while ((1u << d) < n) ++d;
  return d;
}

}  // namespace

std::string Instance::name() const {
  const char* prefix = fam == Fam::kB   ? "B"
                       : fam == Fam::kW ? "W"
                       : fam == Fam::kCcc ? "CCC"
                                          : "Q";
  return prefix + std::to_string(n);
}

const char* Instance::token() const {
  switch (fam) {
    case Fam::kB: return "b";
    case Fam::kW: return "w";
    case Fam::kCcc: return "ccc";
    case Fam::kQ: return "q";
  }
  return "?";
}

std::uint32_t Instance::dims() const { return log2_exact(n); }

std::uint32_t Instance::nodes() const {
  const std::uint32_t d = dims();
  switch (fam) {
    case Fam::kB: return (d + 1) * n;
    case Fam::kW:
    case Fam::kCcc: return d * n;
    case Fam::kQ: return n;
  }
  return 0;
}

std::vector<Edge> edges(const Instance& inst) {
  const std::uint32_t n = inst.n;
  const std::uint32_t d = inst.dims();
  std::vector<Edge> out;
  switch (inst.fam) {
    case Fam::kB:
      // <w, i> -- <w, i+1> and <w, i> -- <w ^ bit, i+1>, where the cross
      // edge flips paper bit position i+1 (MSB = position 1).
      for (std::uint32_t i = 0; i < d; ++i) {
        const std::uint32_t bit = 1u << (d - 1 - i);
        for (std::uint32_t w = 0; w < n; ++w) {
          out.emplace_back(i * n + w, (i + 1) * n + w);
          out.emplace_back(i * n + w, (i + 1) * n + (w ^ bit));
        }
      }
      break;
    case Fam::kW:
      // Bn with levels 0 and log n identified: level d-1 wraps to 0.
      for (std::uint32_t i = 0; i < d; ++i) {
        const std::uint32_t next = (i + 1) % d;
        const std::uint32_t bit = 1u << (d - 1 - i);
        for (std::uint32_t w = 0; w < n; ++w) {
          out.emplace_back(i * n + w, next * n + w);
          out.emplace_back(i * n + w, next * n + (w ^ bit));
        }
      }
      break;
    case Fam::kCcc:
      // Cycle edges <w, i> -- <w, i+1 mod d>; cube edge at position i
      // flips paper bit position i+1.
      for (std::uint32_t i = 0; i < d; ++i) {
        const std::uint32_t bit = 1u << (d - 1 - i);
        for (std::uint32_t w = 0; w < n; ++w) {
          out.emplace_back(i * n + w, ((i + 1) % d) * n + w);
          if ((w & bit) == 0) out.emplace_back(i * n + w, i * n + (w ^ bit));
        }
      }
      break;
    case Fam::kQ:
      for (std::uint32_t x = 0; x < n; ++x) {
        for (std::uint32_t b = 0; b < d; ++b) {
          if ((x & (1u << b)) == 0) out.emplace_back(x, x ^ (1u << b));
        }
      }
      break;
  }
  return out;
}

std::uint64_t boundary(const std::vector<Edge>& edges,
                       const std::vector<std::uint8_t>& in_set) {
  std::uint64_t count = 0;
  for (const auto& [u, v] : edges) count += in_set[u] != in_set[v];
  return count;
}

std::uint64_t boundary(const std::vector<Edge>& edges, std::uint64_t mask) {
  std::uint64_t count = 0;
  for (const auto& [u, v] : edges) {
    count += ((mask >> u) & 1u) != ((mask >> v) & 1u);
  }
  return count;
}

std::uint64_t neighbours(std::uint32_t nodes, const std::vector<Edge>& edges,
                         const std::vector<std::uint8_t>& in_set) {
  std::vector<std::uint8_t> hit(nodes, 0);
  for (const auto& [u, v] : edges) {
    if (in_set[u] != 0 && in_set[v] == 0) hit[v] = 1;
    if (in_set[v] != 0 && in_set[u] == 0) hit[u] = 1;
  }
  std::uint64_t count = 0;
  for (const std::uint8_t h : hit) count += h;
  return count;
}

std::optional<std::uint64_t> known_width(const Instance& inst) {
  switch (inst.fam) {
    case Fam::kW: return inst.n;
    case Fam::kCcc: return inst.n / 2;
    case Fam::kQ: return inst.n / 2;
    case Fam::kB: return std::nullopt;
  }
  return std::nullopt;
}

double bn_lower_bound(std::uint32_t n) {
  return 2.0 * (std::sqrt(2.0) - 1.0) * n;
}

std::uint64_t bn_column_cut(std::uint32_t n) {
  const Instance inst{Fam::kB, n};
  std::vector<std::uint8_t> side(inst.nodes(), 0);
  for (std::uint32_t v = 0; v < inst.nodes(); ++v) side[v] = (v % n) >= n / 2;
  return boundary(edges(inst), side);
}

std::uint64_t column_xor(const Instance& inst, std::uint64_t mask,
                         std::uint32_t c) {
  c &= inst.n - 1;
  std::uint64_t out = 0;
  for (std::uint32_t v = 0; v < inst.nodes(); ++v) {
    if (((mask >> v) & 1u) == 0) continue;
    const std::uint32_t level = v / inst.n;
    const std::uint32_t col = v % inst.n;
    out |= std::uint64_t{1} << (level * inst.n + (col ^ c));
  }
  return out;
}

std::uint64_t cube_map(std::uint32_t dims, std::uint64_t mask,
                       const std::vector<std::uint32_t>& perm,
                       std::uint32_t c) {
  std::uint64_t out = 0;
  for (std::uint32_t x = 0; x < (1u << dims); ++x) {
    if (((mask >> x) & 1u) == 0) continue;
    std::uint32_t y = 0;
    for (std::uint32_t b = 0; b < dims; ++b) {
      if ((x >> b) & 1u) y |= 1u << perm[b];
    }
    out |= std::uint64_t{1} << (y ^ c);
  }
  return out;
}

PathFacts path_facts(std::uint32_t n,
                     const std::vector<std::vector<std::uint32_t>>& paths) {
  const std::uint32_t d = log2_exact(n);
  // Directed link id: (lower-level node, straight|cross, up|down).
  std::vector<std::uint32_t> load(static_cast<std::size_t>(d) * n * 4, 0);
  PathFacts f;
  f.packets = paths.size();
  for (const auto& path : paths) {
    const std::size_t len = path.empty() ? 0 : path.size() - 1;
    f.hops += len;
    f.longest = std::max(f.longest, len);
    bool walk = true;
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      const std::uint32_t u = path[i];
      const std::uint32_t v = path[i + 1];
      const std::uint32_t lu = u / n;
      const std::uint32_t lv = v / n;
      if (lu > d || lv > d || (lu + 1 != lv && lv + 1 != lu)) {
        walk = false;
        continue;
      }
      const std::uint32_t lo = std::min(lu, lv);
      const std::uint32_t clo = lu == lo ? u % n : v % n;
      const std::uint32_t chi = lu == lo ? v % n : u % n;
      std::uint32_t kind = 0;
      if (chi == clo) {
        kind = 0;
      } else if (chi == (clo ^ (1u << (d - 1 - lo)))) {
        kind = 1;
      } else {
        walk = false;
        continue;
      }
      const std::uint32_t up = lu == lo ? 1 : 0;
      ++load[((static_cast<std::size_t>(lo) * n + clo) * 2 + kind) * 2 + up];
    }
    if (!walk) ++f.non_walks;
  }
  for (const std::uint32_t l : load) f.max_link_load = std::max<std::size_t>(f.max_link_load, l);
  return f;
}

}  // namespace perfbench::ref
