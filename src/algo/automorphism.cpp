#include "algo/automorphism.hpp"

#include <algorithm>
#include <bit>
#include <set>
#include <utility>

#include "core/error.hpp"

namespace bfly::algo {

Perm identity_perm(NodeId n) {
  Perm p(n);
  for (NodeId v = 0; v < n; ++v) p[v] = v;
  return p;
}

bool is_permutation(const Perm& p) {
  std::vector<std::uint8_t> hit(p.size(), 0);
  for (const NodeId v : p) {
    if (v >= p.size() || hit[v]) return false;
    hit[v] = 1;
  }
  return true;
}

Perm compose(const Perm& a, const Perm& b) {
  BFLY_CHECK(a.size() == b.size(), "composing permutations of mixed degree");
  const NodeId n = static_cast<NodeId>(a.size());
  Perm c(n);
  for (NodeId v = 0; v < n; ++v) c[v] = a[b[v]];
  return c;
}

Perm inverse(const Perm& p) {
  const NodeId n = static_cast<NodeId>(p.size());
  Perm q(n);
  for (NodeId v = 0; v < n; ++v) q[p[v]] = v;
  return q;
}

bool is_automorphism(const Graph& g, const Perm& p) {
  if (p.size() != g.num_nodes() || !is_permutation(p)) return false;
  // Compare edge MULTISETS, so parallel edges (W4, CCC4, ...) are
  // checked with multiplicity instead of collapsing.
  using E = std::pair<NodeId, NodeId>;
  std::vector<E> original, mapped;
  original.reserve(g.num_edges());
  mapped.reserve(g.num_edges());
  for (const auto& [u, v] : g.edges()) {
    original.emplace_back(std::min(u, v), std::max(u, v));
    const NodeId pu = p[u], pv = p[v];
    mapped.emplace_back(std::min(pu, pv), std::max(pu, pv));
  }
  std::sort(original.begin(), original.end());
  std::sort(mapped.begin(), mapped.end());
  return original == mapped;
}

std::uint64_t apply_to_mask(const Perm& p, std::uint64_t mask) {
  BFLY_ASSERT(p.size() <= 64);
  std::uint64_t out = 0;
  while (mask != 0) {
    const unsigned v = static_cast<unsigned>(std::countr_zero(mask));
    mask &= mask - 1;
    out |= std::uint64_t{1} << p[v];
  }
  return out;
}

PermutationGroup::PermutationGroup(NodeId n, std::vector<Perm> generators)
    : n_(n), gens_(std::move(generators)) {
  for (const Perm& gen : gens_) {
    BFLY_CHECK(gen.size() == n_, "generator degree mismatch");
    BFLY_CHECK(is_permutation(gen), "generator is not a permutation");
  }
}

std::vector<NodeId> PermutationGroup::orbit(NodeId v) const {
  BFLY_CHECK(v < n_, "orbit point out of range");
  std::vector<std::uint8_t> seen(n_, 0);
  std::vector<NodeId> frontier{v}, out{v};
  seen[v] = 1;
  while (!frontier.empty()) {
    const NodeId u = frontier.back();
    frontier.pop_back();
    for (const Perm& gen : gens_) {
      const NodeId w = gen[u];
      if (!seen[w]) {
        seen[w] = 1;
        out.push_back(w);
        frontier.push_back(w);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::vector<NodeId>> PermutationGroup::vertex_orbits() const {
  std::vector<std::uint8_t> done(n_, 0);
  std::vector<std::vector<NodeId>> orbits;
  for (NodeId v = 0; v < n_; ++v) {
    if (done[v]) continue;
    auto orb = orbit(v);
    for (const NodeId u : orb) done[u] = 1;
    orbits.push_back(std::move(orb));
  }
  return orbits;
}

std::vector<std::uint64_t> PermutationGroup::mask_orbit(
    std::uint64_t mask) const {
  return MaskImageTables(*this).orbit(mask);
}

std::uint64_t PermutationGroup::min_mask_image(std::uint64_t mask) const {
  return MaskImageTables(*this).min_image(mask);
}

const std::vector<Perm>* PermutationGroup::elements(
    std::size_t max_elements) const {
  if (!elements_.empty()) {
    return elements_.size() <= max_elements ? &elements_ : nullptr;
  }
  if (too_large_) return nullptr;
  // Breadth-first closure: seed with the identity, multiply by every
  // generator until no new element appears (or the cap blows).
  std::set<Perm> seen;
  std::vector<Perm> frontier{identity_perm(n_)};
  seen.insert(frontier.front());
  while (!frontier.empty()) {
    const Perm cur = std::move(frontier.back());
    frontier.pop_back();
    for (const Perm& gen : gens_) {
      Perm next = compose(gen, cur);
      if (seen.size() >= max_elements && !seen.contains(next)) {
        too_large_ = true;
        return nullptr;
      }
      if (seen.insert(next).second) frontier.push_back(std::move(next));
    }
  }
  elements_.assign(seen.begin(), seen.end());
  return &elements_;
}

std::size_t PermutationGroup::order(std::size_t max_elements) const {
  const std::vector<Perm>* elems = elements(max_elements);
  BFLY_CHECK(elems != nullptr, "group order exceeds the enumeration cap");
  return elems->size();
}

std::vector<Perm> PermutationGroup::setwise_stabilizer(
    std::uint64_t mask, std::size_t max_elements) const {
  BFLY_CHECK(n_ <= 64, "setwise stabilizers need degree <= 64");
  const std::vector<Perm>* elems = elements(max_elements);
  BFLY_CHECK(elems != nullptr, "group order exceeds the enumeration cap");
  std::vector<Perm> stab;
  for (const Perm& p : *elems) {
    if (apply_to_mask(p, mask) == mask) stab.push_back(p);
  }
  return stab;
}

namespace {

/// Open-addressing set of nonzero masks with linear probing; slot value
/// 0 means empty. Orbit walks never insert 0: a permutation maps only
/// the empty set to the empty set, and walk() answers that case first.
class FlatMaskSet {
 public:
  FlatMaskSet() { rehash(64); }

  /// Grows so that `more` further inserts keep the load at most 1/2;
  /// slot indices taken before a reserve() are stale after it.
  void reserve(std::size_t more) {
    std::size_t capacity = slots_.size();
    while (2 * (size_ + more) > capacity) capacity *= 2;
    if (capacity != slots_.size()) rehash(capacity);
  }

  [[nodiscard]] std::size_t slot_of(std::uint64_t m) const {
    // Multiplicative hashing on a pre-mixed key; the top bits index.
    m ^= m >> 31;
    return static_cast<std::size_t>((m * 0x9e3779b97f4a7c15ull) >> shift_);
  }

  void prefetch(std::size_t slot) const {
    __builtin_prefetch(slots_.data() + slot);
  }

  /// Inserts m, probing from its slot_of(m); true iff m was new. The
  /// caller has reserved room for it.
  bool insert_at(std::uint64_t m, std::size_t slot) {
    for (;; slot = (slot + 1) & (slots_.size() - 1)) {
      if (slots_[slot] == m) return false;
      if (slots_[slot] == 0) {
        slots_[slot] = m;
        ++size_;
        return true;
      }
    }
  }

 private:
  void rehash(std::size_t capacity) {
    std::vector<std::uint64_t> old(capacity, 0);
    old.swap(slots_);
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
    for (const std::uint64_t m : old) {
      if (m == 0) continue;
      std::size_t i = slot_of(m);
      while (slots_[i] != 0) i = (i + 1) & (capacity - 1);
      slots_[i] = m;
    }
  }

  std::vector<std::uint64_t> slots_;
  std::size_t size_ = 0;
  unsigned shift_ = 64;
};

}  // namespace

MaskImageTables::MaskImageTables(const PermutationGroup& group)
    : n_(group.degree()),
      slices_((group.degree() + 7) / 8),
      gens_(group.generators().size()) {
  BFLY_CHECK(n_ <= 64, "mask image tables need degree <= 64");
  table_.assign(gens_ * slices_ * 256, 0);
  for (std::size_t g = 0; g < gens_; ++g) {
    const Perm& p = group.generators()[g];
    for (unsigned s = 0; s < slices_; ++s) {
      std::uint64_t* row = table_.data() + (g * slices_ + s) * 256;
      // row[b] = row[b minus its lowest bit] | image of that lowest bit.
      for (unsigned b = 1; b < 256; ++b) {
        const NodeId v = 8 * s + static_cast<NodeId>(std::countr_zero(b));
        row[b] = row[b & (b - 1)] | (v < n_ ? std::uint64_t{1} << p[v] : 0);
      }
    }
  }
}

std::vector<std::uint64_t> MaskImageTables::walk(std::uint64_t mask,
                                                 bool stop_at_floor) const {
  BFLY_CHECK(n_ == 64 || (mask >> n_) == 0,
             "mask holds a bit past the group's degree");
  std::vector<std::uint64_t> found{mask};
  if (mask == 0) return found;
  const int k = std::popcount(mask);
  const std::uint64_t floor =
      k == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << k) - 1;
  if (stop_at_floor && mask == floor) return found;
  FlatMaskSet seen;
  seen.insert_at(mask, seen.slot_of(mask));
  // `found` doubles as the breadth-first queue: entries past `next` are
  // discovered but not yet expanded. Each expansion maps the mask under
  // every generator and prefetches all probe slots before probing any,
  // so the set's cache misses overlap instead of queueing.
  std::vector<std::uint64_t> images(gens_);
  std::vector<std::size_t> slots(gens_);
  for (std::size_t next = 0; next < found.size(); ++next) {
    const std::uint64_t m = found[next];
    seen.reserve(gens_);
    for (std::size_t g = 0; g < gens_; ++g) {
      images[g] = image(g, m);
      slots[g] = seen.slot_of(images[g]);
      seen.prefetch(slots[g]);
    }
    for (std::size_t g = 0; g < gens_; ++g) {
      if (!seen.insert_at(images[g], slots[g])) continue;
      found.push_back(images[g]);
      if (stop_at_floor && images[g] == floor) return found;
    }
  }
  return found;
}

std::vector<std::uint64_t> MaskImageTables::orbit(std::uint64_t mask) const {
  std::vector<std::uint64_t> out = walk(mask, false);
  std::sort(out.begin(), out.end());
  return out;
}

std::uint64_t MaskImageTables::min_image(std::uint64_t mask) const {
  const std::vector<std::uint64_t> found = walk(mask, true);
  return *std::min_element(found.begin(), found.end());
}

}  // namespace bfly::algo
