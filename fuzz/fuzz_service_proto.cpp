// Line-protocol fuzzer: the service parser is the daemon's untrusted
// surface — every byte of every request line comes straight from a
// client socket/pipe. The only acceptable outcomes for arbitrary input
// are a syntactically valid Request or a typed ProtocolError; any other
// exception, crash, unbounded allocation, or sanitizer report is a bug.
//
// A successful parse is pushed one step further: the Request must be
// internally consistent (ids within the protocol charset and length
// cap, deadline within its ceiling), and — when it names a valid
// instance small enough for the canonicalizer — its canonical key must
// be stable under re-canonicalization (canonical_mask is idempotent),
// and the canonical mask (a minimum over the per-instance image tables)
// must equal the front of the sorted orbit the group walks itself.
// The cache-entry decoder is exercised on the same bytes too, since a
// hostile .bfc file is the same threat class.
#include <cctype>
#include <cstdint>
#include <span>
#include <string_view>

#include "robust/checkpoint.hpp"
#include "service/cache.hpp"
#include "service/request.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  namespace svc = bfly::service;
  const std::string_view line(reinterpret_cast<const char*>(data), size);

  try {
    const svc::Request req = svc::parse_request(line);

    // Parser post-conditions: everything it accepted is well-formed.
    if (req.id.size() > 64) __builtin_trap();
    for (const char c : req.id) {
      if ((std::isalnum(static_cast<unsigned char>(c)) == 0) && c != '.' &&
          c != '_' && c != ':' && c != '-') {
        __builtin_trap();
      }
    }
    if (req.deadline_seconds < 0.0 || req.deadline_seconds > 86'400.0) {
      __builtin_trap();
    }

    // Semantic layer: key derivation must be total and idempotent on
    // every instance the service would accept.
    if (svc::valid_instance(req.family, req.n)) {
      const std::uint64_t nodes = svc::instance_nodes(req.family, req.n);
      const bool mask_ok =
          req.kind != svc::QueryKind::kBoundary ||
          (nodes <= 64 && (nodes == 64 || (req.subset_mask >> nodes) == 0));
      if (mask_ok && nodes <= 64) {
        const std::uint64_t key = svc::canonical_key(req);
        svc::Request canon = req;
        if (req.kind == svc::QueryKind::kBoundary) {
          canon.subset_mask =
              svc::canonical_mask(req.family, req.n, req.subset_mask);
          const bfly::algo::PermutationGroup group =
              svc::automorphism_group(req.family, req.n);
          if (canon.subset_mask != group.mask_orbit(req.subset_mask).front()) {
            __builtin_trap();
          }
          if (svc::canonical_key(req, canon.subset_mask) != key) {
            __builtin_trap();
          }
        }
        if (svc::canonical_key(canon) != key) __builtin_trap();
      }
    }
  } catch (const svc::ProtocolError&) {
    // the typed rejection path — expected for most inputs
  }

  // Same bytes through the cache-entry decoder: decode fully or throw
  // the structured SnapshotError, nothing else.
  try {
    const svc::CacheEntry e =
        svc::decode_entry(std::span<const std::uint8_t>(data, size));
    // A decoded entry re-encodes to bytes that decode identically.
    const svc::CacheEntry again = svc::decode_entry(svc::encode_entry(e));
    if (again.key != e.key || again.value != e.value ||
        again.exact != e.exact || again.mask != e.mask || again.n != e.n) {
      __builtin_trap();
    }
  } catch (const bfly::robust::SnapshotError&) {
    // structured rejection — expected
  }
  return 0;
}
