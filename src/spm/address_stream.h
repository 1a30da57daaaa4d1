// Address-stream generation from a FORAY model.
//
// Replays a model reference's (emitted) loop nest in lexicographic order
// and produces the exact address sequence its affine function describes.
// The cache simulator consumes these streams; tests use them to check
// that an extracted model reproduces the simulator-observed addresses.
//
// The visitors are templates: the callback is a deduced functor invoked
// directly inside the strided sweep, so a lambda over CacheSim::access
// (or a counter) inlines into the loop — the streams replay at memory
// bandwidth instead of paying a std::function indirection per address.
#pragma once

#include <cstdint>
#include <vector>

#include "foray/model.h"

namespace foray::spm {

namespace internal {

/// Sweeps one nest (`trips`, outermost-first) in iteration order,
/// innermost index fastest, with every reference of `bases` emitting one
/// address per iteration, in order. `coefs` holds each reference's
/// coefficients row-major (bases.size() rows of trips.size()). Returns
/// the iteration count (the product of `trips`; 0 if any is <= 0).
///
/// The innermost loop runs as outer[k] + inner_coef[k] * t, and `outer`
/// moves by one stride when an outer index carries, so no address pays
/// for a dot product. The arithmetic wraps modulo 2^64; only the low 32
/// bits are emitted, which equal those of the signed dot product.
template <class Fn>
uint64_t sweep_nest(const std::vector<int64_t>& trips,
                    const std::vector<uint64_t>& bases,
                    const std::vector<uint64_t>& coefs, Fn&& fn) {
  for (int64_t t : trips) {
    if (t <= 0) return 0;
  }
  const size_t n = trips.size();
  const size_t refs = bases.size();
  std::vector<uint64_t> outer = bases;  ///< each address at inner t = 0
  if (n == 0) {
    for (size_t k = 0; k < refs; ++k) fn(static_cast<uint32_t>(outer[k]));
    return 1;
  }
  std::vector<uint64_t> inner(refs);
  for (size_t k = 0; k < refs; ++k) inner[k] = coefs[k * n + n - 1];
  const uint64_t inner_trips = static_cast<uint64_t>(trips[n - 1]);
  std::vector<int64_t> it(n - 1, 0);  ///< outer indices
  uint64_t count = 0;
  for (;;) {
    for (uint64_t t = 0; t < inner_trips; ++t) {
      for (size_t k = 0; k < refs; ++k) {
        fn(static_cast<uint32_t>(outer[k] + inner[k] * t));
      }
    }
    count += inner_trips;
    // Carry into the outer indices, innermost first.
    size_t i = n - 1;
    for (;;) {
      if (i == 0) return count;
      --i;
      for (size_t k = 0; k < refs; ++k) outer[k] += coefs[k * n + i];
      if (++it[i] < trips[i]) break;
      for (size_t k = 0; k < refs; ++k) {
        outer[k] -= coefs[k * n + i] * static_cast<uint64_t>(trips[i]);
      }
      it[i] = 0;
    }
  }
}

/// Appends `ref`'s base and emitted coefficients to a sweep_nest plan.
inline void add_to_plan(const core::ModelReference& ref,
                        std::vector<uint64_t>* bases,
                        std::vector<uint64_t>* coefs) {
  bases->push_back(static_cast<uint64_t>(ref.fn.const_term));
  for (int64_t c : ref.emitted_coefs()) {
    coefs->push_back(static_cast<uint64_t>(c));
  }
}

}  // namespace internal

/// Invokes `fn(addr)` for every access of `ref`'s emitted nest, in
/// iteration order (outermost slowest). Returns the number of addresses
/// produced (product of emitted trips).
template <class Fn>
uint64_t for_each_address(const core::ModelReference& ref, Fn&& fn) {
  std::vector<uint64_t> bases, coefs;
  internal::add_to_plan(ref, &bases, &coefs);
  return internal::sweep_nest(ref.emitted_trips(), bases, coefs, fn);
}

/// Interleaved stream over all references of a model that share a nest:
/// per innermost iteration, each reference of the group emits one
/// address, mirroring how the emitted program executes. Returns the
/// total accesses produced.
template <class Fn>
uint64_t for_each_address(const core::ForayModel& model, Fn&& fn) {
  // Group references by emitted nest (loop path and trips), in order of
  // first appearance, then sweep each group once with all its
  // references interleaved per iteration.
  struct Group {
    std::vector<int> path;
    std::vector<int64_t> trips;
    std::vector<uint64_t> bases;
    std::vector<uint64_t> coefs;
  };
  std::vector<Group> groups;
  for (const core::ModelReference& ref : model.refs) {
    std::vector<int> path = ref.emitted_loop_path();
    std::vector<int64_t> trips = ref.emitted_trips();
    Group* home = nullptr;
    for (Group& g : groups) {
      if (g.path == path && g.trips == trips) {
        home = &g;
        break;
      }
    }
    if (home == nullptr) {
      groups.push_back(Group{std::move(path), std::move(trips), {}, {}});
      home = &groups.back();
    }
    internal::add_to_plan(ref, &home->bases, &home->coefs);
  }

  uint64_t total = 0;
  for (const Group& g : groups) {
    total += static_cast<uint64_t>(g.bases.size()) *
             internal::sweep_nest(g.trips, g.bases, g.coefs, fn);
  }
  return total;
}

/// Materializes the (possibly large) stream of one reference.
std::vector<uint32_t> addresses_of(const core::ModelReference& ref,
                                   uint64_t limit = 1u << 22);

}  // namespace foray::spm
