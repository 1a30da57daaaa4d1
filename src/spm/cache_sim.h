// Set-associative LRU cache simulator.
//
// The comparison substrate for the SPM argument (Banakar et al. — the
// paper's reference [1] — motivates SPMs by their energy advantage over
// caches). Benches feed FORAY-model address streams through this cache
// and through the SPM configuration and compare energy.
#pragma once

#include <cstdint>
#include <vector>

#include "spm/energy.h"
#include "util/status.h"

namespace foray::spm {

struct CacheConfig {
  uint32_t size_bytes = 4096;
  uint32_t line_bytes = 32;
  int assoc = 2;
};

/// Energy of a cache of geometry `cfg` that served `hits` + `misses`
/// accesses: every access pays the lookup; every miss additionally
/// fetches a full line from main memory. The counts depend on the
/// geometry alone, so one simulation prices any number of energy models.
double cache_energy_nj(const CacheConfig& cfg, uint64_t hits,
                       uint64_t misses, const EnergyModel& e);

class CacheSim {
 public:
  /// Throws util::StatusError (invalid_input, phase "cache") on a
  /// geometry it cannot simulate: a line size or set count that is not
  /// 2^k, associativity < 1, or less than one set of capacity.
  explicit CacheSim(const CacheConfig& cfg);

  /// Simulates one access; returns true on hit.
  bool access(uint32_t addr);

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t accesses() const { return hits_ + misses_; }
  double hit_rate() const {
    return accesses() ? static_cast<double>(hits_) / accesses() : 0.0;
  }

  /// Total energy of the accesses so far (cache_energy_nj).
  double energy_nj(const EnergyModel& e) const;

  const CacheConfig& config() const { return cfg_; }
  void reset();

 private:
  CacheConfig cfg_;
  uint32_t line_shift_;  ///< log2(line_bytes)
  uint32_t set_shift_;   ///< log2(number of sets)
  uint32_t set_mask_;    ///< number of sets - 1
  /// Per set, the tags of its valid ways in most-recently-used-first
  /// order (sets * assoc, row-major by set); the LRU victim is the last.
  std::vector<uint32_t> tags_;
  std::vector<uint32_t> valid_;  ///< valid ways per set
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace foray::spm
