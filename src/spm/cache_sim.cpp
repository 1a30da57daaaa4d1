#include "spm/cache_sim.h"

#include <algorithm>
#include <bit>
#include <string>

namespace foray::spm {

namespace {
bool is_pow2(uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }

/// Ok when CacheSim can simulate `cfg`: a 2^k line size, associativity
/// >= 1, room for at least one set, and a 2^k set count. Otherwise an
/// invalid_input status naming the offending parameter, since every
/// geometry comes from the user's grid.
util::Status check_cache_config(const CacheConfig& cfg) {
  auto bad = [&](const std::string& why) {
    return util::Status::failure(
        util::ErrorCode::kInvalidInput, "cache", 0,
        "cache of " + std::to_string(cfg.size_bytes) + " B with " +
            std::to_string(cfg.line_bytes) + " B lines x " +
            std::to_string(cfg.assoc) + " ways: " + why);
  };
  if (!is_pow2(cfg.line_bytes)) return bad("line size must be 2^k");
  if (cfg.assoc < 1) return bad("associativity must be >= 1");
  const uint64_t set_bytes =
      uint64_t{cfg.line_bytes} * static_cast<uint64_t>(cfg.assoc);
  if (cfg.size_bytes < set_bytes) return bad("smaller than one set");
  if (!is_pow2(cfg.size_bytes / set_bytes)) {
    return bad("set count " + std::to_string(cfg.size_bytes / set_bytes) +
               " is not 2^k");
  }
  return {};
}
}  // namespace

CacheSim::CacheSim(const CacheConfig& cfg) : cfg_(cfg) {
  util::Status st = check_cache_config(cfg);
  if (!st.ok()) throw util::StatusError(std::move(st));
  const uint32_t sets = cfg.size_bytes / (cfg.line_bytes * cfg.assoc);
  line_shift_ = static_cast<uint32_t>(std::countr_zero(cfg.line_bytes));
  set_shift_ = static_cast<uint32_t>(std::countr_zero(sets));
  set_mask_ = sets - 1;
  tags_.resize(static_cast<size_t>(sets) * cfg.assoc);
  valid_.resize(sets);
}

bool CacheSim::access(uint32_t addr) {
  const uint32_t block = addr >> line_shift_;
  const uint32_t set = block & set_mask_;
  const uint32_t tag = block >> set_shift_;
  uint32_t* ways = &tags_[static_cast<size_t>(set) * cfg_.assoc];
  uint32_t& valid = valid_[set];
  // Ways are kept most-recently-used first: a hit moves its tag to the
  // front, a miss shifts the set down (dropping the LRU way when full)
  // and inserts at the front.
  uint32_t w = 0;
  while (w < valid && ways[w] != tag) ++w;
  const bool hit = w < valid;
  if (hit) {
    ++hits_;
  } else {
    ++misses_;
    if (valid < static_cast<uint32_t>(cfg_.assoc)) ++valid;
    w = valid - 1;
  }
  for (; w > 0; --w) ways[w] = ways[w - 1];
  ways[0] = tag;
  return hit;
}

double cache_energy_nj(const CacheConfig& cfg, uint64_t hits,
                       uint64_t misses, const EnergyModel& e) {
  const double lookup = e.cache_access_nj(cfg.size_bytes, cfg.assoc);
  const double miss_fill =
      e.dram_nj * (static_cast<double>(cfg.line_bytes) / 4.0);
  return static_cast<double>(hits + misses) * lookup +
         static_cast<double>(misses) * miss_fill;
}

double CacheSim::energy_nj(const EnergyModel& e) const {
  return cache_energy_nj(cfg_, hits_, misses_, e);
}

void CacheSim::reset() {
  std::fill(valid_.begin(), valid_.end(), 0);
  hits_ = misses_ = 0;
}

}  // namespace foray::spm
