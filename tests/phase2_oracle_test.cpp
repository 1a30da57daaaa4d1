// Oracles for the Phase II kernels. Each fast kernel is checked against a
// slow reference that is correct by inspection:
//  - select_buffers (the choice-table group knapsack) against exhaustive
//    search on small random candidate sets, and field by field against a
//    verbatim copy of the earlier pick-vector DP on the benchsuite and
//    generated models, over every capacity, granule and energy preset;
//  - CacheSim against a stamp-based reference LRU on random streams with
//    locality, at assoc 1/2/4/8 and line sizes 16/32/64;
//  - for_each_address against a per-address dot product over a vector
//    odometer, on real models and on zero-trip and loop-less references.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "benchsuite/generator.h"
#include "benchsuite/suite.h"
#include "foray/pipeline.h"
#include "spm/address_stream.h"
#include "spm/cache_sim.h"
#include "spm/dse.h"
#include "spm/energy.h"
#include "spm/reuse.h"
#include "util/rng.h"

namespace foray::spm {
namespace {

// -- references ----------------------------------------------------------------

/// The pick-vector DP that select_buffers replaced, kept verbatim: every
/// capacity slot carries a copy of the selection achieving it.
Selection reference_select_buffers(
    const std::vector<BufferCandidate>& candidates, const DseOptions& opts) {
  // Group candidates by reference.
  std::map<size_t, std::vector<const BufferCandidate*>> groups;
  for (const auto& c : candidates) {
    if (c.size_bytes <= opts.spm_capacity &&
        candidate_saving_nj(c, opts) > 0.0) {
      groups[c.ref_index].push_back(&c);
    }
  }
  // A zero granule must quantize as one byte, not divide by zero.
  const uint32_t granule = std::max<uint32_t>(opts.granule, 1);
  const uint32_t slots = opts.spm_capacity / granule;
  // dp[w] = best savings using at most w granules; choice tracking per
  // group layer.
  std::vector<double> dp(slots + 1, 0.0);
  std::vector<std::vector<const BufferCandidate*>> pick(
      slots + 1);  // chosen set achieving dp[w]

  for (const auto& [ref, items] : groups) {
    (void)ref;
    std::vector<double> next_dp = dp;
    auto next_pick = pick;
    for (const BufferCandidate* c : items) {
      const uint32_t need = static_cast<uint32_t>(
          (c->size_bytes + granule - 1) / granule);
      const double gain = candidate_saving_nj(*c, opts);
      for (uint32_t w = need; w <= slots; ++w) {
        const double with = dp[w - need] + gain;
        if (with > next_dp[w]) {
          next_dp[w] = with;
          next_pick[w] = pick[w - need];
          next_pick[w].push_back(c);
        }
      }
    }
    dp = std::move(next_dp);
    pick = std::move(next_pick);
  }

  Selection sel;
  uint32_t best_w = 0;
  for (uint32_t w = 0; w <= slots; ++w) {
    if (dp[w] > dp[best_w]) best_w = w;
  }
  sel.saved_nj = dp[best_w];
  for (const BufferCandidate* c : pick[best_w]) {
    sel.chosen.push_back(*c);
    sel.bytes_used += c->size_bytes;
  }
  return sel;
}

/// The best saving over every choice of at most one candidate per
/// reference that fits `capacity` in exact bytes, summed in reference
/// order as the DP sums it.
double exhaustive_best_nj(const std::vector<BufferCandidate>& candidates,
                          const DseOptions& opts) {
  std::map<size_t, std::vector<const BufferCandidate*>> groups;
  for (const auto& c : candidates) {
    if (c.size_bytes <= opts.spm_capacity &&
        candidate_saving_nj(c, opts) > 0.0) {
      groups[c.ref_index].push_back(&c);
    }
  }
  std::vector<const std::vector<const BufferCandidate*>*> layers;
  for (const auto& [ref, items] : groups) layers.push_back(&items);
  double best = 0.0;
  // pick[g] = 0 leaves group g out, k > 0 takes its item k - 1.
  std::vector<size_t> pick(layers.size(), 0);
  for (;;) {
    uint64_t bytes = 0;
    double saved = 0.0;
    for (size_t g = 0; g < layers.size(); ++g) {
      if (pick[g] == 0) continue;
      const BufferCandidate& c = *(*layers[g])[pick[g] - 1];
      bytes += c.size_bytes;
      saved += candidate_saving_nj(c, opts);
    }
    if (bytes <= opts.spm_capacity) best = std::max(best, saved);
    size_t g = 0;
    while (g < layers.size() && ++pick[g] > layers[g]->size()) {
      pick[g++] = 0;
    }
    if (g == layers.size()) return best;
  }
}

/// The textbook LRU: every line carries its block number and last-use
/// time; a miss fills an empty way or evicts the least recently used.
class ReferenceLru {
 public:
  explicit ReferenceLru(const CacheConfig& cfg)
      : cfg_(cfg),
        sets_(cfg.size_bytes / (cfg.line_bytes * cfg.assoc)),
        lines_(sets_) {}

  bool access(uint32_t addr) {
    const uint64_t block = addr / cfg_.line_bytes;
    std::vector<std::pair<uint64_t, uint64_t>>& set = lines_[block % sets_];
    ++now_;
    for (auto& [b, used] : set) {
      if (b == block) {
        used = now_;
        ++hits;
        return true;
      }
    }
    ++misses;
    if (set.size() < static_cast<size_t>(cfg_.assoc)) {
      set.emplace_back(block, now_);
    } else {
      auto lru = std::min_element(
          set.begin(), set.end(),
          [](const auto& a, const auto& b) { return a.second < b.second; });
      *lru = {block, now_};
    }
    return false;
  }

  uint64_t hits = 0;
  uint64_t misses = 0;

 private:
  CacheConfig cfg_;
  uint64_t sets_;
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> lines_;
  uint64_t now_ = 0;
};

/// The model stream the slow way: references grouped by emitted nest in
/// order of first appearance, each group swept by a vector odometer, and
/// every address a fresh dot product.
std::vector<uint32_t> reference_stream(const core::ForayModel& model) {
  std::vector<std::vector<size_t>> groups;
  for (size_t i = 0; i < model.refs.size(); ++i) {
    const core::ModelReference& r = model.refs[i];
    bool placed = false;
    for (auto& g : groups) {
      const core::ModelReference& head = model.refs[g[0]];
      if (head.emitted_loop_path() == r.emitted_loop_path() &&
          head.emitted_trips() == r.emitted_trips()) {
        g.push_back(i);
        placed = true;
        break;
      }
    }
    if (!placed) groups.push_back({i});
  }
  std::vector<uint32_t> out;
  for (const auto& g : groups) {
    const std::vector<int64_t> trips = model.refs[g[0]].emitted_trips();
    if (std::any_of(trips.begin(), trips.end(),
                    [](int64_t t) { return t <= 0; })) {
      continue;
    }
    std::vector<int64_t> it(trips.size(), 0);
    for (;;) {
      for (size_t ri : g) {
        const core::ModelReference& r = model.refs[ri];
        const std::vector<int64_t> coefs = r.emitted_coefs();
        int64_t addr = r.fn.const_term;
        for (size_t k = 0; k < coefs.size(); ++k) addr += coefs[k] * it[k];
        out.push_back(static_cast<uint32_t>(addr));
      }
      size_t k = it.size();
      while (k > 0 && ++it[k - 1] == trips[k - 1]) it[--k] = 0;
      if (k == 0) break;
    }
  }
  return out;
}

// -- fixtures ---------------------------------------------------------------------

struct NamedModel {
  std::string name;
  core::ForayModel model;
};

/// The six benchsuite kernels under the default filter plus three
/// generated programs, extracted once for the whole binary.
const std::vector<NamedModel>& oracle_models() {
  static const std::vector<NamedModel> models = [] {
    std::vector<NamedModel> out;
    for (const auto& b : benchsuite::all_benchmarks()) {
      auto res = core::run_pipeline(b.source);
      EXPECT_TRUE(res.ok()) << b.name << ": " << res.error();
      out.push_back({b.name, std::move(res.model)});
    }
    core::PipelineOptions lenient;
    lenient.filter.min_exec = 1;
    lenient.filter.min_locations = 1;
    for (uint64_t seed : {11u, 12u, 13u}) {
      benchsuite::GeneratorOptions gopts;
      gopts.seed = seed;
      gopts.num_nests = 6;
      gopts.min_trip = 8;
      gopts.max_trip = 24;
      auto res = core::run_pipeline(
          benchsuite::generate_affine_program(gopts).source, lenient);
      EXPECT_TRUE(res.ok()) << "seed " << seed << ": " << res.error();
      out.push_back({"generated-" + std::to_string(seed),
                     std::move(res.model)});
    }
    return out;
  }();
  return models;
}

void expect_same_selection(const Selection& got, const Selection& want,
                           const std::string& where) {
  ASSERT_EQ(got.chosen.size(), want.chosen.size()) << where;
  for (size_t i = 0; i < got.chosen.size(); ++i) {
    EXPECT_EQ(got.chosen[i].ref_index, want.chosen[i].ref_index)
        << where << " buffer " << i;
    EXPECT_EQ(got.chosen[i].level, want.chosen[i].level)
        << where << " buffer " << i;
  }
  EXPECT_EQ(got.bytes_used, want.bytes_used) << where;
  EXPECT_EQ(std::bit_cast<uint64_t>(got.saved_nj),
            std::bit_cast<uint64_t>(want.saved_nj))
      << where << ": " << got.saved_nj << " vs " << want.saved_nj;
}

/// Checks the invariants every selection must keep: it fits, takes at
/// most one buffer per reference in reference order, and reports the
/// saving of exactly what it chose.
void expect_consistent(const Selection& sel, const DseOptions& opts,
                       const std::string& where) {
  uint64_t bytes = 0;
  double saved = 0.0;
  for (size_t i = 0; i < sel.chosen.size(); ++i) {
    if (i > 0) {
      EXPECT_LT(sel.chosen[i - 1].ref_index, sel.chosen[i].ref_index)
          << where;
    }
    bytes += sel.chosen[i].size_bytes;
    saved += candidate_saving_nj(sel.chosen[i], opts);
  }
  EXPECT_LE(bytes, opts.spm_capacity) << where;
  EXPECT_EQ(bytes, sel.bytes_used) << where;
  EXPECT_EQ(saved, sel.saved_nj) << where;
}

/// Small random candidate sets: up to 6 references with up to 3 buffer
/// levels each, sizes up to 700 bytes. With `tie_prone`, every buffer
/// saves one of two amounts, so equal-saving selections of different
/// sizes are common.
std::vector<BufferCandidate> random_candidates(util::Rng& rng,
                                               bool tie_prone = false) {
  std::vector<BufferCandidate> out;
  const int refs = static_cast<int>(rng.next_in(1, 6));
  for (int r = 0; r < refs; ++r) {
    const int levels = static_cast<int>(rng.next_in(1, 3));
    for (int level = 1; level <= levels; ++level) {
      BufferCandidate c;
      c.ref_index = static_cast<size_t>(r * 3);  // sparse, like real refs
      c.level = level;
      c.size_bytes = static_cast<uint64_t>(rng.next_in(1, 700));
      if (tie_prone) {
        c.spm_accesses = 1000 * static_cast<uint64_t>(rng.next_in(1, 2));
        c.transfer_words = 100;
      } else {
        c.spm_accesses = static_cast<uint64_t>(rng.next_in(0, 5000));
        c.transfer_words = static_cast<uint64_t>(rng.next_in(0, 800));
      }
      out.push_back(c);
    }
  }
  return out;
}

// -- DSE -----------------------------------------------------------------------------

TEST(DseOracle, MatchesExhaustiveSearchAtGranuleOne) {
  util::Rng rng(20240501);
  int with_buffers = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const std::vector<BufferCandidate> cands = random_candidates(rng);
    DseOptions opts;
    opts.spm_capacity = static_cast<uint32_t>(rng.next_in(0, 2000));
    opts.granule = 1;
    const Selection sel = select_buffers(cands, opts);
    const std::string where = "trial " + std::to_string(trial) +
                              " capacity " +
                              std::to_string(opts.spm_capacity);
    expect_consistent(sel, opts, where);
    EXPECT_EQ(sel.saved_nj, exhaustive_best_nj(cands, opts)) << where;
    if (!sel.chosen.empty()) ++with_buffers;
  }
  EXPECT_GE(with_buffers, 300);  // the sets must exercise the DP
}

TEST(DseOracle, CoarseGranuleFitsAndReportsItsGap) {
  // At granule 8 sizes round up, so the DP is exact only for the rounded
  // problem: its choice must still fit, and it can only lose saving.
  util::Rng rng(20240502);
  double worst_gap_pct = 0.0;
  double total_gap_pct = 0.0;
  int optimal = 0;
  const int kTrials = 400;
  for (int trial = 0; trial < kTrials; ++trial) {
    const std::vector<BufferCandidate> cands = random_candidates(rng);
    DseOptions opts;
    opts.spm_capacity = static_cast<uint32_t>(rng.next_in(0, 2000));
    opts.granule = 8;
    const Selection sel = select_buffers(cands, opts);
    const std::string where = "trial " + std::to_string(trial);
    expect_consistent(sel, opts, where);
    const double best = exhaustive_best_nj(cands, opts);
    EXPECT_LE(sel.saved_nj, best) << where;
    const double gap_pct =
        best > 0.0 ? 100.0 * (best - sel.saved_nj) / best : 0.0;
    if (gap_pct == 0.0) ++optimal;
    worst_gap_pct = std::max(worst_gap_pct, gap_pct);
    total_gap_pct += gap_pct;
  }
  std::printf(
      "granule 8 vs exhaustive: %d/%d optimal, mean gap %.3f%%, worst "
      "gap %.3f%%\n",
      optimal, kTrials, total_gap_pct / kTrials, worst_gap_pct);
  EXPECT_GE(optimal, kTrials / 2);
}

TEST(DseOracle, TiesResolveLikeThePickVectorDp) {
  // Equal savings at different sizes: the first capacity reaching the
  // best saving wins, and within it the first item that strictly
  // improved each slot — the walk back must land on the same buffers.
  util::Rng rng(20240504);
  for (int trial = 0; trial < 300; ++trial) {
    const std::vector<BufferCandidate> cands =
        random_candidates(rng, /*tie_prone=*/true);
    DseOptions opts;
    opts.spm_capacity = static_cast<uint32_t>(rng.next_in(0, 2000));
    for (uint32_t granule : {1u, 8u}) {
      opts.granule = granule;
      expect_same_selection(select_buffers(cands, opts),
                            reference_select_buffers(cands, opts),
                            "trial " + std::to_string(trial) + " granule " +
                                std::to_string(granule));
    }
  }
}

TEST(DseOracle, MatchesPickVectorDpOnModels) {
  const uint32_t capacities[] = {0,    1,    512,  1024,  2048,
                                 4096, 8192, 16384, 100000};
  // Granule 0 quantizes as 1 in both DPs, so one reference solve (the
  // slow part: at 100000 B and granule 1 it copies ~100k selection
  // vectors per reference) checks both.
  const uint32_t granules[] = {1, 8, 64};
  int compared = 0;
  for (const NamedModel& m : oracle_models()) {
    const std::vector<BufferCandidate> cands =
        enumerate_candidates(m.model);
    for (const EnergyPreset& preset : energy_presets()) {
      for (uint32_t capacity : capacities) {
        for (uint32_t granule : granules) {
          DseOptions opts;
          opts.spm_capacity = capacity;
          opts.granule = granule;
          opts.energy = preset.model;
          const std::string where =
              m.name + " " + preset.name + " capacity " +
              std::to_string(capacity) + " granule " +
              std::to_string(granule);
          const Selection want = reference_select_buffers(cands, opts);
          expect_same_selection(select_buffers(cands, opts), want, where);
          ++compared;
          if (granule == 1) {
            opts.granule = 0;
            expect_same_selection(select_buffers(cands, opts), want,
                                  where + " (as granule 0)");
            ++compared;
          }
        }
      }
    }
  }
  EXPECT_EQ(compared, 9 * 5 * 9 * 4);
}

TEST(DseOracle, HugeCapacityCostsNoMoreThanItsCandidates) {
  // With the SPM access energy flat in capacity, UINT32_MAX bytes and a
  // capacity just holding every reference's largest buffer pose the same
  // problem; the DP must solve both alike, sizing its table by the
  // candidates rather than by the capacity.
  for (const NamedModel& m : oracle_models()) {
    const std::vector<BufferCandidate> cands =
        enumerate_candidates(m.model);
    for (uint32_t granule : {8u, 64u}) {
      std::map<size_t, uint64_t> largest;
      for (const BufferCandidate& c : cands) {
        const uint64_t need = (c.size_bytes + granule - 1) / granule;
        largest[c.ref_index] = std::max(largest[c.ref_index], need);
      }
      uint64_t useful = 0;
      for (const auto& [ref, need] : largest) useful += need;
      DseOptions huge;
      huge.granule = granule;
      huge.energy.spm_doubling_nj = 0.0;
      huge.spm_capacity = UINT32_MAX;
      DseOptions clamped = huge;
      clamped.spm_capacity = static_cast<uint32_t>(useful * granule);
      expect_same_selection(
          select_buffers(cands, huge),
          reference_select_buffers(cands, clamped),
          m.name + " granule " + std::to_string(granule));
    }
  }
}

// -- cache simulator --------------------------------------------------------------

/// A random stream with locality: mostly short strides from the current
/// address, sometimes a revisit of an earlier one, sometimes a jump.
std::vector<uint32_t> local_stream(util::Rng& rng, size_t n) {
  std::vector<uint32_t> out;
  uint32_t cur = static_cast<uint32_t>(rng.next_below(1u << 20));
  for (size_t i = 0; i < n; ++i) {
    const uint64_t roll = rng.next_below(100);
    if (roll < 70) {
      cur += static_cast<uint32_t>(rng.next_in(-64, 64));
    } else if (roll < 90 && !out.empty()) {
      cur = out[rng.next_below(out.size())];
    } else {
      cur = static_cast<uint32_t>(rng.next_below(1u << 20));
    }
    out.push_back(cur);
  }
  return out;
}

TEST(CacheOracle, MatchesReferenceLruOnLocalStreams) {
  util::Rng rng(20240503);
  for (uint32_t line : {16u, 32u, 64u}) {
    for (int assoc : {1, 2, 4, 8}) {
      for (uint32_t sets : {1u, 4u, 64u}) {
        const CacheConfig cfg{line * static_cast<uint32_t>(assoc) * sets,
                              line, assoc};
        const std::vector<uint32_t> stream = local_stream(rng, 20000);
        CacheSim sim(cfg);
        ReferenceLru ref(cfg);
        size_t first_diff = stream.size();
        for (size_t i = 0; i < stream.size(); ++i) {
          if (sim.access(stream[i]) != ref.access(stream[i]) &&
              first_diff == stream.size()) {
            first_diff = i;
          }
        }
        const std::string where = std::to_string(cfg.size_bytes) + "B " +
                                  std::to_string(line) + "x" +
                                  std::to_string(assoc);
        EXPECT_EQ(first_diff, stream.size()) << where;
        EXPECT_EQ(sim.hits(), ref.hits) << where;
        EXPECT_EQ(sim.misses(), ref.misses) << where;
        EXPECT_GT(ref.hits, 0u) << where;
        EXPECT_GT(ref.misses, 0u) << where;

        // reset() returns to a cold cache.
        sim.reset();
        ReferenceLru cold(cfg);
        for (size_t i = 0; i < 2000; ++i) {
          sim.access(stream[i]);
          cold.access(stream[i]);
        }
        EXPECT_EQ(sim.hits(), cold.hits) << where << " after reset";
      }
    }
  }
}

TEST(CacheOracle, MatchesReferenceLruOnModelStreams) {
  for (const NamedModel& m : oracle_models()) {
    const std::vector<uint32_t> stream = reference_stream(m.model);
    for (int assoc : {1, 2, 4}) {
      const CacheConfig cfg{4096, 32, assoc};
      CacheSim sim(cfg);
      ReferenceLru ref(cfg);
      for (uint32_t a : stream) {
        sim.access(a);
        ref.access(a);
      }
      EXPECT_EQ(sim.hits(), ref.hits) << m.name << " assoc " << assoc;
      EXPECT_EQ(sim.misses(), ref.misses) << m.name << " assoc " << assoc;
    }
  }
}

TEST(CacheOracle, UnsplittableGeometryIsInvalidInput) {
  auto status_of = [](const CacheConfig& cfg) {
    try {
      CacheSim sim(cfg);
    } catch (const util::StatusError& e) {
      return e.status();
    }
    return util::Status();
  };
  const util::Status st = status_of(CacheConfig{100000, 32, 2});
  EXPECT_EQ(st.code(), util::ErrorCode::kInvalidInput);
  EXPECT_EQ(st.phase(), "cache");
  EXPECT_NE(st.message().find("1562"), std::string::npos) << st.message();
  EXPECT_EQ(status_of(CacheConfig{48, 48, 1}).code(),
            util::ErrorCode::kInvalidInput);  // line not 2^k
  EXPECT_EQ(status_of(CacheConfig{32, 32, 2}).code(),
            util::ErrorCode::kInvalidInput);  // smaller than one set
  EXPECT_EQ(status_of(CacheConfig{64, 32, 0}).code(),
            util::ErrorCode::kInvalidInput);
  EXPECT_TRUE(status_of(CacheConfig{4096, 32, 2}).ok());
}

// -- address streams ------------------------------------------------------------

core::ModelReference nest_ref(int64_t base, std::vector<int64_t> coefs,
                              std::vector<int64_t> trips, int m,
                              std::vector<int> path) {
  core::ModelReference r;
  r.fn.const_term = base;
  r.fn.coefs = std::move(coefs);
  r.fn.known.assign(r.fn.coefs.size(), true);
  r.fn.m = m;
  r.trips = std::move(trips);
  r.loop_path = std::move(path);
  return r;
}

void expect_stream_matches(const core::ForayModel& model,
                           const std::string& where) {
  const std::vector<uint32_t> want = reference_stream(model);
  std::vector<uint32_t> got;
  const uint64_t n =
      for_each_address(model, [&](uint32_t a) { got.push_back(a); });
  EXPECT_EQ(n, want.size()) << where;
  ASSERT_EQ(got.size(), want.size()) << where;
  EXPECT_TRUE(got == want) << where;
  // The per-reference stream is the one-reference model's stream.
  for (size_t i = 0; i < model.refs.size(); ++i) {
    core::ForayModel one;
    one.refs.push_back(model.refs[i]);
    std::vector<uint32_t> single;
    const uint64_t k = for_each_address(
        model.refs[i], [&](uint32_t a) { single.push_back(a); });
    EXPECT_EQ(k, single.size()) << where << " ref " << i;
    EXPECT_TRUE(single == reference_stream(one)) << where << " ref " << i;
  }
}

TEST(StreamOracle, MatchesDotProductOdometerOnModels) {
  for (const NamedModel& m : oracle_models()) {
    ASSERT_FALSE(m.model.refs.empty()) << m.name;
    expect_stream_matches(m.model, m.name);
  }
}

TEST(StreamOracle, ZeroTripLooplessAndNegativeStrideReferences) {
  core::ForayModel model;
  // A loop-less reference: one address.
  model.refs.push_back(nest_ref(0x1000, {}, {}, 0, {}));
  // A zero-trip inner loop: no addresses, and it groups apart.
  model.refs.push_back(nest_ref(0x2000, {64, 4}, {5, 0}, 2, {1, 2}));
  // Two references sharing a 3-deep nest, one walking backwards.
  model.refs.push_back(
      nest_ref(0x3000, {256, 16, 4}, {3, 4, 5}, 3, {1, 2, 3}));
  model.refs.push_back(
      nest_ref(0x9000, {-256, -16, -4}, {3, 4, 5}, 3, {1, 2, 3}));
  // A partial reference: only its innermost loop is emitted, so it
  // shares a group with nothing above.
  model.refs.push_back(nest_ref(0x5000, {1000, 8}, {7, 6}, 1, {4, 5}));
  // Another loop-less one, which joins the first's group.
  model.refs.push_back(nest_ref(0x6000, {}, {}, 0, {}));
  // A negative trip count also yields nothing.
  model.refs.push_back(nest_ref(0x7000, {4}, {-3}, 1, {6}));
  // Addresses past 2^32 wrap to their low 32 bits.
  model.refs.push_back(
      nest_ref(0xFFFFFFF0ll, {8, 4}, {2, 8}, 2, {7, 8}));
  expect_stream_matches(model, "synthetic");
  EXPECT_EQ(for_each_address(model, [](uint32_t) {}),
            2u + 0u + 2u * 60u + 6u + 0u + 16u);
}

}  // namespace
}  // namespace foray::spm
