// The sweep API: spec parsing, deterministic grid expansion, structured
// PointKey lookup, Pareto extraction, and the two contracts inherited
// from the batch driver and extended to the full multi-axis grid —
// byte-identical reports whatever the thread count (including the
// streaming NDJSON writer) and per-job failure isolation. Also the
// per-job Phase II memo: memoized rows equal one-point sweeps, and a
// failed replay is never handed to another point.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "driver/model_cache.h"
#include "driver/sweep.h"
#include "spm/energy.h"
#include "util/fault.h"
#include "util/status.h"

namespace foray::driver {
namespace {

const char* kGood =
    "int a[256];\n"
    "int main(void) {\n"
    "  for (int r = 0; r < 40; r++)\n"
    "    for (int i = 0; i < 256; i++) a[i] = a[i] + r;\n"
    "  return a[0] & 255;\n"
    "}\n";

const char* kGood2 =
    "char buf[4096];\n"
    "int main(void) {\n"
    "  char *p = buf;\n"
    "  int t = 0;\n"
    "  while (t < 30) {\n"
    "    t++;\n"
    "    p += 64;\n"
    "    for (int i = 0; i < 32; i++) *p++ = (i + t) % 256;\n"
    "  }\n"
    "  return 0;\n"
    "}\n";

const char* kParseError = "int main(void) { return 0;";  // no brace

// A 3 KB array re-read in 256 B tiles: a 1024 B SPM picks the level-2
// tile buffer, a 4096 B one the whole array, and a 1024 B cache misses
// where a 4096 B one holds it. Memo keys that dropped the buffer level
// or the cache capacity would hand one point another's result.
const char* kTiled =
    "int t[768];\n"
    "int main(void) {\n"
    "  int s = 0;\n"
    "  for (int r = 0; r < 8; r++)\n"
    "    for (int b = 0; b < 12; b++)\n"
    "      for (int k = 0; k < 4; k++)\n"
    "        for (int i = 0; i < 64; i++) s = s + t[b * 64 + i] + r;\n"
    "  return s & 255;\n"
    "}\n";

std::vector<SweepJob> good_jobs() {
  return {{"alpha", kGood}, {"beta", kGood2}};
}

SweepOptions sweep_opts(int threads) {
  SweepOptions o;
  o.threads = threads;
  o.pipeline.filter.min_exec = 1;
  o.pipeline.filter.min_locations = 1;
  return o;
}

/// The `point` rows of an NDJSON stream, in stream order.
std::vector<std::string> point_rows(const std::string& ndjson) {
  std::vector<std::string> rows;
  std::istringstream in(ndjson);
  for (std::string line; std::getline(in, line);) {
    if (line.find("\"kind\":\"point\"") != std::string::npos) {
      rows.push_back(line);
    }
  }
  return rows;
}

/// A point row without its grid key (the one field that names the
/// point's place in its grid rather than its result).
std::string without_key(const std::string& row) {
  const size_t begin = row.find("\"key\":{");
  const size_t end = row.find("},", begin);
  if (begin == std::string::npos || end == std::string::npos) return row;
  return row.substr(0, begin) + row.substr(end + 2);
}

// -- energy presets -----------------------------------------------------------

TEST(EnergyPresets, DefaultFirstAndFindable) {
  const auto& presets = spm::energy_presets();
  ASSERT_FALSE(presets.empty());
  EXPECT_STREQ(presets.front().name, "default");
  EXPECT_DOUBLE_EQ(presets.front().model.dram_nj,
                   spm::EnergyModel{}.dram_nj);
  ASSERT_NE(spm::find_energy_preset("dram-heavy"), nullptr);
  EXPECT_GT(spm::find_energy_preset("dram-heavy")->model.dram_nj,
            spm::EnergyModel{}.dram_nj);
  EXPECT_EQ(spm::find_energy_preset("nope"), nullptr);
}

TEST(EnergyPresets, ParseWithOverrides) {
  spm::EnergyModel m;
  std::string err;
  ASSERT_TRUE(spm::parse_energy_model(
      "default:dram_nj=9.5:spm_1kb_nj=0.01", &m, &err))
      << err;
  EXPECT_DOUBLE_EQ(m.dram_nj, 9.5);
  EXPECT_DOUBLE_EQ(m.spm_1kb_nj, 0.01);
  // Untouched fields keep the preset's values.
  EXPECT_DOUBLE_EQ(m.cache_overhead, spm::EnergyModel{}.cache_overhead);
}

TEST(EnergyPresets, ParseRejectsUnknownsByName) {
  spm::EnergyModel m;
  std::string err;
  EXPECT_FALSE(spm::parse_energy_model("martian", &m, &err));
  EXPECT_NE(err.find("martian"), std::string::npos);
  EXPECT_FALSE(spm::parse_energy_model("default:warp_nj=1", &m, &err));
  EXPECT_NE(err.find("warp_nj"), std::string::npos);
  EXPECT_FALSE(spm::parse_energy_model("default:dram_nj=abc", &m, &err));
  EXPECT_NE(err.find("dram_nj=abc"), std::string::npos);
  // Non-finite overrides would poison the energy counters and the
  // Pareto ordering; they are spec errors.
  EXPECT_FALSE(spm::parse_energy_model("default:dram_nj=nan", &m, &err));
  EXPECT_FALSE(spm::parse_energy_model("default:dram_nj=inf", &m, &err));
  EXPECT_FALSE(spm::parse_energy_model("default:dram_nj=-inf", &m, &err));
}

// -- spec parsing -------------------------------------------------------------

TEST(SweepSpec, ParsesEveryAxis) {
  SweepSpec s;
  ASSERT_TRUE(s.parse_axis("capacity", "512, 1024").ok());
  EXPECT_EQ(s.capacities, (std::vector<uint32_t>{512, 1024}));
  ASSERT_TRUE(s.parse_axis("energy", "default, dram-heavy:dram_nj=9.5").ok());
  ASSERT_EQ(s.energy_models.size(), 2u);
  EXPECT_EQ(s.energy_models[1].name, "dram-heavy:dram_nj=9.5");
  EXPECT_DOUBLE_EQ(s.energy_models[1].model.dram_nj, 9.5);
  ASSERT_TRUE(s.parse_axis("cache", "off, 64x4").ok());
  ASSERT_EQ(s.caches.size(), 2u);
  EXPECT_FALSE(s.caches[0].enabled);
  EXPECT_TRUE(s.caches[1].enabled);
  EXPECT_EQ(s.caches[1].line_bytes, 64u);
  EXPECT_EQ(s.caches[1].assocs, (std::vector<int>{4}));
  ASSERT_TRUE(s.parse_axis("algorithm", "dp, greedy").ok());
  EXPECT_EQ(s.algorithms,
            (std::vector<Algorithm>{Algorithm::kExactDp,
                                    Algorithm::kGreedy}));
  ASSERT_TRUE(s.parse_axis("replay", "off, on").ok());
  EXPECT_EQ(s.replays, (std::vector<bool>{false, true}));
}

TEST(SweepSpec, RejectsBadValuesByName) {
  SweepSpec s;
  util::Status st = s.parse_axis("capacity", "1024,0");
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("'0'"), std::string::npos);
  st = s.parse_axis("cache", "32");
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("'32'"), std::string::npos);
  st = s.parse_axis("cache", "33x2");  // line not a power of two
  EXPECT_FALSE(st.ok());
  st = s.parse_axis("algorithm", "knapsack");
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("knapsack"), std::string::npos);
  st = s.parse_axis("replay", "maybe");
  EXPECT_FALSE(st.ok());
  st = s.parse_axis("turbo", "on");
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("turbo"), std::string::npos);
}

TEST(SweepSpec, ParsesSpecFileWithComments) {
  SweepSpec s;
  const char* text =
      "# a sweep spec\n"
      "capacity = 256, 4096   # two sizes\n"
      "\n"
      "energy = default:dram_nj=5.5\n"
      "replay = off\n";
  util::Status st = s.parse_file(text);
  ASSERT_TRUE(st.ok()) << st.message();
  EXPECT_EQ(s.capacities, (std::vector<uint32_t>{256, 4096}));
  ASSERT_EQ(s.energy_models.size(), 1u);
  EXPECT_DOUBLE_EQ(s.energy_models[0].model.dram_nj, 5.5);
  EXPECT_EQ(s.replays, (std::vector<bool>{false}));
}

TEST(SweepSpec, SpecFileErrorsCarryLineNumbers) {
  SweepSpec s;
  util::Status st = s.parse_file("capacity = 1024\nwarp = on\n");
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.first_line(), 2);
  EXPECT_NE(st.message().find("warp"), std::string::npos);
  st = s.parse_file("just words\n");
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.first_line(), 1);
}

// -- grid expansion -----------------------------------------------------------

TEST(SweepGrid, ExpandsRowMajorLastAxisFastest) {
  SweepSpec spec;
  ASSERT_TRUE(spec.parse_axis("capacity", "1024,4096").ok());
  ASSERT_TRUE(spec.parse_axis("energy", "default,dram-heavy").ok());
  ASSERT_TRUE(spec.parse_axis("replay", "off,on").ok());
  SweepGrid grid = SweepGrid::expand(spec, core::PipelineOptions{});
  ASSERT_EQ(grid.points_per_job(), 8u);
  // capacity is the slowest axis, replay the fastest.
  EXPECT_EQ(grid.points[0].capacity_bytes, 1024u);
  EXPECT_EQ(grid.points[0].energy_name, "default");
  EXPECT_FALSE(grid.points[0].replay);
  EXPECT_TRUE(grid.points[1].replay);
  EXPECT_EQ(grid.points[2].energy_name, "dram-heavy");
  EXPECT_EQ(grid.points[4].capacity_bytes, 4096u);
  // flat_index inverts the expansion order.
  for (size_t i = 0; i < grid.points.size(); ++i) {
    EXPECT_EQ(grid.flat_index(grid.points[i].key), i);
  }
}

TEST(SweepGrid, EmptyAxesInheritBaseOptions) {
  core::PipelineOptions base;
  base.spm.dse.spm_capacity = 2048;
  base.spm.compare_cache = true;
  base.with_replay = true;
  SweepGrid grid = SweepGrid::expand(SweepSpec{}, base);
  ASSERT_EQ(grid.points_per_job(), 1u);
  const SweepPoint& p = grid.points[0];
  EXPECT_EQ(p.capacity_bytes, 2048u);
  EXPECT_EQ(p.energy_name, "default");
  EXPECT_TRUE(p.cache.enabled);
  EXPECT_EQ(p.cache.label, "base");
  EXPECT_EQ(p.cache.assocs, base.spm.cache_assocs);
  EXPECT_TRUE(p.replay);
}

TEST(SweepGrid, FlatIndexIsBoundsChecked) {
  SweepGrid grid = SweepGrid::expand(SweepSpec{}, core::PipelineOptions{});
  PointKey bad;
  bad.energy = 1;
  EXPECT_THROW(grid.flat_index(bad), util::InternalError);
}

// -- the driver ---------------------------------------------------------------

TEST(SweepDriver, PointsResolveEveryAxisCombination) {
  SweepOptions o = sweep_opts(2);
  ASSERT_TRUE(o.spec.parse_axis("capacity", "256,4096").ok());
  ASSERT_TRUE(o.spec.parse_axis("energy", "default,dram-heavy").ok());
  ASSERT_TRUE(o.spec.parse_axis("cache", "off,32x2").ok());
  auto report = SweepDriver(o).run(good_jobs());
  ASSERT_EQ(report.items.size(), 2u * 8u);
  for (const auto& item : report.items) {
    ASSERT_TRUE(item.status.ok()) << item.status.message();
    EXPECT_GT(item.model_refs, 0u);
    // The cache axis controls the per-point comparison.
    EXPECT_EQ(item.spm.caches.size(),
              item.point.cache.enabled ? 1u : 0u);
  }
  // A dram-heavy point out-saves the default at the same capacity.
  const SweepItem& def = report.at(PointKey{0, 1, 0, 0, 0, 0});
  const SweepItem& heavy = report.at(PointKey{0, 1, 1, 0, 0, 0});
  EXPECT_GT(heavy.selection().saved_nj, def.selection().saved_nj);
}

TEST(SweepDriver, AtIsBoundsChecked) {
  SweepOptions o = sweep_opts(1);
  ASSERT_TRUE(o.spec.parse_axis("capacity", "256,1024").ok());
  auto report = SweepDriver(o).run(good_jobs());
  PointKey ok_key{1, 1, 0, 0, 0, 0};
  EXPECT_EQ(&report.at(ok_key), &report.items[3]);
  PointKey bad_job{2, 0, 0, 0, 0, 0};
  EXPECT_THROW(report.at(bad_job), util::InternalError);
  PointKey bad_cap{0, 2, 0, 0, 0, 0};
  EXPECT_THROW(report.at(bad_cap), util::InternalError);
}

TEST(SweepDriver, NdjsonByteIdenticalAcrossThreadCounts) {
  SweepOptions seq = sweep_opts(1);
  ASSERT_TRUE(seq.spec.parse_axis("capacity", "256,1024,4096").ok());
  ASSERT_TRUE(seq.spec.parse_axis("energy", "default,fast-spm").ok());
  SweepOptions par = seq;
  par.threads = 4;
  auto jobs = good_jobs();

  SweepReport r1 = SweepDriver(seq).run(jobs);
  SweepReport r4 = SweepDriver(par).run(jobs);
  EXPECT_EQ(r1.ndjson(), r4.ndjson());
  EXPECT_EQ(r1.table(), r4.table());

  // The streaming writer emits the same bytes as the buffered report,
  // whatever the thread count.
  std::ostringstream s1, s4;
  ASSERT_TRUE(SweepDriver(seq).run_ndjson(jobs, s1).ok());
  ASSERT_TRUE(SweepDriver(par).run_ndjson(jobs, s4).ok());
  EXPECT_EQ(s1.str(), r1.ndjson());
  EXPECT_EQ(s4.str(), r1.ndjson());
}

TEST(SweepDriver, GreedyAxisPointsReportGreedySelection) {
  SweepOptions o = sweep_opts(2);
  ASSERT_TRUE(o.spec.parse_axis("capacity", "1024").ok());
  ASSERT_TRUE(o.spec.parse_axis("algorithm", "dp,greedy").ok());
  auto report = SweepDriver(o).run(good_jobs());
  const SweepItem& dp = report.at(PointKey{0, 0, 0, 0, 0, 0});
  const SweepItem& greedy = report.at(PointKey{0, 0, 0, 0, 1, 0});
  EXPECT_EQ(&dp.selection(), &dp.spm.exact);
  EXPECT_EQ(&greedy.selection(), &greedy.spm.greedy);
  // The exact DP point's headline energy is spm_phase's evaluation
  // verbatim; the greedy point's is recomputed for its own selection.
  EXPECT_DOUBLE_EQ(dp.energy.total_nj, dp.spm.with_spm.total_nj);
  EXPECT_GE(greedy.energy.total_nj, dp.energy.total_nj);
  EXPECT_GT(greedy.energy.baseline_nj, 0.0);
}

TEST(SweepDriver, ReplayAxisValidatesPerPoint) {
  SweepOptions o = sweep_opts(1);
  ASSERT_TRUE(o.spec.parse_axis("capacity", "1024").ok());
  ASSERT_TRUE(o.spec.parse_axis("replay", "off,on").ok());
  auto report = SweepDriver(o).run({{"alpha", kGood}});
  const SweepItem& off = report.at(PointKey{0, 0, 0, 0, 0, 0});
  const SweepItem& on = report.at(PointKey{0, 0, 0, 0, 0, 1});
  EXPECT_FALSE(off.replay_ran);
  ASSERT_TRUE(on.replay_ran);
  EXPECT_TRUE(on.replay.matches());
}

// The memo oracle: in a replayed grid, points share replays across the
// cache and energy axes and cache comparisons across the energy axis.
// Each memoized row must equal the row a one-point sweep at the same
// coordinates computes from scratch, whatever the thread count.
TEST(SweepDriver, MemoizedRowsMatchOnePointSweeps) {
  std::vector<SweepJob> jobs = good_jobs();
  jobs.push_back({"tiled", kTiled});
  const char* const capacities[] = {"1024", "4096"};
  const char* const energies[] = {"default", "dram-heavy"};
  const char* const caches[] = {"off", "32x2"};
  const char* const algorithms[] = {"dp", "greedy"};

  // One-point sweeps in grid order (capacity, energy, cache, algorithm):
  // each point is solved and replayed by the cold Session path alone.
  std::vector<std::vector<std::string>> want(jobs.size());
  for (const char* cap : capacities) {
    for (const char* energy : energies) {
      for (const char* cache : caches) {
        for (const char* algo : algorithms) {
          SweepOptions o = sweep_opts(1);
          ASSERT_TRUE(o.spec.parse_axis("capacity", cap).ok());
          ASSERT_TRUE(o.spec.parse_axis("energy", energy).ok());
          ASSERT_TRUE(o.spec.parse_axis("cache", cache).ok());
          ASSERT_TRUE(o.spec.parse_axis("algorithm", algo).ok());
          ASSERT_TRUE(o.spec.parse_axis("replay", "on").ok());
          std::ostringstream os;
          ASSERT_TRUE(SweepDriver(o).run_ndjson(jobs, os).ok());
          const std::vector<std::string> rows = point_rows(os.str());
          ASSERT_EQ(rows.size(), jobs.size());
          for (size_t j = 0; j < jobs.size(); ++j) {
            EXPECT_NE(rows[j].find("\"replay_check\":{\"ok\":true"),
                      std::string::npos)
                << rows[j];
            want[j].push_back(without_key(rows[j]));
          }
        }
      }
    }
  }

  for (int threads : {1, 4}) {
    SweepOptions o = sweep_opts(threads);
    ASSERT_TRUE(o.spec.parse_axis("capacity", "1024,4096").ok());
    ASSERT_TRUE(o.spec.parse_axis("energy", "default,dram-heavy").ok());
    ASSERT_TRUE(o.spec.parse_axis("cache", "off,32x2").ok());
    ASSERT_TRUE(o.spec.parse_axis("algorithm", "dp,greedy").ok());
    ASSERT_TRUE(o.spec.parse_axis("replay", "on").ok());
    std::ostringstream os;
    ASSERT_TRUE(SweepDriver(o).run_ndjson(jobs, os).ok());
    const std::vector<std::string> rows = point_rows(os.str());
    const size_t per_job = want.front().size();
    ASSERT_EQ(rows.size(), jobs.size() * per_job);
    for (size_t j = 0; j < jobs.size(); ++j) {
      for (size_t i = 0; i < per_job; ++i) {
        EXPECT_EQ(without_key(rows[j * per_job + i]), want[j][i])
            << "threads " << threads << ", job " << j << ", point " << i;
      }
    }
  }
}

// A replay that fails is the failing point's outcome only. On a warm job
// (no Phase I), one stalled simulation trips the wall-clock budget of
// the first replay; the twin point across the cache axis has the same
// selection and must replay afresh and pass, not inherit the failure.
TEST(SweepDriver, FailedReplayIsNeverReused) {
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    ModelCache cache;
    SweepOptions o = sweep_opts(threads);
    o.model_cache = &cache;
    // Generous for these replays (milliseconds), short of the stall.
    o.pipeline.run.budget.timeout_seconds = 0.5;
    ASSERT_TRUE(o.spec.parse_axis("capacity", "1024").ok());
    ASSERT_TRUE(o.spec.parse_axis("cache", "off,32x2").ok());
    ASSERT_TRUE(o.spec.parse_axis("replay", "on").ok());
    const std::vector<SweepJob> jobs = {{"alpha", kGood}};
    std::ostringstream cold;
    ASSERT_TRUE(SweepDriver(o).run_ndjson(jobs, cold).ok());

    ASSERT_TRUE(util::fault::configure("sim.slow:param=1000:count=1").ok());
    std::ostringstream warm;
    const util::Status st = SweepDriver(o).run_ndjson(jobs, warm);
    util::fault::reset();
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_FALSE(st.ok());
    EXPECT_EQ(st.code(), util::ErrorCode::kDeadlineExceeded);

    const std::vector<std::string> rows = point_rows(warm.str());
    ASSERT_EQ(rows.size(), 2u);
    int deadline_rows = 0;
    for (const std::string& row : rows) {
      if (row.find("\"error_class\":\"deadline_exceeded\"") !=
          std::string::npos) {
        ++deadline_rows;
      } else {
        EXPECT_NE(row.find("\"replay_check\":{\"ok\":true"),
                  std::string::npos)
            << row;
      }
    }
    EXPECT_EQ(deadline_rows, 1) << warm.str();
  }
}

TEST(SweepDriver, ParetoFrontierIsStrictlyImproving) {
  SweepOptions o = sweep_opts(2);
  ASSERT_TRUE(o.spec.parse_axis("capacity", "64,256,1024,4096").ok());
  ASSERT_TRUE(o.spec.parse_axis("algorithm", "dp,greedy").ok());
  auto report = SweepDriver(o).run(good_jobs());
  for (size_t j = 0; j < report.programs.size(); ++j) {
    auto front = report.pareto(j);
    ASSERT_FALSE(front.empty());
    for (size_t i = 1; i < front.size(); ++i) {
      // Sorted by bytes, strictly better in both coordinates.
      EXPECT_GT(front[i].bytes_used, front[i - 1].bytes_used);
      EXPECT_GT(front[i].saved_nj, front[i - 1].saved_nj);
    }
    // Frontier points resolve through at() and agree with the item.
    for (const auto& p : front) {
      const SweepItem& item = report.at(p.key);
      EXPECT_EQ(item.selection().bytes_used, p.bytes_used);
      EXPECT_DOUBLE_EQ(item.selection().saved_nj, p.saved_nj);
    }
    // No grid point dominates a frontier point.
    for (const auto& p : front) {
      for (size_t i = 0; i < report.grid.points_per_job(); ++i) {
        const SweepItem& item =
            report.items[j * report.grid.points_per_job() + i];
        if (!item.status.ok()) continue;
        const bool dominates =
            item.selection().bytes_used <= p.bytes_used &&
            item.selection().saved_nj > p.saved_nj;
        EXPECT_FALSE(dominates);
      }
    }
  }
  auto agg = report.pareto_aggregate();
  ASSERT_FALSE(agg.empty());
  for (size_t i = 1; i < agg.size(); ++i) {
    EXPECT_GT(agg[i].bytes_used, agg[i - 1].bytes_used);
    EXPECT_GT(agg[i].saved_nj, agg[i - 1].saved_nj);
  }
}

TEST(SweepDriver, FailingJobIsIsolatedAndSkippedInAggregate) {
  SweepOptions o = sweep_opts(3);
  ASSERT_TRUE(o.spec.parse_axis("capacity", "256,1024").ok());
  auto report = SweepDriver(o).run(
      {{"ok", kGood}, {"bad", kParseError}, {"ok2", kGood2}});
  ASSERT_EQ(report.items.size(), 6u);
  EXPECT_TRUE(report.at(PointKey{0, 1, 0, 0, 0, 0}).status.ok());
  EXPECT_FALSE(report.at(PointKey{1, 0, 0, 0, 0, 0}).status.ok());
  EXPECT_EQ(report.at(PointKey{1, 0, 0, 0, 0, 0}).status.phase(), "parse");
  EXPECT_TRUE(report.at(PointKey{2, 0, 0, 0, 0, 0}).status.ok());
  // The failed program still has table rows and an empty frontier; the
  // aggregate skips points any program failed at — here all of them.
  EXPECT_NE(report.table().find("FAILED"), std::string::npos);
  EXPECT_TRUE(report.pareto(1).empty());
  EXPECT_TRUE(report.pareto_aggregate().empty());
  EXPECT_FALSE(report.pareto(0).empty());
  // The streaming writer surfaces the first failure but writes the
  // whole grid.
  std::ostringstream os;
  util::Status st = SweepDriver(o).run_ndjson(
      {{"ok", kGood}, {"bad", kParseError}, {"ok2", kGood2}}, os);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(os.str(), report.ndjson());
}

TEST(SweepDriver, BrokenProgramYieldsClassifiedRowsOthersUnchanged) {
  // One broken program in the job list: its points become structured
  // error rows (error_class + phase), identical whatever the thread
  // count, and every other program's rows are byte-identical to a run
  // that never included the broken program at all.
  SweepOptions o = sweep_opts(1);
  ASSERT_TRUE(o.spec.parse_axis("capacity", "256,1024").ok());
  const std::vector<SweepJob> with_bad = {
      {"ok", kGood}, {"ok2", kGood2}, {"bad", kParseError}};
  const std::vector<SweepJob> without_bad = {{"ok", kGood},
                                             {"ok2", kGood2}};

  std::ostringstream faulty1, faulty4, clean;
  EXPECT_FALSE(SweepDriver(o).run_ndjson(with_bad, faulty1).ok());
  SweepOptions o4 = sweep_opts(4);
  ASSERT_TRUE(o4.spec.parse_axis("capacity", "256,1024").ok());
  EXPECT_FALSE(SweepDriver(o4).run_ndjson(with_bad, faulty4).ok());
  EXPECT_EQ(faulty1.str(), faulty4.str());
  ASSERT_TRUE(SweepDriver(o).run_ndjson(without_bad, clean).ok());

  auto lines_of = [](const std::string& text) {
    std::vector<std::string> lines;
    size_t pos = 0;
    while (pos < text.size()) {
      size_t nl = text.find('\n', pos);
      if (nl == std::string::npos) nl = text.size();
      lines.push_back(text.substr(pos, nl - pos));
      pos = nl + 1;
    }
    return lines;
  };
  auto rows_mentioning = [&](const std::string& text, const char* name) {
    std::vector<std::string> rows;
    // Matches point and pareto rows alike; the closing quote keeps "ok"
    // from matching "ok2".
    const std::string needle =
        std::string("\"program\":\"") + name + "\"";
    for (const std::string& line : lines_of(text)) {
      if (line.find(needle) != std::string::npos) rows.push_back(line);
    }
    return rows;
  };

  // Error rows exist, only for "bad", and carry class + phase.
  int error_rows = 0;
  for (const std::string& line : lines_of(faulty1.str())) {
    if (line.find("\"ok\":false") == std::string::npos) continue;
    ++error_rows;
    EXPECT_NE(line.find("\"program\":\"bad\""), std::string::npos) << line;
    EXPECT_NE(line.find("\"error_class\":\"invalid_input\""),
              std::string::npos)
        << line;
    EXPECT_NE(line.find("\"phase\":\"parse\""), std::string::npos) << line;
  }
  EXPECT_EQ(error_rows, 2);  // one per capacity

  // The healthy programs' rows are byte-identical with and without the
  // broken job (it is last, so their job indices agree).
  EXPECT_EQ(rows_mentioning(faulty1.str(), "ok"),
            rows_mentioning(clean.str(), "ok"));
  EXPECT_EQ(rows_mentioning(faulty1.str(), "ok2"),
            rows_mentioning(clean.str(), "ok2"));
}

TEST(SweepDriver, UnsplittableCacheGeometryIsPerPointInvalidInput) {
  // 100000 B with 32 B lines x 2 ways is 1562 sets, which no 2^k-set LRU
  // cache can have. That is a user's grid, not a bug: those points (and
  // only those) fail as invalid_input, even when the bad one is point 0,
  // which Phase I solves itself; every other row is byte-identical to a
  // grid without the bad capacity, whatever the thread count.
  auto point_rows_of = [](const char* caps, const char* caches,
                          int threads, util::Status* st) {
    SweepOptions o = sweep_opts(threads);
    EXPECT_TRUE(o.spec.parse_axis("capacity", caps).ok());
    EXPECT_TRUE(o.spec.parse_axis("cache", caches).ok());
    std::ostringstream out;
    *st = SweepDriver(o).run_ndjson(good_jobs(), out);
    return point_rows(out.str());
  };
  util::Status clean_st;
  const std::vector<std::string> clean =
      point_rows_of("1024", "32x2,off", 1, &clean_st);
  ASSERT_TRUE(clean_st.ok()) << clean_st.message();
  for (int threads : {1, 4}) {
    util::Status st;
    const std::vector<std::string> rows =
        point_rows_of("100000,1024", "32x2,off", threads, &st);
    EXPECT_EQ(st.code(), util::ErrorCode::kInvalidInput) << st.message();
    ASSERT_EQ(rows.size(), 8u);  // 2 programs x 2 capacities x 2 caches
    std::vector<std::string> healthy;
    for (size_t i = 0; i < rows.size(); ++i) {
      const bool bad_point = i % 4 == 0;  // 100000 B x 32x2 per program
      if (bad_point) {
        EXPECT_NE(rows[i].find("\"ok\":false"), std::string::npos)
            << rows[i];
        EXPECT_NE(rows[i].find("\"error_class\":\"invalid_input\""),
                  std::string::npos)
            << rows[i];
        EXPECT_NE(rows[i].find("\"phase\":\"cache\""), std::string::npos)
            << rows[i];
        EXPECT_NE(rows[i].find("1562"), std::string::npos) << rows[i];
      } else {
        EXPECT_NE(rows[i].find("\"ok\":true"), std::string::npos)
            << rows[i];
      }
      if (i % 4 >= 2) healthy.push_back(without_key(rows[i]));
    }
    std::vector<std::string> clean_unkeyed;
    for (const std::string& row : clean) {
      clean_unkeyed.push_back(without_key(row));
    }
    EXPECT_EQ(healthy, clean_unkeyed) << threads << " thread(s)";
  }
}

TEST(SweepDriver, NdjsonEscapesHostileProgramNames) {
  SweepOptions o = sweep_opts(1);
  ASSERT_TRUE(o.spec.parse_axis("capacity", "1024").ok());
  auto report = SweepDriver(o).run({{"we\"ird\\name\n", kGood}});
  const std::string nd = report.ndjson();
  EXPECT_NE(nd.find("we\\\"ird\\\\name\\n"), std::string::npos);
}

}  // namespace
}  // namespace foray::driver
