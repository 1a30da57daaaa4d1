// Byte-identity lock for the Phase II kernels: the NDJSON of a fixed DSE
// grid over the six benchsuite kernels (capacity 512..16384 x energy
// default,dram-heavy x cache off,32x2,32x4 x algorithm dp,greedy) must
// equal the committed fixture tests/golden/dse_sweep.ndjson, on one
// worker thread and on four. Every selection, hit/miss count and energy
// figure the DP, the cache simulator and the address stream produce
// lands in those rows, so any drift in them becomes a reviewable diff.
// Regenerate an intentional change with FORAY_UPDATE_GOLDEN=1
// (equivalently: foraygen sweep with the axes above --ndjson FILE).
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "driver/sweep.h"

namespace foray::driver {
namespace {

std::string fixture_path() {
  return std::string(FORAY_SOURCE_DIR) + "/tests/golden/dse_sweep.ndjson";
}

std::string sweep_ndjson(int threads) {
  SweepOptions o;
  o.threads = threads;
  EXPECT_TRUE(
      o.spec.parse_axis("capacity", "512,1024,2048,4096,8192,16384").ok());
  EXPECT_TRUE(o.spec.parse_axis("energy", "default,dram-heavy").ok());
  EXPECT_TRUE(o.spec.parse_axis("cache", "off,32x2,32x4").ok());
  EXPECT_TRUE(o.spec.parse_axis("algorithm", "dp,greedy").ok());
  std::ostringstream out;
  EXPECT_TRUE(
      SweepDriver(o).run_ndjson(SweepDriver::benchsuite_jobs(), out).ok());
  return out.str();
}

TEST(DseGolden, SweepMatchesFixtureAtOneAndFourThreads) {
  const std::string one = sweep_ndjson(1);
  if (std::getenv("FORAY_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(fixture_path(), std::ios::binary);
    ASSERT_TRUE(out.good()) << fixture_path();
    out << one;
  }
  std::ifstream in(fixture_path(), std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing fixture " << fixture_path()
                         << " — regenerate with FORAY_UPDATE_GOLDEN=1";
  std::ostringstream fixture;
  fixture << in.rdbuf();
  EXPECT_TRUE(fixture.str() == one)
      << "1-thread DSE sweep drifted from " << fixture_path()
      << "; review the diff and regenerate with FORAY_UPDATE_GOLDEN=1 if "
      << "intentional";
  EXPECT_TRUE(fixture.str() == sweep_ndjson(4))
      << "4-thread DSE sweep drifted from " << fixture_path();
}

}  // namespace
}  // namespace foray::driver
