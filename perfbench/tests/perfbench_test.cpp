// Unit tests of the benchmark's own statistics, span and check code.
#include <gtest/gtest.h>

#include <sstream>

#include "spans.h"
#include "stats.h"
#include "util/json.h"
#include "workloads.h"

namespace perfbench {
namespace {

TEST(Quantile, SmallSamples) {
  EXPECT_EQ(quantile({}, 0.5), 0.0);
  EXPECT_EQ(quantile({3.0}, 0.1), 3.0);
  EXPECT_EQ(quantile({3.0}, 0.9), 3.0);
  EXPECT_DOUBLE_EQ(quantile({4.0, 2.0}, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(quantile({4.0, 2.0}, 0.1), 2.2);
  // Order of the input does not matter; ends are the extremes.
  EXPECT_DOUBLE_EQ(quantile({5.0, 1.0, 3.0}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile({5.0, 1.0, 3.0}, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile({5.0, 1.0, 3.0}, 0.25), 2.0);
  // Out-of-range q clamps.
  EXPECT_DOUBLE_EQ(quantile({5.0, 1.0, 3.0}, -1.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile({5.0, 1.0, 3.0}, 2.0), 5.0);
}

TEST(Quantile, FastestDecileOfTen) {
  std::vector<double> v;
  for (int i = 10; i >= 1; --i) v.push_back(i);
  EXPECT_DOUBLE_EQ(quantile(v, 0.1), 1.9);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 5.5);
}

TEST(IterationTimes, PassAndRequestQuantiles) {
  IterationTimes t;
  // Program 0: 1 s when quiet, one contended 3 s iteration.
  t.add(0, 1.0);
  t.add(0, 3.0);
  t.add(0, 1.0);
  // Program 1: 2 s.
  t.add(1, 2.0);
  t.add(1, 2.0);
  EXPECT_DOUBLE_EQ(t.pass_seconds(0.0), 3.0);
  EXPECT_DOUBLE_EQ(t.pass_seconds(1.0), 5.0);
  // One floor per program, however many iterations each got: 1 and 2.
  EXPECT_DOUBLE_EQ(t.request_quantile(0.5, 0.0), 1.5);
  EXPECT_DOUBLE_EQ(t.request_quantile(0.0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(t.request_quantile(1.0, 0.0), 2.0);
  // Raw: 1, 1, 2, 2, 3.
  EXPECT_DOUBLE_EQ(t.raw_quantile(0.5), 2.0);
  EXPECT_EQ(t.iterations(), 5u);
}

TEST(SelfTime, NestedSpans) {
  // parent [0,10] with children [1,3], [2,5] (overlapping) and [8,12]
  // (reaching past the parent); a grandchild [1.5,2.5] of the first child
  // does not count against the parent.
  std::vector<Span> spans = {
      {"parent", 0.0, 10.0, 1, 0, 7, false},
      {"a", 1.0, 3.0, 2, 1, 7, false},
      {"b", 2.0, 5.0, 3, 1, 7, false},
      {"c", 8.0, 12.0, 4, 1, 7, true},
      {"a.child", 1.5, 2.5, 5, 2, 7, false},
  };
  const std::vector<double> self = self_times(spans);
  ASSERT_EQ(self.size(), spans.size());
  EXPECT_DOUBLE_EQ(self[0], 10.0 - (5.0 - 1.0) - (10.0 - 8.0));
  EXPECT_DOUBLE_EQ(self[1], 2.0 - 1.0);
  EXPECT_DOUBLE_EQ(self[2], 3.0);
  EXPECT_DOUBLE_EQ(self[3], 4.0);
  EXPECT_DOUBLE_EQ(self[4], 1.0);
}

TEST(SpanRecorder, ParentsAndRequests) {
  SpanRecorder rec;
  rec.set_request(3);
  {
    ScopedSpan outer(&rec, "outer");
    ScopedSpan inner(&rec, "inner", /*probe=*/true);
  }
  rec.set_request(4);
  { ScopedSpan next(&rec, "next"); }
  const auto& s = rec.spans();
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s[0].parent, 0u);
  EXPECT_EQ(s[1].parent, s[0].id);
  EXPECT_TRUE(s[1].probe);
  EXPECT_EQ(s[0].request, 3u);
  EXPECT_EQ(s[1].request, 3u);
  EXPECT_EQ(s[2].request, 4u);
  EXPECT_EQ(s[2].parent, 0u);
  EXPECT_LE(s[0].start, s[1].start);
  EXPECT_LE(s[1].end, s[0].end);
}

TEST(ChromeTrace, CarriesIds) {
  std::vector<Span> spans = {{"root", 0.0, 0.002, 1, 0, 9, false},
                             {"leaf", 0.001, 0.0015, 2, 1, 9, true}};
  std::ostringstream out;
  write_chrome_trace(out, spans);
  foray::util::JsonValue doc;
  std::string err;
  ASSERT_TRUE(foray::util::parse_json(out.str(), &doc, &err)) << err;
  const foray::util::JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->items.size(), 2u);
  const foray::util::JsonValue& leaf = events->items[1];
  EXPECT_EQ(leaf.find("name")->str, "leaf");
  EXPECT_EQ(leaf.find("ph")->str, "X");
  EXPECT_DOUBLE_EQ(leaf.find("ts")->num, 1000.0);
  EXPECT_DOUBLE_EQ(leaf.find("dur")->num, 500.0);
  const foray::util::JsonValue* args = leaf.find("args");
  EXPECT_EQ(args->find("span_id")->num, 2.0);
  EXPECT_EQ(args->find("parent_id")->num, 1.0);
  EXPECT_EQ(args->find("request_id")->num, 9.0);
}

TEST(DigestCheck, MismatchFailsTheRun) {
  DigestCheck digests;
  Tally tally;
  EXPECT_TRUE(tally.add(digests.check("fft", digest("a\nb\n"))));
  EXPECT_TRUE(tally.add(digests.check("gsm", digest("other\n"))));
  EXPECT_TRUE(tally.add(digests.check("fft", digest("a\nb\n"))));
  EXPECT_TRUE(tally.correct());
  EXPECT_FALSE(tally.add(digests.check("fft", digest("a\nc\n"))));
  EXPECT_EQ(tally.attempted, 4u);
  EXPECT_EQ(tally.failed, 1u);
  EXPECT_FALSE(tally.correct());
}

TEST(CheckBody, CountsBadRows) {
  const std::string good =
      "{\"kind\":\"sweep\"}\n"
      "{\"kind\":\"point\",\"ok\":true,\"replay_check\":{\"ok\":true}}\n"
      "{\"kind\":\"point\",\"ok\":true}\n"
      "{\"kind\":\"pareto\"}\n";
  Tally ok;
  EXPECT_TRUE(check_body(good, 2, &ok));
  EXPECT_TRUE(ok.correct());

  Tally wrong_count;
  EXPECT_FALSE(check_body(good, 3, &wrong_count));
  EXPECT_EQ(wrong_count.failed, 1u);

  const std::string bad =
      "{\"kind\":\"point\",\"ok\":true,\"replay_check\":{\"ok\":false}}\n"
      "{\"kind\":\"point\",\"ok\":false}\n"
      "not json\n";
  Tally t;
  EXPECT_FALSE(check_body(bad, 2, &t));
  EXPECT_EQ(t.failed, 3u);
}

TEST(Inputs, SeededAndSizeBounded) {
  const std::vector<Program> a = make_inputs(7);
  const std::vector<Program> b = make_inputs(7);
  const std::vector<Program> c = make_inputs(8);
  ASSERT_EQ(a.size(), 6u + kGeneratedPrograms);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].source, b[i].source);
  }
  EXPECT_NE(a.back().source, c.back().source);
  EXPECT_EQ(make_inputs(7, 0).size(), 6u);
  for (const Program& p : a) {
    if (p.truth.empty()) continue;
    uint64_t accesses = 0;
    for (const auto& nest : p.truth) accesses += nest.accesses();
    EXPECT_GE(accesses, kMinGeneratedAccesses);
    EXPECT_LE(accesses, kMaxGeneratedAccesses);
  }
}

}  // namespace
}  // namespace perfbench
