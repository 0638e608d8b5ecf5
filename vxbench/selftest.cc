// Self-tests of the benchmark's own code: the percentile rule, open-loop
// due-time accounting, the Poisson schedule, metric names, span self time,
// the result line, input fingerprints, and the end-to-end guards of the
// vxbench binary (a corrupted answer and a knob in the environment both
// make it exit non-zero).

#include <sys/wait.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graphgen/generators.h"
#include "harness.h"
#include "workloads.h"

namespace vxbench {
namespace {

TEST(PercentileRule, NearestRankAndSamplesBeyond) {
  EXPECT_EQ(NearestRank(40, 75), 30);
  EXPECT_EQ(SamplesBeyond(40, 75), 10);
  EXPECT_EQ(NearestRank(100, 50), 50);
  EXPECT_EQ(NearestRank(1, 99), 1);
  EXPECT_EQ(NearestRank(7, 100), 7);
}

TEST(PercentileRule, HighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(HighestSupportedPercentile(19), 0);   // p50 has 9 beyond
  EXPECT_EQ(HighestSupportedPercentile(20), 50);  // p50 has 10 beyond
  EXPECT_EQ(HighestSupportedPercentile(39), 50);  // p75 has 9 beyond
  EXPECT_EQ(HighestSupportedPercentile(40), 75);
  EXPECT_EQ(HighestSupportedPercentile(100), 90);
  EXPECT_EQ(HighestSupportedPercentile(200), 95);
  EXPECT_EQ(HighestSupportedPercentile(1000), 99);
}

TEST(PercentileRule, ValueCarriesItsCounts) {
  std::vector<double> v;
  for (int i = 40; i >= 1; --i) v.push_back(i);  // unsorted input
  const PercentileValue p75 = Percentile(v, 75);
  EXPECT_EQ(p75.value, 30);
  EXPECT_EQ(p75.samples, 40);
  EXPECT_EQ(p75.beyond, 10);
  EXPECT_TRUE(p75.supported());
  const PercentileValue p95 = Percentile(v, 95);
  EXPECT_EQ(p95.value, 38);
  EXPECT_EQ(p95.beyond, 2);
  EXPECT_FALSE(p95.supported());
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Percentile({}, 50).samples, 0);
}

TEST(OpenLoop, LatencyIsTimedFromTheDueTime) {
  OpenLoopTiming late{/*due_s=*/1.0, /*start_s=*/1.5, /*end_s=*/2.25};
  EXPECT_DOUBLE_EQ(late.latency_s(), 1.25);
  EXPECT_DOUBLE_EQ(late.lateness_s(), 0.5);
  OpenLoopTiming on_time{1.0, 1.0, 1.25};
  EXPECT_DOUBLE_EQ(on_time.latency_s(), 0.25);
  EXPECT_DOUBLE_EQ(on_time.lateness_s(), 0.0);
  // A start a hair before the due time (clock granularity) is not "early
  // credit".
  OpenLoopTiming early{1.0, 0.999, 1.5};
  EXPECT_DOUBLE_EQ(early.lateness_s(), 0.0);
}

TEST(OpenLoop, GrowingBacklogIsDetected) {
  std::vector<OpenLoopTiming> steady, growing;
  for (int i = 0; i < 100; ++i) {
    const double due = i * 0.1;
    steady.push_back({due, due + 0.002, due + 0.05});
    growing.push_back({due, due + 0.01 * i, due + 0.01 * i + 0.05});
  }
  EXPECT_FALSE(BacklogGrows(steady, 0.05));
  EXPECT_TRUE(BacklogGrows(growing, 0.05));
}

TEST(PoissonSchedule, SameSeedSameSchedule) {
  const auto a = PoissonSchedule(7, 15.0, 20.0);
  const auto b = PoissonSchedule(7, 15.0, 20.0);
  const auto c = PoissonSchedule(8, 15.0, 20.0);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  ASSERT_FALSE(a.empty());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_GE(a[i], 0.0);
    EXPECT_LT(a[i], 20.0);
    if (i > 0) EXPECT_GT(a[i], a[i - 1]);
  }
}

TEST(PoissonSchedule, MeanRateMatches) {
  const auto due = PoissonSchedule(3, 50.0, 200.0);
  EXPECT_NEAR(static_cast<double>(due.size()) / 200.0, 50.0, 2.5);
  EXPECT_TRUE(PoissonSchedule(3, 0, 10).empty());
}

TEST(MetricNames, CatalogueIsValidAndUnique) {
  std::vector<std::string> seen;
  for (const auto* list : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const MetricSpec& m : *list) {
      EXPECT_TRUE(ValidMetricName(m.name)) << m.name;
      EXPECT_TRUE(m.better == "lower" || m.better == "higher") << m.name;
      EXPECT_FALSE(m.unit.empty()) << m.name;
      for (const std::string& s : seen) EXPECT_NE(s, m.name);
      seen.push_back(m.name);
    }
  }
  EXPECT_LE(PerLayerMetrics().size(), 128u);
  EXPECT_LE(EndToEndMetrics().size(), 16u);
}

TEST(MetricNames, RejectsOutsideTheAlphabet) {
  EXPECT_TRUE(ValidMetricName("vx_p50_ms"));
  EXPECT_TRUE(ValidMetricName("exec.vertexica.join-rows"));
  EXPECT_TRUE(ValidMetricName("9lives"));
  EXPECT_FALSE(ValidMetricName(""));
  EXPECT_FALSE(ValidMetricName("_leading"));
  EXPECT_FALSE(ValidMetricName(".leading"));
  EXPECT_FALSE(ValidMetricName("has space"));
  EXPECT_FALSE(ValidMetricName("slash/unit"));
  EXPECT_FALSE(ValidMetricName("caf\xc3\xa9"));
  EXPECT_FALSE(ValidMetricName(std::string(65, 'a')));
  EXPECT_TRUE(ValidMetricName(std::string(64, 'a')));
}

TEST(Tracer, SelfTimeSubtractsTheUnionOfChildren) {
  Tracer t;
  const int job = t.Add("job", 0, 10, -1, 1);
  t.Add("phase", 1, 3, job, 1);
  t.Add("phase", 2, 5, job, 1);  // overlaps the first: counted once
  const int root = t.Enclose("workload");
  EXPECT_EQ(t.spans()[static_cast<size_t>(job)].parent, root);
  const auto self = t.SelfSeconds();
  EXPECT_DOUBLE_EQ(self.at("job"), 6.0);
  EXPECT_DOUBLE_EQ(self.at("phase"), 5.0);
  EXPECT_DOUBLE_EQ(self.at("workload"), 0.0);
}

TEST(Tracer, ChildOutsideItsParentGivesNegativeSelfTime) {
  Tracer t;
  const int job = t.Add("job", 0, 1, -1, 1);
  t.Add("phase", 0, 1.5, job, 1);
  EXPECT_LT(t.SelfSeconds().at("job"), 0.0);
}

TEST(ResultLine, HasExactlyTheFourKeys) {
  MetricSet m;
  m.Set("setup_s", 0.8127, "s");
  m.Set("vx_p50_ms", 1.2034, "ms");
  const std::string line = ResultJson(true, 1000, 0, m);
  EXPECT_EQ(line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, "
            "\"metrics\": {\"setup_s\": {\"value\": 0.81269999999999998, "
            "\"unit\": \"s\"}, \"vx_p50_ms\": {\"value\": "
            "1.2034, \"unit\": \"ms\"}}}");
}

TEST(Fingerprint, ChangesWithContent) {
  vertexica::Graph a = vertexica::GenerateRmat(100, 400, 5);
  vertexica::Graph b = vertexica::GenerateRmat(100, 400, 5);
  EXPECT_EQ(FingerprintOf(a).hash, FingerprintOf(b).hash);
  EXPECT_EQ(FingerprintOf(a).rows, 100);
  EXPECT_EQ(FingerprintOf(a).columns, 400);
  b.dst[0] = (b.dst[0] + 1) % 100;
  EXPECT_NE(FingerprintOf(a).hash, FingerprintOf(b).hash);
}

TEST(BitEqual, DistinguishesSignedZero) {
  EXPECT_TRUE(BitEqual({1.0, 2.0}, {1.0, 2.0}));
  EXPECT_FALSE(BitEqual({0.0}, {-0.0}));
  EXPECT_FALSE(BitEqual({1.0}, {1.0, 2.0}));
}

/// Runs the vxbench binary; returns its exit code and its last stdout line.
std::pair<int, std::string> RunBench(const std::string& env,
                                     const std::string& args) {
  const std::string cmd =
      env + " " + VXBENCH_BINARY + " " + args + " 2>/dev/null";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return {-1, ""};
  std::string last, line;
  char buf[4096];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) {
    line += buf;
    if (!line.empty() && line.back() == '\n') {
      line.pop_back();
      if (!line.empty()) last = line;
      line.clear();
    }
  }
  const int status = pclose(pipe);
  return {WIFEXITED(status) ? WEXITSTATUS(status) : -1, last};
}

TEST(Binary, CorruptedAnswerExitsNonZero) {
  // Every workload's answer check: pagerank-social and hybrid-pipeline
  // corrupt the first measured job, serve-mix the first measured request.
  for (const char* workload :
       {"pagerank-social", "hybrid-pipeline", "serve-mix"}) {
    const auto [code, last] = RunBench(
        "",
        std::string("--workload ") + workload +
            " --seed 3 --seconds 1 --trace 0 --inject-wrong-answer");
    EXPECT_EQ(code, 1) << workload;
    EXPECT_NE(last.find("\"correct\": false"), std::string::npos) << last;
    EXPECT_EQ(last.find("\"failed\": 0,"), std::string::npos) << last;
  }
}

TEST(Binary, CleanRunExitsZero) {
  const auto [code, last] =
      RunBench("", "--workload hybrid-pipeline --seed 3 --seconds 1 --trace 0");
  EXPECT_EQ(code, 0);
  EXPECT_NE(last.find("\"correct\": true"), std::string::npos) << last;
}

TEST(Binary, RefusesKnobsInTheEnvironment) {
  for (const char* env : {"VERTEXICA_THREADS=2", "VERTEXICA_FAULTS=x"}) {
    const auto [code, last] = RunBench(
        std::string("env ") + env,
        "--workload hybrid-pipeline --seed 3 --seconds 1 --trace 0");
    EXPECT_EQ(code, 2) << env;
    EXPECT_EQ(last.find("\"correct\""), std::string::npos) << last;
  }
}

}  // namespace
}  // namespace vxbench
