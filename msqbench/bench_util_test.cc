// Tests of the benchmark's own measurement helpers.
#include "bench_util.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>

namespace msqbench {
namespace {

TEST(TailRule, HighestPercentileWithTenBeyond) {
  EXPECT_EQ(SupportedTailPercentile(1000), 99.0);  // 10 beyond p99
  EXPECT_EQ(SupportedTailPercentile(999), 95.0);   // 9 beyond p99
  EXPECT_EQ(SupportedTailPercentile(200), 95.0);   // 10 beyond p95
  EXPECT_EQ(SupportedTailPercentile(199), 90.0);
  EXPECT_EQ(SupportedTailPercentile(100), 90.0);   // 10 beyond p90
  EXPECT_EQ(SupportedTailPercentile(99), 0.0);
  EXPECT_EQ(SupportedTailPercentile(0), 0.0);
}

TEST(TailRule, SamplesBeyondCountsRanksAboveThePercentile) {
  EXPECT_EQ(SamplesBeyond(1000, 99.0), 10u);
  EXPECT_EQ(SamplesBeyond(1001, 99.0), 10u);
  EXPECT_EQ(SamplesBeyond(100, 50.0), 50u);
  EXPECT_EQ(SamplesBeyond(0, 99.0), 0u);
}

TEST(Percentile, NearestRank) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  EXPECT_EQ(Percentile(v, 50.0), 50.0);
  EXPECT_EQ(Percentile(v, 99.0), 99.0);
  EXPECT_EQ(Percentile(v, 100.0), 100.0);
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Percentile({}, 50.0), 0.0);
  // A miss (infinite latency) stays in the tail.
  EXPECT_TRUE(std::isinf(Percentile({1.0, 2.0, INFINITY}, 99.0)));
}

TEST(DueTime, LatencyCountsTheWaitForAConnection) {
  // Due at 1.0, no connection free until 1.5, sent at 1.5001, reply 1.6.
  const RequestTiming t{1.0, 1.5, 1.5001, 1.6};
  EXPECT_NEAR(DueLatency(t), 0.6, 1e-12);
  // The generator itself was late only by the time after the connection
  // freed up.
  EXPECT_NEAR(GeneratorLag(t), 0.0001, 1e-12);
}

TEST(DueTime, GeneratorLagIsSleepOvershootWhenIdle) {
  // Connection free at 0.5 for a request due at 1.0, sent at 1.002.
  const RequestTiming t{1.0, 0.5, 1.002, 1.010};
  EXPECT_NEAR(DueLatency(t), 0.010, 1e-12);
  EXPECT_NEAR(GeneratorLag(t), 0.002, 1e-12);
  EXPECT_EQ(GeneratorLag(RequestTiming{1.0, 0.5, 0.9, 1.0}), 0.0);
}

TEST(Schedule, DeterministicUnderASeed) {
  const std::vector<double> a = PoissonSchedule(42, 200.0, 5.0);
  const std::vector<double> b = PoissonSchedule(42, 200.0, 5.0);
  const std::vector<double> c = PoissonSchedule(43, 200.0, 5.0);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  ASSERT_FALSE(a.empty());
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_GE(a.front(), 0.0);
  EXPECT_LT(a.back(), 5.0);
  // 1,000 expected arrivals; the Poisson count is within 5 sigma.
  EXPECT_NEAR(static_cast<double>(a.size()), 1000.0, 5 * std::sqrt(1000.0));
}

TEST(Schedule, MixSeedSeparatesStreamsAndIndices) {
  EXPECT_EQ(MixSeed(1, 2, 3), MixSeed(1, 2, 3));
  EXPECT_NE(MixSeed(1, 2, 3), MixSeed(1, 2, 4));
  EXPECT_NE(MixSeed(1, 2, 3), MixSeed(1, 3, 3));
  EXPECT_NE(MixSeed(1, 2, 3), MixSeed(2, 2, 3));
}

TEST(Cpu, SubtractsGeneratorThreads) {
  EXPECT_DOUBLE_EQ(ProgramCpuSeconds(2.0, {0.5, 0.25}), 1.25);
  EXPECT_DOUBLE_EQ(ProgramCpuSeconds(0.5, {0.75}), 0.0);  // never negative

  // A spinning "generator" thread's CPU shows up in the process clock and
  // is removed again by subtracting its own thread clock.
  const double p0 = ProcessCpuSeconds();
  double spin = 0.0;
  std::thread generator([&] {
    const double t0 = ThreadCpuSeconds();
    volatile double x = 0.0;
    while (ThreadCpuSeconds() - t0 < 0.05) x = x + 1.0;
    spin = ThreadCpuSeconds() - t0;
  });
  generator.join();
  const double process = ProcessCpuSeconds() - p0;
  EXPECT_GE(process, spin * 0.9);
  EXPECT_LT(ProgramCpuSeconds(process, {spin}), 0.02);
}

TEST(MetricNames, LettersDigitsUnderscoreDotDash) {
  EXPECT_TRUE(ValidMetricName("latency_p50_ms"));
  EXPECT_TRUE(ValidMetricName("core.ce.ms_p50"));
  EXPECT_TRUE(ValidMetricName("9lives-x"));
  EXPECT_FALSE(ValidMetricName(""));
  EXPECT_FALSE(ValidMetricName("_leading"));
  EXPECT_FALSE(ValidMetricName(".leading"));
  EXPECT_FALSE(ValidMetricName("has space"));
  EXPECT_FALSE(ValidMetricName("slash/unit"));
  EXPECT_FALSE(ValidMetricName(std::string(65, 'a')));
  EXPECT_TRUE(ValidMetricName(std::string(64, 'a')));
}

TEST(ResultLine, KeysAndFullPrecision) {
  const std::string line =
      ResultJson(true, 12, 0, {{"latency_ms", 1.2034567890123, "ms"}});
  EXPECT_EQ(line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, "
            "\"metrics\": {\"latency_ms\": {\"value\": 1.2034567890123, "
            "\"unit\": \"ms\"}}}");
}

TEST(Spans, RecordOnlyWhenEnabled) {
  SpanLog off(false);
  EXPECT_EQ(off.Record("x", 0, 1, 0.0, 1.0), 0u);
  EXPECT_EQ(off.size(), 0u);
  SpanLog on(true);
  const std::uint64_t root = on.Record("request", 0, 7, 0.0, 2.0);
  const std::uint64_t child = on.Record("rtt", root, 7, 0.5, 2.0, 3);
  EXPECT_NE(root, 0u);
  EXPECT_NE(child, root);
  EXPECT_EQ(on.size(), 2u);
}

}  // namespace
}  // namespace msqbench
