// Golden Prometheus series names: one query of each of naive, CE, EDC and
// LBC through a telemetry-on, cache-on QueryExecutor, then the sorted set
// of series names in the global registry's exposition must equal the
// committed list in prometheus_series.txt. A renamed, dropped or added
// series fails here before it breaks a dashboard or an alert rule.
//
// The registry is process-wide, so when the whole binary runs in one
// process earlier tests may have registered series of their own. Those
// are tolerated only if they already existed before this test ran; every
// series that appears during the test must be in the golden list, and
// every golden series must be present.
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cache/query_cache.h"
#include "core/skyline_query.h"
#include "exec/query_executor.h"
#include "gen/workloads.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"

#ifndef MSQ_PROMETHEUS_GOLDEN
#error "MSQ_PROMETHEUS_GOLDEN must be defined by the build"
#endif

#define MSQ_STRINGIFY_INNER(x) #x
#define MSQ_STRINGIFY(x) MSQ_STRINGIFY_INNER(x)

namespace msq {
namespace {

// Distinct series names of a text exposition: the token before any label
// set or value on every non-comment line.
std::set<std::string> SeriesNames(const std::string& exposition) {
  std::set<std::string> names;
  std::istringstream lines(exposition);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    names.insert(line.substr(0, line.find_first_of("{ ")));
  }
  return names;
}

std::set<std::string> GoldenNames() {
  const std::string path = MSQ_STRINGIFY(MSQ_PROMETHEUS_GOLDEN);
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::set<std::string> names;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) names.insert(line);
  }
  return names;
}

TEST(PrometheusGoldenTest, SeriesNamesMatchTheCommittedList) {
  const std::set<std::string> before =
      SeriesNames(obs::PrometheusText(obs::GlobalMetrics()));

  WorkloadConfig config;
  config.network = NetworkGenConfig{220, 290, 5, 0.0};
  config.object_density = 1.0;
  config.object_seed = 11;
  Workload workload(config);
  QueryExecutor executor(workload.dataset(), /*workers=*/2,
                         QueryCacheConfig{}, obs::TelemetryConfig{});
  std::vector<QueryRequest> requests;
  for (const Algorithm algorithm : {Algorithm::kNaive, Algorithm::kCe,
                                    Algorithm::kEdc, Algorithm::kLbc}) {
    QueryRequest request;
    request.algorithm = algorithm;
    request.spec = workload.SampleQuery(3, 40);
    requests.push_back(request);
  }
  for (const SkylineResult& result : executor.RunBatch(requests)) {
    ASSERT_TRUE(result.status.ok());
  }

  const std::set<std::string> after = SeriesNames(obs::PrometheusText(
      obs::GlobalMetrics(), &executor.telemetry().exemplars()));
  const std::set<std::string> golden = GoldenNames();
  for (const std::string& name : golden) {
    EXPECT_TRUE(after.count(name) != 0) << "missing series " << name;
  }
  for (const std::string& name : after) {
    EXPECT_TRUE(golden.count(name) != 0 || before.count(name) != 0)
        << "series not in the golden list: " << name;
  }
}

}  // namespace
}  // namespace msq
