// msqbench — the msq benchmark program.
//
//   msqbench --workload NAME --seed N --seconds S --trace 0|1
//            --out-dir DIR [--source-digest HEX]
//
// Runs one workload (serve_open_ca, batch_cold_na, hot_churn_au) against
// the library's public entry points, checks every read against the oracle
// and the request ledger, and prints the result line last on stdout:
// the end-to-end metrics with --trace 0, the per-layer metrics of a traced
// run with --trace 1. DIR receives the spans of a traced run and a report
// with every measured value and the host/build stamp. Exits non-zero,
// without a result line, on a wrong answer, a broken ledger, an invalid
// run, or a non-Release or sanitizer build.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "obs/build_info.h"
#include "run.h"

namespace msqbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Printed with --trace 0. Every workload reports all of them, and none can
// be 0 on a correct run.
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"throughput_qps", "1/s"},
    {"latency_p50_ms", "ms"},
    {"latency_tail_ms", "ms"},
    {"cpu_ms_per_query", "ms"},
    {"net_pages_per_query", "count"},
    {"rss_peak_mb", "MiB"},
};

// Printed with --trace 1. Rows that do not apply to a workload read 0.
const MetricDef kPerLayer[] = {
    {"max_rate_under_slo_qps", "1/s"},
    {"write_p50_ms", "ms"},
    {"write_tail_ms", "ms"},
    {"failed_frac", "fraction"},
    {"gen.build_s", "s"},
    {"gen.mutation_us_p50", "us"},
    {"serve.overhead_ms_p50", "ms"},
    {"serve.parse_us_p50", "us"},
    {"serve.encode_us_p50", "us"},
    {"serve.shed_frac", "fraction"},
    {"exec.queue_wait_ms_p50", "ms"},
    {"exec.queue_wait_ms_tail", "ms"},
    {"exec.cpu_util", "fraction"},
    {"exec.barrier_wait_ms_p50", "ms"},
    {"core.ce.ms_p50", "ms"},
    {"core.edc.ms_p50", "ms"},
    {"core.lbc.ms_p50", "ms"},
    {"core.ce.candidates", "count"},
    {"core.edc.candidates", "count"},
    {"core.lbc.candidates", "count"},
    {"core.dominance_tests_per_query", "count"},
    {"core.dominance_avoided_per_query", "count"},
    {"core.dominance_avoided_frac", "fraction"},
    {"core.bound_candidates_per_query", "count"},
    {"core.bound_pruned_frac", "fraction"},
    {"core.dominance_ns", "ns"},
    {"graph.settled_per_query", "count"},
    {"graph.net_pages_per_settled", "fraction"},
    {"graph.ns_per_settled", "ns"},
    {"index.page_accesses_per_query", "count"},
    {"index.pages_per_query", "count"},
    {"storage.net_page_accesses_per_query", "count"},
    {"storage.net_hit_rate", "fraction"},
    {"storage.index_hit_rate", "fraction"},
    {"storage.fetch_ns", "ns"},
    {"cache.wavefront_lookups_per_query", "count"},
    {"cache.wavefront_hit_rate", "fraction"},
    {"cache.memo_lookups_per_query", "count"},
    {"cache.memo_hit_rate", "fraction"},
    {"cache.bytes", "bytes"},
    {"cache.invalidations_per_write", "count"},
    {"obs.telemetry_cpu_pct", "%"},
    {"bench.gen_lag_ms_p99", "ms"},
    {"bench.trace_overhead_pct", "%"},
};

int Usage() {
  std::fprintf(stderr,
               "usage: msqbench --workload serve_open_ca|batch_cold_na|"
               "hot_churn_au --seed N --seconds S --trace 0|1 "
               "--out-dir DIR [--source-digest HEX]\n");
  return 2;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

void WriteReport(const RunOptions& options, const RunReport& report) {
  const std::string path = options.out_dir + "/report-" + options.workload +
                           "-seed" + std::to_string(options.seed) + "-trace" +
                           (options.trace ? "1" : "0") + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "{\"stamp\": {");
  bool first = true;
  for (const auto& [key, value] : report.stamp) {
    std::fprintf(f, "%s%s: %s", first ? "" : ", ", JsonString(key).c_str(),
                 JsonString(value).c_str());
    first = false;
  }
  std::fprintf(f, "}, \"ledger\": {\"attempted\": %llu, \"ok\": %llu, "
               "\"truncated\": %llu, \"shed\": %llu, \"failed\": %llu}, "
               "\"values\": {",
               static_cast<unsigned long long>(report.ledger.attempted),
               static_cast<unsigned long long>(report.ledger.ok),
               static_cast<unsigned long long>(report.ledger.truncated),
               static_cast<unsigned long long>(report.ledger.shed),
               static_cast<unsigned long long>(report.ledger.failed));
  first = true;
  for (const auto& [key, value] : report.values) {
    std::fprintf(f, "%s%s: %.17g", first ? "" : ", ", JsonString(key).c_str(),
                 value);
    first = false;
  }
  std::fprintf(f, "}, \"errors\": [");
  for (std::size_t i = 0; i < report.errors.size(); ++i) {
    std::fprintf(f, "%s%s", i > 0 ? ", " : "",
                 JsonString(report.errors[i]).c_str());
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
}

// Refuses numbers from builds that do not measure the shipped program.
bool ReleaseBuild(std::string* why) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  *why = "benchmark built with a sanitizer";
  return false;
#endif
#ifndef NDEBUG
  *why = "benchmark built without NDEBUG";
  return false;
#endif
  const msq::obs::BuildInfo& build = msq::obs::GetBuildInfo();
  if (build.build_type != "Release") {
    *why = "library build type is '" + std::string(build.build_type) +
           "', not Release";
    return false;
  }
  if (std::string_view(build.flags).find("sanitize=[]") ==
      std::string_view::npos) {
    *why = "library built with sanitizers: " + std::string(build.flags);
    return false;
  }
  return true;
}

}  // namespace
}  // namespace msqbench

int main(int argc, char** argv) {
  using namespace msqbench;
  RunOptions options;
  std::string digest = "unknown";
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      have_seed = *end == '\0';
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, &end);
      have_seconds = *end == '\0' && options.seconds > 0.0;
    } else if (flag == "--trace") {
      have_trace = std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0;
      options.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else if (flag == "--source-digest") {
      digest = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || !have_workload || !have_seed || !have_seconds ||
      !have_trace || options.out_dir.empty() ||
      FindWorkload(options.workload) == nullptr) {
    return Usage();
  }
  for (const MetricDef& m : kEndToEnd) {
    if (!ValidMetricName(m.name)) return Usage();
  }
  for (const MetricDef& m : kPerLayer) {
    if (!ValidMetricName(m.name)) return Usage();
  }
  std::string why;
  if (!ReleaseBuild(&why)) {
    std::fprintf(stderr, "msqbench: refusing to report: %s\n", why.c_str());
    return 3;
  }

  RunReport report;
  const msq::obs::BuildInfo& build = msq::obs::GetBuildInfo();
  report.stamp["nproc"] = std::to_string(std::thread::hardware_concurrency());
  report.stamp["git_sha"] = std::string(build.git_sha);
  report.stamp["source_digest"] = digest;
  report.stamp["build_type"] = std::string(build.build_type);
  report.stamp["compiler"] = std::string(build.compiler);
  report.stamp["flags"] = std::string(build.flags);
  report.stamp["workload"] = options.workload;
  report.stamp["seed"] = std::to_string(options.seed);
  report.stamp["seconds"] = std::to_string(options.seconds);
  report.stamp["trace"] = options.trace ? "1" : "0";

  if (options.workload == "serve_open_ca") {
    RunServeOpen(options, &report);
  } else if (options.workload == "batch_cold_na") {
    RunBatchCold(options, &report);
  } else {
    RunHotChurn(options, &report);
  }
  if (!report.ledger.Conserved()) {
    report.errors.push_back("ledger: attempted != ok + truncated + shed + failed");
  }
  if (report.ledger.attempted == 0) report.errors.push_back("nothing ran");

  std::vector<Metric> metrics;
  const bool trace = options.trace;
  const std::vector<MetricDef> wanted =
      trace ? std::vector<MetricDef>(std::begin(kPerLayer), std::end(kPerLayer))
            : std::vector<MetricDef>(std::begin(kEndToEnd), std::end(kEndToEnd));
  for (const MetricDef& m : wanted) {
    const auto it = report.values.find(m.name);
    if (it == report.values.end()) {
      report.errors.push_back(std::string("metric not measured: ") + m.name);
    } else if (!trace && !(it->second > 0.0)) {
      report.errors.push_back(std::string("end-to-end metric is 0: ") + m.name);
    } else {
      metrics.push_back(Metric{m.name, it->second, m.unit});
    }
  }
  WriteReport(options, report);

  std::fprintf(stderr, "msqbench %s seed %llu trace %d: nproc %s, sha %s, %s %s\n",
               options.workload.c_str(),
               static_cast<unsigned long long>(options.seed), trace ? 1 : 0,
               report.stamp["nproc"].c_str(), report.stamp["git_sha"].c_str(),
               report.stamp["build_type"].c_str(),
               report.stamp["flags"].c_str());
  for (const auto& [key, value] : report.values) {
    std::fprintf(stderr, "  %-38s %.6g\n", key.c_str(), value);
  }
  if (!report.errors.empty()) {
    for (const std::string& e : report.errors) {
      std::fprintf(stderr, "msqbench: FAILED: %s\n", e.c_str());
    }
    return 1;
  }
  std::printf("%s\n", ResultJson(true, report.ledger.attempted,
                                 report.ledger.failed + report.ledger.shed +
                                     report.ledger.truncated,
                                 metrics)
                          .c_str());
  return 0;
}
