// Shared declarations of the msq benchmark's workloads.
#ifndef MSQBENCH_RUN_H_
#define MSQBENCH_RUN_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/skyline_query.h"
#include "gen/workloads.h"

namespace msqbench {

// The closed loops' throughput and CPU numbers are medians over this many
// equal time slices of the measured window.
constexpr int kSlices = 5;
// Seed of the workloads' fixed request pools and operation sequences.
constexpr std::uint64_t kPoolSeed = 12;
// Set-ups per run; setup_s and gen.build_s are their medians.
constexpr int kSetups = 7;

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  // where spans and the detailed report go
};

// One completed read, kept for the oracle check and the layer probes.
struct ReadRecord {
  msq::Algorithm algorithm = msq::Algorithm::kCe;
  std::vector<msq::Location> sources;
  std::vector<msq::SkylineEntry> skyline;
  msq::QueryStats stats;
  double exec_started_at = 0.0;  // executor workloads only
  double exec_finished_at = 0.0;
  bool ok = false;  // status OK and not truncated
};

// Client-side outcome ledger: attempted = ok + truncated + shed + failed.
struct Ledger {
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t truncated = 0;
  std::uint64_t shed = 0;
  std::uint64_t failed = 0;
  bool Conserved() const {
    return attempted == ok + truncated + shed + failed;
  }
  void Add(const Ledger& o) {
    attempted += o.attempted;
    ok += o.ok;
    truncated += o.truncated;
    shed += o.shed;
    failed += o.failed;
  }
};

// What one run measured. Values are keyed by metric name; the names and
// units live in main.cc's tables.
struct RunReport {
  std::map<std::string, double> values;
  Ledger ledger;  // reads and writes
  std::vector<std::string> errors;  // correctness/validity failures
  std::map<std::string, std::string> stamp;  // host/build/config facts
};

// Fixed per-workload settings, documented in BENCHMARK.json.
struct WorkloadSpec {
  const char* name;
  msq::NetworkClass network;
  double scale;
  std::size_t workers;
  double tail_percentile;
};
const WorkloadSpec* FindWorkload(const std::string& name);

// The workload's dataset: a fixed network (seeded 12) with fixed objects,
// as the paper runs its queries on fixed maps. The run's seed drives only
// what is asked of it: requests, arrival schedules and mutations. Objects
// and networks that change per seed would move every number of a run
// together, and the benchmark's spread across seeds would hide changes.
msq::WorkloadConfig MakeConfig(const WorkloadSpec& spec);

// Builds `repeats` workloads (each destroyed before the next, the last
// kept), timing Workload(config) alone into gen.build_s and Workload plus
// `ready()` into setup_s; both are medians. `teardown()` releases what
// ready() made before its workload is destroyed.
std::unique_ptr<msq::Workload> TimedSetup(
    const msq::WorkloadConfig& config, int repeats,
    const std::function<void(msq::Workload*)>& ready,
    const std::function<void()>& teardown, RunReport* report);

void RunServeOpen(const RunOptions& options, RunReport* report);
void RunBatchCold(const RunOptions& options, RunReport* report);
void RunHotChurn(const RunOptions& options, RunReport* report);

// The served NDJSON text of a query.
std::string QueryText(msq::Algorithm algorithm,
                      const std::vector<msq::Location>& sources);

// Aggregates of a read sample; fills the QueryStats-derived per-layer
// metrics (core.*, graph.*, index.*, storage.*, cache hit rates).
void FillStatsLayers(const std::vector<const ReadRecord*>& reads,
                     RunReport* report);

// Direct timed calls into layer functions on the run's own inputs:
// serve parse/encode, Dominates, NextSettled, BufferManager::Fetch.
// Also checks that no skyline point dominates another (appends to errors).
void ProbeLayers(msq::Workload* workload,
                 const std::vector<const ReadRecord*>& reads, SpanLog* spans,
                 RunReport* report);

// Timed UpdateEdgeWeight/InsertObject/DeleteObject calls on a quiesced
// world (n of each); returns the microsecond samples.
std::vector<double> ProbeMutations(msq::Workload* workload,
                                   std::uint64_t seed, int n);

// obs.telemetry_cpu_pct: program CPU per read with default telemetry
// against TelemetryConfig{enabled=false}, in interleaved closed-loop
// blocks over `reads`.
double TelemetryCpuPct(msq::Workload* workload, std::size_t workers,
                       const std::vector<const ReadRecord*>& reads,
                       double seconds);

// Checks every read against the brute-force oracle on `workload` in its
// current (unchanged since the reads) state; anchors the oracle against
// Algorithm::kNaive on the first read. Appends mismatches to errors.
void CheckReads(msq::Workload* workload,
                const std::vector<const ReadRecord*>& reads,
                RunReport* report);

}  // namespace msqbench

#endif  // MSQBENCH_RUN_H_
