// Always-on serving telemetry: the layer QueryExecutor reports every query
// completion into. Three consumers hang off one RecordQuery call:
//
//   1. Distribution histograms (obs/histogram.h) in a MetricsRegistry,
//      per algorithm: latency, network/index page accesses, settled
//      nodes, cache hits — `exec.<algo>.<event>_hist`. Their
//      count/sum reconcile exactly with the counter registry and with
//      QueryStats totals once the batch is quiescent.
//   2. The flight recorder (obs/flight_recorder.h): the last N query
//      summaries, always reconstructible.
//   3. Tail-based trace sampling (CompleteRequest): the executor traces
//      every query into its worker's span buffer and hands the finished
//      profile here; the trace is retained in the TraceStore iff the
//      query was slow (wall/page thresholds), errored, truncated, or
//      head-sampled at the configured rate — otherwise it is dropped on
//      the spot. Slow completions also land in the bounded slow-query
//      log, fed from the same profile: the old "re-run the query traced"
//      capture path is gone, so a slow query is never executed twice and
//      counters/histograms/flight records count it exactly once.
//
// This file stays core-independent like the rest of src/obs: the executor
// translates its SkylineResult and thread-counter delta into a plain
// FlightRecord before reporting. Everything here is thread-safe;
// RecordQuery is a handful of histogram observations, one small
// mutex-guarded pointer-cache lookup, and a ring write.
#ifndef MSQ_OBS_TELEMETRY_H_
#define MSQ_OBS_TELEMETRY_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/plan.h"
#include "obs/request_context.h"
#include "obs/trace.h"
#include "obs/trace_store.h"

namespace msq::obs {

struct TelemetryConfig {
  // false turns every telemetry call into a no-op (the baseline mode the
  // throughput bench measures overhead against).
  bool enabled = true;
  std::size_t flight_capacity = FlightRecorder::kDefaultCapacity;
  // Slow-query thresholds; 0 disables the respective trigger. A query is
  // slow when wall time exceeds `slow_wall_seconds` or total buffer page
  // accesses (network + index) exceed `slow_page_accesses`. Slow queries
  // feed both the slow-query log and tail trace retention.
  double slow_wall_seconds = 0.0;
  std::uint64_t slow_page_accesses = 0;
  // Retained slow-query profiles; once full, the log stops growing
  // (detection stays counted; traces may still be tail-retained).
  std::size_t slow_log_capacity = 16;
  // Tail-sampling retention: capacity of the retained-trace store, and the
  // head-sampling rate — every Nth query is sampled at ingress regardless
  // of outcome (0 = head sampling off; 1 = sample everything). Slow,
  // errored, and truncated queries are always retained.
  std::size_t trace_capacity = TraceStore::kDefaultCapacity;
  std::uint64_t head_sample_every = 0;
  // Recent execution plans retained for GET /explainz.
  std::size_t plan_capacity = PlanStore::kDefaultCapacity;
  // Histogram/counter registry; null means GlobalMetrics(). Tests pass an
  // isolated registry.
  MetricsRegistry* registry = nullptr;
};

// One auto-captured slow query: the completion record that tripped the
// threshold plus the profile recorded during that same run (queries are
// always traced, so capture never re-executes anything).
struct SlowQueryRecord {
  FlightRecord summary;
  QueryProfile profile;
};

class ServingTelemetry {
 public:
  explicit ServingTelemetry(const TelemetryConfig& config = {});

  ServingTelemetry(const ServingTelemetry&) = delete;
  ServingTelemetry& operator=(const ServingTelemetry&) = delete;

  bool enabled() const { return config_.enabled; }
  const TelemetryConfig& config() const { return config_; }
  MetricsRegistry* registry() const { return registry_; }

  // Reports one query completion: observes the per-algorithm histograms
  // and appends to the flight recorder. `algorithm` is the stable
  // AlgorithmName. Returns the ring-assigned sequence (0 when disabled)
  // so the caller can stamp its own copy of the record.
  std::uint64_t RecordQuery(std::string_view algorithm,
                            const FlightRecord& record);

  // True when `record` crosses a slow threshold and the slow log still has
  // room for RetainSlowQuery. Also counts the detection
  // (exec.slow_queries).
  bool ShouldCaptureSlow(const FlightRecord& record);

  void RetainSlowQuery(SlowQueryRecord record);

  // Head-sampling coin: true for every `head_sample_every`-th call (and
  // never when the rate is 0). Thread-safe; called once per request at
  // ingress (server accept or executor submit without a context).
  bool HeadSample();

  // Tail-sampling completion hook, called by the executor once per query
  // after RecordQuery. Decides retention (slow per the thresholds above /
  // error / truncated / ctx.sampled), stores the trace, feeds the
  // slow-query log and the latency-histogram exemplar, and returns the
  // decision (kNone = dropped). `queue_seconds` is submit -> execute
  // start; `profile` is the span tree of this run.
  RetainReason CompleteRequest(const TraceContext& ctx,
                               const FlightRecord& record,
                               double queue_seconds,
                               std::string_view algorithm,
                               QueryProfile profile);

  const FlightRecorder& flight_recorder() const { return flight_; }
  std::vector<SlowQueryRecord> SlowQueries() const;
  const TraceStore& trace_store() const { return traces_; }
  PlanStore& plans() { return plans_; }
  const PlanStore& plans() const { return plans_; }
  ExemplarStore& exemplars() { return exemplars_; }
  const ExemplarStore& exemplars() const { return exemplars_; }

 private:
  struct AlgoHistograms {
    Histogram* latency_us = nullptr;
    Histogram* network_page_accesses = nullptr;
    Histogram* index_page_accesses = nullptr;
    Histogram* settled_nodes = nullptr;
    Histogram* cache_hits = nullptr;
  };
  const AlgoHistograms& HistogramsFor(std::string_view algorithm);
  // Pure threshold test (no counting, no log-capacity check).
  bool IsSlow(const FlightRecord& record) const;

  const TelemetryConfig config_;
  MetricsRegistry* const registry_;
  FlightRecorder flight_;
  TraceStore traces_;
  ExemplarStore exemplars_;
  PlanStore plans_;
  // Per-query pruning-power distributions
  // (msq_dominance_tests_{performed,avoided} in the Prometheus
  // exposition). Registered
  // lazily on the first RecordQuery so a disabled telemetry instance adds
  // no histograms to the registry; the registry hands back one stable
  // pointer per name, so a racing double-init stores the same value.
  std::atomic<Histogram*> performed_hist_{nullptr};
  std::atomic<Histogram*> avoided_hist_{nullptr};
  Counter* const queries_;
  Counter* const slow_queries_;
  Counter* const slow_captured_;
  Counter* const traces_retained_;
  Counter* const head_sampled_;
  std::atomic<std::uint64_t> head_counter_{0};

  std::mutex algos_mu_;
  std::map<std::string, AlgoHistograms, std::less<>> algos_;

  mutable std::mutex slow_mu_;
  std::deque<SlowQueryRecord> slow_log_;
};

}  // namespace msq::obs

#endif  // MSQ_OBS_TELEMETRY_H_
