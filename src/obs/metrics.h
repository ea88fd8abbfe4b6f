// Named counter/gauge registry — the cross-layer observability substrate.
//
// Components (BufferManager, GraphPager, the Dijkstra/A* wavefronts, the
// dominance kernel) report into named metrics here, and obs/export.h dumps
// the whole registry as JSONL or Prometheus text.
//
// Counters sit behind a stable pointer and are striped: each one holds
// kSlots cache-line-aligned relaxed-atomic slots, Inc adds to the calling
// thread's slot and value() sums them. Concurrent workers bumping the same
// counter (every dominance test, every settled node) therefore write
// different cache lines instead of bouncing one line between cores, and
// the totals stay exact. The registry itself is thread-safe: concurrent
// queries running in a QueryExecutor pool all report into the same global
// registry.
//
// Per-thread attribution lives next to the global totals: ThreadCounters is
// a thread-local block the same hot paths bump alongside the registry.
// Because a query runs entirely on one worker thread, per-query deltas of
// the thread-local block are exact even while other workers hammer the
// shared pools — this is what keeps QueryStats and trace reconciliation
// (obs/trace.h) byte-exact per query under concurrency.
//
// Naming scheme (DESIGN.md §9): `<layer>.<component>.<event>`, e.g.
// `buffer.network.misses` or `graph.settled_nodes`.
#ifndef MSQ_OBS_METRICS_H_
#define MSQ_OBS_METRICS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "obs/counters.h"
#include "obs/histogram.h"

namespace msq::obs {

// Monotonically increasing event count. Thread-safe; relaxed ordering is
// sufficient because readers only consume totals/deltas, never ordering.
// Threads map round-robin onto the slots, so up to kSlots threads each own
// a cache line; beyond that, threads share slots and still count exactly.
class Counter {
 public:
  static constexpr std::size_t kSlots = 16;

  void Inc(std::uint64_t n = 1) {
    slots_[ThreadSlot()].value.fetch_add(n, std::memory_order_relaxed);
  }
  // Sum of the slots; concurrent increments may or may not be included.
  std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const Slot& slot : slots_) {
      total += slot.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> value{0};
  };

  // The calling thread's slot, assigned on its first increment.
  static std::size_t ThreadSlot() {
    thread_local const std::size_t slot = NextSlot();
    return slot;
  }
  static std::size_t NextSlot();

  Slot slots_[kSlots];
};

// Instantaneous level with a high-water mark. TraceSession scopes the peak
// to a span by saving/merging it around the span's lifetime. Thread-safe:
// Update publishes the level with a relaxed store and raises the peak via a
// CAS loop (concurrent peaks race benignly to the same maximum).
class Gauge {
 public:
  void Update(double value) {
    value_.store(value, std::memory_order_relaxed);
    RaiseToAtLeast(&peak_, value);
  }
  // Restarts peak tracking from the current level.
  void ResetPeak() {
    peak_.store(value_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
  }
  // Folds an externally saved peak back in (span unwinding).
  void MergePeak(double peak) { RaiseToAtLeast(&peak_, peak); }

  double value() const { return value_.load(std::memory_order_relaxed); }
  double peak() const { return peak_.load(std::memory_order_relaxed); }

 private:
  static void RaiseToAtLeast(std::atomic<double>* target, double value) {
    double current = target->load(std::memory_order_relaxed);
    while (value > current &&
           !target->compare_exchange_weak(current, value,
                                          std::memory_order_relaxed)) {
    }
  }

  std::atomic<double> value_{0.0};
  std::atomic<double> peak_{0.0};
};

// Find-or-create registry of named metrics. Returned pointers are stable
// for the registry's lifetime, so components cache them once and increment
// without lookups. find-or-create and iteration are mutex-guarded (they
// are off the hot path); the iteration callbacks must not call back into
// the same registry.
class MetricsRegistry {
 public:
  Counter* counter(std::string_view name);
  // The registry twin of a per-query counter (obs/counters.h), e.g.
  // counter(&CounterSet::settled_nodes).
  Counter* counter(std::uint64_t CounterSet::*field) {
    return counter(MetricName(field));
  }
  Gauge* gauge(std::string_view name);
  // Distribution metrics (obs/histogram.h); named `<...>_hist` by the §9
  // scheme. Same find-or-create and pointer-stability contract as counters.
  Histogram* histogram(std::string_view name);

  // Iteration in name order (export, tests).
  template <typename Fn>
  void ForEachCounter(Fn&& fn) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, counter] : counters_) fn(name, *counter);
  }
  template <typename Fn>
  void ForEachGauge(Fn&& fn) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, gauge] : gauges_) fn(name, *gauge);
  }
  template <typename Fn>
  void ForEachHistogram(Fn&& fn) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, histogram] : histograms_) fn(name, *histogram);
  }

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>>
      histograms_;
};

// The process-wide registry every built-in metric lives in. Components that
// exist once per role (the two buffer pools) register themselves under
// role-specific prefixes; per-instance structures (searches, pagers) share
// one counter per event kind.
MetricsRegistry& GlobalMetrics();

// Per-thread mirror of the per-query counters (obs/counters.h). The
// instrumented hot paths (BufferManager hits/misses via its attached role,
// wavefront settles, dominance tests, cache probes, the search-heap gauge)
// bump the calling thread's block in addition to the global registry. A
// query executes on exactly one thread, so deltas of this block taken
// around a query window count that query's work and nothing else — the
// substrate for per-query QueryStats, span attribution and flight records
// under a concurrent executor.
struct ThreadCounters : CounterSet {
  // Thread-scoped view of the core.heap_peak gauge, with the same
  // level+high-water semantics.
  double heap_value = 0.0;
  double heap_peak = 0.0;

  void UpdateHeap(double value) {
    heap_value = value;
    if (value > heap_peak) heap_peak = value;
  }
  void ResetHeapPeak() { heap_peak = heap_value; }
  void MergeHeapPeak(double peak) {
    if (peak > heap_peak) heap_peak = peak;
  }
};

// The calling thread's counter block.
ThreadCounters& ThreadLocalCounters();

// Well-known metric names beyond the per-query counters, whose registry
// names live in the obs/counters.h table (MetricName). The buffer prefixes
// are what Workload attaches its two pools under.
namespace metric {
inline constexpr char kNetworkBufferPrefix[] = "buffer.network";
inline constexpr char kIndexBufferPrefix[] = "buffer.index";
inline constexpr char kAdjacencyReads[] = "graph.pager.adjacency_reads";
inline constexpr char kHeapPeak[] = "core.heap_peak";
// Cross-query cache (src/cache/query_cache.h).
inline constexpr char kCacheWavefrontInserts[] = "cache.wavefront.inserts";
inline constexpr char kCacheWavefrontEvictions[] =
    "cache.wavefront.evictions";
inline constexpr char kCacheMemoInserts[] = "cache.memo.inserts";
inline constexpr char kCacheMemoEvictions[] = "cache.memo.evictions";
inline constexpr char kCacheInvalidations[] = "cache.invalidations";
inline constexpr char kCacheBytes[] = "cache.bytes";
// Serving telemetry (obs/telemetry.h). The per-query distribution
// histograms are per algorithm — `exec.<algo>.<event>_hist`, e.g.
// `exec.ce.latency_us_hist` — built from these suffixes.
inline constexpr char kExecQueries[] = "exec.queries";
inline constexpr char kExecSlowQueries[] = "exec.slow_queries";
inline constexpr char kExecSlowQueriesCaptured[] =
    "exec.slow_queries_captured";
// Tail-based trace sampling (obs/trace_store.h): completions whose trace
// survived the retention decision, and requests the head-rate coin picked
// at ingress (which get detail spans and guaranteed retention).
inline constexpr char kTracesRetained[] = "exec.traces_retained";
inline constexpr char kTracesHeadSampled[] = "exec.traces_head_sampled";
inline constexpr char kLatencyUsHist[] = "latency_us_hist";
inline constexpr char kNetworkPageAccessesHist[] =
    "network_page_accesses_hist";
inline constexpr char kIndexPageAccessesHist[] = "index_page_accesses_hist";
inline constexpr char kSettledNodesHist[] = "settled_nodes_hist";
inline constexpr char kCacheHitsHist[] = "cache_hits_hist";
// Pruning-power distributions (ISSUE: msq_bound_tightness and
// msq_dominance_tests_{performed,avoided} after Prometheus mangling).
// bound_tightness is fed one observation per sample at the
// instrumentation site; the dominance pair is per-query, observed by
// ServingTelemetry::RecordQuery.
inline constexpr char kBoundTightnessHist[] = "bound_tightness";
inline constexpr char kDominancePerformedHist[] =
    "dominance_tests.performed";
inline constexpr char kDominanceAvoidedHist[] = "dominance_tests.avoided";
}  // namespace metric

}  // namespace msq::obs

#endif  // MSQ_OBS_METRICS_H_
