// The per-query work counters, declared once.
//
// MSQ_QUERY_COUNTERS is the single table of the counters a query's work is
// measured in: the paper's network pages, settled nodes and dominance
// tests, plus buffer hits, index pages, the pruning-power counters
// (DESIGN.md §17) and cross-query cache consultations. Each row is
//
//   X(field, metric, unit, help)
//
// `field` is the member name everywhere the counter appears (CounterSet,
// the thread-local block, QueryStats, span self counters, flight records,
// plan totals, debug JSON keys); `metric` is the registry name of the
// process-wide twin the increment site also bumps (Prometheus mangles it,
// obs/export.h); `unit` and `help` document it (the `# HELP` line of the
// exposition).
//
// Adding a counter is one row here plus its increment site
// (`++obs::ThreadLocalCounters().<field>` next to the registry bump).
// QueryStats, spans, flight records, EXPLAIN plan totals, debug JSON,
// /metrics help and the reconciliation loops pick it up from the table
// (the served plan JSON keeps its fixed keys).
#ifndef MSQ_OBS_COUNTERS_H_
#define MSQ_OBS_COUNTERS_H_

#include <cstdint>
#include <string>
#include <string_view>

// clang-format off
#define MSQ_QUERY_COUNTERS(X)                                                 \
  X(network_pages, "buffer.network.misses", "pages",                          \
    "Network (adjacency) page buffer misses: physical reads, the paper's "    \
    "network pages accessed")                                                 \
  X(network_page_hits, "buffer.network.hits", "pages",                        \
    "Network page lookups served from the buffer pool")                       \
  X(index_pages, "buffer.index.misses", "pages",                              \
    "Index page (R-tree, B+-tree) buffer misses")                             \
  X(index_page_hits, "buffer.index.hits", "pages",                            \
    "Index page lookups served from the buffer pool")                         \
  X(settled_nodes, "graph.settled_nodes", "nodes",                            \
    "Network nodes settled by Dijkstra/A* wavefronts")                        \
  X(dominance_tests, "core.dominance_tests", "tests",                         \
    "Pairwise dominance tests performed")                                     \
  X(dominance_tests_avoided, "core.dominance_avoided", "tests",               \
    "Pairwise dominance tests a window early exit or a bound prune made "     \
    "unnecessary")                                                            \
  X(bound_pruned, "core.bound_pruned", "objects",                             \
    "Candidate objects a lower bound eliminated without exact distances")     \
  X(bound_examined, "core.bound_examined", "objects",                         \
    "Candidate objects whose exact distances had to be computed")             \
  X(bound_tightness_samples, "core.bound_tightness_samples", "samples",       \
    "Lower-bound tightness ratios (plb/dN) sampled at exact completions")     \
  X(bound_tightness_pct_sum, "core.bound_tightness_pct_sum", "percent",       \
    "Sum of the sampled tightness percents (mean = sum / samples)")           \
  X(cache_wavefront_hits, "cache.wavefront.hits", "lookups",                  \
    "Cross-query wavefront cache hits (never counted as page accesses)")      \
  X(cache_wavefront_misses, "cache.wavefront.misses", "lookups",              \
    "Cross-query wavefront cache misses")                                     \
  X(cache_memo_hits, "cache.memo.hits", "lookups",                            \
    "Cross-query exact-distance memo hits")                                   \
  X(cache_memo_misses, "cache.memo.misses", "lookups",                        \
    "Cross-query exact-distance memo misses")
// clang-format on

namespace msq::obs {

// One value per table row. Plain data; `+=` and `-` expand to one
// statement per row, so span boundaries and query windows pay straight-line
// adds, not a loop over the row table.
struct CounterSet {
#define MSQ_COUNTER_MEMBER(field, metric, unit, help) std::uint64_t field = 0;
  MSQ_QUERY_COUNTERS(MSQ_COUNTER_MEMBER)
#undef MSQ_COUNTER_MEMBER

  std::uint64_t network_accesses() const {
    return network_page_hits + network_pages;
  }
  std::uint64_t index_accesses() const { return index_page_hits + index_pages; }
  std::uint64_t cache_hits() const {
    return cache_wavefront_hits + cache_memo_hits;
  }
  std::uint64_t cache_misses() const {
    return cache_wavefront_misses + cache_memo_misses;
  }

  CounterSet& operator+=(const CounterSet& other) {
#define MSQ_COUNTER_ADD(field, metric, unit, help) field += other.field;
    MSQ_QUERY_COUNTERS(MSQ_COUNTER_ADD)
#undef MSQ_COUNTER_ADD
    return *this;
  }
};

// `a - b` row by row: the delta of a later snapshot `a` over `b`.
inline CounterSet operator-(const CounterSet& a, const CounterSet& b) {
  CounterSet d;
#define MSQ_COUNTER_SUB(field, metric, unit, help) d.field = a.field - b.field;
  MSQ_QUERY_COUNTERS(MSQ_COUNTER_SUB)
#undef MSQ_COUNTER_SUB
  return d;
}

// One table row, with the member it generates.
struct CounterField {
  std::string_view name;
  std::string_view metric;
  std::string_view unit;
  std::string_view help;
  std::uint64_t CounterSet::*member;
};

inline constexpr CounterField kCounterFields[] = {
#define MSQ_COUNTER_ROW(field, metric, unit, help) \
  {#field, metric, unit, help, &CounterSet::field},
    MSQ_QUERY_COUNTERS(MSQ_COUNTER_ROW)
#undef MSQ_COUNTER_ROW
};

// Registry name of a row, e.g. MetricName(&CounterSet::settled_nodes).
constexpr std::string_view MetricName(std::uint64_t CounterSet::*member) {
  for (const CounterField& f : kCounterFields) {
    if (f.member == member) return f.metric;
  }
  return {};
}

// The row whose registry name is `metric`, or null.
const CounterField* FindCounterByMetric(std::string_view metric);

// Appends `,"<field>":<value>` for every row — the counter members of a
// JSON object whose opening brace and first member the caller wrote.
void AppendCounterJson(std::string* out, const CounterSet& counters);

// Empty when `got` equals `want` on every row; otherwise
// "<prefix><field>: <got> != expected <want>" for the first row that
// differs. The reconciliation loop behind ReconcilePlan and msq_profile.
std::string FirstCounterMismatch(const CounterSet& got, const CounterSet& want,
                                 std::string_view prefix = {});

}  // namespace msq::obs

#endif  // MSQ_OBS_COUNTERS_H_
