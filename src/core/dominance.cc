#include "core/dominance.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "obs/metrics.h"

namespace msq {
namespace {

// Cached at load: Dominates is the innermost loop of every skyline filter,
// so the count costs one load + increment per call.
obs::Counter* const g_dominance_tests = obs::GlobalMetrics().counter(
    &obs::CounterSet::dominance_tests);
obs::Counter* const g_dominance_avoided = obs::GlobalMetrics().counter(
    &obs::CounterSet::dominance_tests_avoided);
obs::Counter* const g_bound_pruned = obs::GlobalMetrics().counter(
    &obs::CounterSet::bound_pruned);
obs::Counter* const g_bound_examined = obs::GlobalMetrics().counter(
    &obs::CounterSet::bound_examined);
obs::Counter* const g_bound_samples = obs::GlobalMetrics().counter(
    &obs::CounterSet::bound_tightness_samples);
obs::Counter* const g_bound_pct_sum = obs::GlobalMetrics().counter(
    &obs::CounterSet::bound_tightness_pct_sum);
obs::Histogram* const g_bound_tightness = obs::GlobalMetrics().histogram(
    obs::metric::kBoundTightnessHist);

}  // namespace

namespace {

// Every test bumps the global counter and the calling thread's block so
// per-query attribution stays exact under the concurrent executor.
inline void CountDominanceTest() {
  g_dominance_tests->Inc();
  ++obs::ThreadLocalCounters().dominance_tests;
}

}  // namespace

void CountDominanceAvoided(std::uint64_t n) {
  if (n == 0) return;
  g_dominance_avoided->Inc(n);
  obs::ThreadLocalCounters().dominance_tests_avoided += n;
}

void CountBoundPruned(std::uint64_t n) {
  if (n == 0) return;
  g_bound_pruned->Inc(n);
  obs::ThreadLocalCounters().bound_pruned += n;
}

void CountBoundExamined(std::uint64_t n) {
  if (n == 0) return;
  g_bound_examined->Inc(n);
  obs::ThreadLocalCounters().bound_examined += n;
}

unsigned RecordBoundTightness(Dist bound, Dist exact) {
  // A zero exact distance (object on the query point) is only reachable
  // with a zero bound; call that perfectly tight rather than dividing.
  double ratio = exact > 0.0 ? static_cast<double>(bound) / exact : 1.0;
  if (ratio < 0.0) ratio = 0.0;
  if (ratio > 1.0) ratio = 1.0;  // FP drift: a bound never exceeds exact
  const unsigned pct = static_cast<unsigned>(ratio * 100.0 + 0.5);
  g_bound_samples->Inc();
  g_bound_pct_sum->Inc(pct);
  g_bound_tightness->Observe(pct);
  obs::ThreadCounters& tc = obs::ThreadLocalCounters();
  ++tc.bound_tightness_samples;
  tc.bound_tightness_pct_sum += pct;
  return pct;
}

bool Dominates(const DistVector& a, const DistVector& b) {
  MSQ_CHECK(a.size() == b.size());
  CountDominanceTest();
  bool strict = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] > b[i]) return false;
    if (a[i] < b[i]) strict = true;
  }
  return strict;
}

bool DominatesOrEqual(const DistVector& a, const DistVector& b) {
  MSQ_CHECK(a.size() == b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] > b[i]) return false;
  }
  return true;
}

bool DominatesWithMargin(const DistVector& a, const DistVector& b,
                         double margin) {
  MSQ_CHECK(a.size() == b.size());
  CountDominanceTest();
  bool strict = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] > b[i]) return false;
    if (a[i] < b[i] - margin) strict = true;
  }
  return strict;
}

bool AllFinite(const DistVector& v) {
  for (const Dist d : v) {
    if (!std::isfinite(d)) return false;
  }
  return true;
}

DistSummary Summarize(const DistVector& v) {
  DistSummary s;
  if (v.empty()) return s;
  s.min = v[0];
  s.max = v[0];
  for (std::size_t i = 1; i < v.size(); ++i) {
    s.min = std::min(s.min, v[i]);
    s.max = std::max(s.max, v[i]);
  }
  return s;
}

bool DominatesWithSummary(const DistVector& a, const DistSummary& sa,
                          const DistVector& b, const DistSummary& sb) {
  MSQ_CHECK(a.size() == b.size());
  // a <= b component-wise forces min(a) <= min(b) and max(a) <= max(b);
  // the contrapositive refutes dominance without touching the components.
  if (sa.min > sb.min || sa.max > sb.max) {
    CountDominanceTest();
    return false;
  }
  return Dominates(a, b);
}

std::vector<std::size_t> SkylineIndices(
    const std::vector<DistVector>& vectors) {
  std::vector<std::size_t> window;
  std::vector<DistSummary> window_summaries;  // parallel to `window`
  for (std::size_t i = 0; i < vectors.size(); ++i) {
    if (!AllFinite(vectors[i])) continue;
    const DistSummary si = Summarize(vectors[i]);
    bool dominated = false;
    for (std::size_t w = 0; w < window.size();) {
      if (DominatesWithSummary(vectors[window[w]], window_summaries[w],
                               vectors[i], si)) {
        dominated = true;
        // Early exit: the rest of the window never gets compared against
        // this candidate.
        CountDominanceAvoided(window.size() - w - 1);
        break;
      }
      if (DominatesWithSummary(vectors[i], si, vectors[window[w]],
                               window_summaries[w])) {
        window[w] = window.back();
        window.pop_back();
        window_summaries[w] = window_summaries.back();
        window_summaries.pop_back();
        continue;
      }
      ++w;
    }
    if (!dominated) {
      window.push_back(i);
      window_summaries.push_back(si);
    }
  }
  std::sort(window.begin(), window.end());
  return window;
}

}  // namespace msq
