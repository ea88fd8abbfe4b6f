#include "obs/plan.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <utility>

#include "core/query.h"

namespace msq::obs {
namespace {

void AppendF(std::string* out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n > 0) out->append(buf, static_cast<std::size_t>(n));
}

void AppendEscaped(std::string* out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          AppendF(out, "\\u%04x", c);
        } else {
          *out += c;
        }
    }
  }
}

}  // namespace

void PlanCollector::RecordSource(std::size_t source,
                                 std::uint64_t settled_nodes, double radius,
                                 bool resumed_from_cache) {
  for (PlanSourceProgress& existing : sources_) {
    if (existing.source == source) {
      existing.settled_nodes = settled_nodes;
      existing.radius = radius;
      existing.resumed_from_cache = resumed_from_cache;
      return;
    }
  }
  PlanSourceProgress progress;
  progress.source = source;
  progress.settled_nodes = settled_nodes;
  progress.radius = radius;
  progress.resumed_from_cache = resumed_from_cache;
  sources_.push_back(progress);
}

ExecutionPlan BuildExecutionPlan(std::string_view algorithm,
                                 const msq::QueryStats& stats,
                                 const QueryProfile* profile,
                                 const PlanCollector* collector,
                                 bool truncated) {
  ExecutionPlan plan;
  plan.algorithm = std::string(algorithm);
  plan.total_seconds = stats.total_seconds;
  plan.truncated = truncated;
  plan.counters = stats;
  plan.candidate_count = stats.candidate_count;
  plan.skyline_size = stats.skyline_size;
  if (collector != nullptr) {
    plan.bound_tightness = collector->tightness();
    plan.sources = collector->sources();
    plan.tiers = collector->tiers();
  }
  if (profile != nullptr && !profile->spans.empty()) {
    // Depth-1 spans (inclusive) plus the root's self counters partition
    // the root's inclusive totals — i.e. the query's totals — exactly.
    for (std::size_t i = 1; i < profile->spans.size(); ++i) {
      const SpanRecord& span = profile->spans[i];
      if (span.depth != 1) continue;
      PlanPhase phase;
      phase.name = span.name;
      phase.seconds = span.duration_seconds();
      phase.counters = profile->InclusiveCounters(i);
      plan.phases.push_back(std::move(phase));
    }
    PlanPhase rest;
    rest.name = "unattributed";
    rest.seconds = profile->spans[0].self_seconds();
    rest.counters = profile->spans[0].self;
    plan.phases.push_back(std::move(rest));
  }
  return plan;
}

std::string ReconcilePlan(const ExecutionPlan& plan,
                          const msq::QueryStats& stats) {
  std::string mismatch = FirstCounterMismatch(plan.counters, stats);
  if (!mismatch.empty()) return mismatch;
  auto differ = [&mismatch](const char* what, std::uint64_t got,
                            std::uint64_t want) {
    if (got == want) return false;
    mismatch = std::string(what) + ": " + std::to_string(got) +
               " != expected " + std::to_string(want);
    return true;
  };
  if (differ("candidate_count", plan.candidate_count,
             stats.candidate_count) ||
      differ("skyline_size", plan.skyline_size, stats.skyline_size) ||
      differ("network_page_accesses", plan.counters.network_accesses(),
             stats.network_page_accesses) ||
      differ("index_page_accesses", plan.counters.index_accesses(),
             stats.index_page_accesses) ||
      // The histogram was filled by the collector, the sample counters by
      // the thread-local substrate — two independent paths that must agree.
      differ("tightness histogram count", plan.bound_tightness.count,
             stats.bound_tightness_samples) ||
      differ("tightness histogram sum", plan.bound_tightness.sum,
             stats.bound_tightness_pct_sum)) {
    return mismatch;
  }
  if (plan.phases.empty()) return std::string();
  CounterSet rollup;
  for (const PlanPhase& phase : plan.phases) rollup += phase.counters;
  return FirstCounterMismatch(rollup, stats, "phase ");
}

std::string PlanJson(const ExecutionPlan& plan) {
  std::string out = "{\"algorithm\":\"";
  AppendEscaped(&out, plan.algorithm);
  AppendF(&out, "\",\"total_seconds\":%.6f,\"truncated\":%s",
          plan.total_seconds, plan.truncated ? "true" : "false");
  AppendF(&out,
          ",\"dominance_tests\":{\"performed\":%" PRIu64
          ",\"avoided\":%" PRIu64 "}",
          plan.counters.dominance_tests,
          plan.counters.dominance_tests_avoided);
  AppendF(&out,
          ",\"bounds\":{\"pruned\":%" PRIu64 ",\"examined\":%" PRIu64
          ",\"tightness\":{\"samples\":%" PRIu64 ",\"mean_pct\":%.1f,"
          "\"histogram\":[",
          plan.counters.bound_pruned, plan.counters.bound_examined,
          plan.counters.bound_tightness_samples, plan.mean_tightness_pct());
  bool first = true;
  for (std::size_t i = 0; i < Histogram::kBucketCount; ++i) {
    if (plan.bound_tightness.buckets[i] == 0) continue;
    if (!first) out += ",";
    first = false;
    AppendF(&out, "{\"le\":%" PRIu64 ",\"count\":%" PRIu64 "}",
            Histogram::BucketUpper(i), plan.bound_tightness.buckets[i]);
  }
  out += "]}}";
  AppendF(&out,
          ",\"pages\":{\"network_accesses\":%" PRIu64
          ",\"index_accesses\":%" PRIu64 "},\"settled_nodes\":%" PRIu64,
          plan.counters.network_accesses(), plan.counters.index_accesses(),
          plan.counters.settled_nodes);
  AppendF(&out,
          ",\"cache\":{\"hits\":%" PRIu64 ",\"misses\":%" PRIu64
          ",\"lookup_tiers\":{\"memo\":%" PRIu64 ",\"wavefront\":%" PRIu64
          ",\"computed\":%" PRIu64 "}}",
          plan.counters.cache_hits(), plan.counters.cache_misses(),
          plan.tiers.memo_hits,
          plan.tiers.wavefront_exact, plan.tiers.computed);
  AppendF(&out, ",\"candidates\":%" PRIu64 ",\"skyline_size\":%" PRIu64,
          plan.candidate_count, plan.skyline_size);
  out += ",\"phases\":[";
  for (std::size_t i = 0; i < plan.phases.size(); ++i) {
    const PlanPhase& phase = plan.phases[i];
    if (i > 0) out += ",";
    out += "{\"name\":\"";
    AppendEscaped(&out, phase.name);
    AppendF(&out,
            "\",\"seconds\":%.6f,\"network_page_accesses\":%" PRIu64
            ",\"index_page_accesses\":%" PRIu64 ",\"settled_nodes\":%" PRIu64
            ",\"dominance_tests\":%" PRIu64 ",\"dominance_avoided\":%" PRIu64
            ",\"bound_pruned\":%" PRIu64 ",\"bound_examined\":%" PRIu64
            ",\"cache_hits\":%" PRIu64 "}",
            phase.seconds, phase.counters.network_accesses(),
            phase.counters.index_accesses(), phase.counters.settled_nodes,
            phase.counters.dominance_tests,
            phase.counters.dominance_tests_avoided,
            phase.counters.bound_pruned, phase.counters.bound_examined,
            phase.counters.cache_hits());
  }
  out += "],\"sources\":[";
  for (std::size_t i = 0; i < plan.sources.size(); ++i) {
    const PlanSourceProgress& source = plan.sources[i];
    if (i > 0) out += ",";
    AppendF(&out,
            "{\"source\":%zu,\"settled_nodes\":%" PRIu64
            ",\"radius\":%.6f,\"resumed_from_cache\":%s}",
            source.source, source.settled_nodes, source.radius,
            source.resumed_from_cache ? "true" : "false");
  }
  out += "]}";
  return out;
}

void PlanStore::Retain(RetainedPlan plan) {
  std::lock_guard<std::mutex> lock(mu_);
  plans_.push_back(std::move(plan));
  ++retained_total_;
  while (plans_.size() > capacity_) plans_.pop_front();
}

std::vector<RetainedPlan> PlanStore::Snapshot() const {
  std::vector<RetainedPlan> plans;
  {
    std::lock_guard<std::mutex> lock(mu_);
    plans.assign(plans_.begin(), plans_.end());
  }
  // Workers retain in whatever order they finish their completion path,
  // which can differ from the flight-sequence order; report by sequence.
  std::stable_sort(plans.begin(), plans.end(),
                   [](const RetainedPlan& a, const RetainedPlan& b) {
                     return a.sequence < b.sequence;
                   });
  return plans;
}

void PlanStore::Account(std::string_view algorithm,
                        const msq::QueryStats& stats) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = aggregates_.find(algorithm);
  if (it == aggregates_.end()) {
    it = aggregates_.emplace(std::string(algorithm), PlanAggregate{}).first;
  }
  ++it->second.queries;
  it->second.counters += stats;
  ++accounted_total_;
}

std::vector<std::pair<std::string, PlanAggregate>> PlanStore::Aggregates()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<std::pair<std::string, PlanAggregate>>(
      aggregates_.begin(), aggregates_.end());
}

std::uint64_t PlanStore::retained_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return retained_total_;
}

std::uint64_t PlanStore::accounted_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return accounted_total_;
}

std::string ExplainzJson(const PlanStore& store) {
  const std::vector<std::pair<std::string, PlanAggregate>> aggregates =
      store.Aggregates();
  const std::vector<RetainedPlan> plans = store.Snapshot();
  std::string out = "{\"pruning_efficiency\":[";
  bool first = true;
  auto ratio = [](std::uint64_t part, std::uint64_t whole) {
    return whole == 0 ? 0.0
                      : static_cast<double>(part) / static_cast<double>(whole);
  };
  for (const auto& [algo, agg] : aggregates) {
    if (!first) out += ",";
    first = false;
    const CounterSet& c = agg.counters;
    out += "{\"algorithm\":\"";
    AppendEscaped(&out, algo);
    AppendF(&out,
            "\",\"queries\":%" PRIu64 ",\"dominance_tests\":%" PRIu64
            ",\"dominance_avoided\":%" PRIu64 ",\"avoided_ratio\":%.4f"
            ",\"bound_pruned\":%" PRIu64 ",\"bound_examined\":%" PRIu64
            ",\"prune_ratio\":%.4f,\"mean_tightness_pct\":%.1f}",
            agg.queries, c.dominance_tests, c.dominance_tests_avoided,
            ratio(c.dominance_tests_avoided,
                  c.dominance_tests + c.dominance_tests_avoided),
            c.bound_pruned, c.bound_examined,
            ratio(c.bound_pruned, c.bound_pruned + c.bound_examined),
            ratio(c.bound_tightness_pct_sum, c.bound_tightness_samples));
  }
  out += "],\"plans\":[";
  for (std::size_t i = 0; i < plans.size(); ++i) {
    if (i > 0) out += ",";
    AppendF(&out, "{\"sequence\":%" PRIu64 ",\"trace_id\":\"",
            plans[i].sequence);
    AppendEscaped(&out, plans[i].trace_id);
    out += "\",\"plan\":";
    out += PlanJson(plans[i].plan);
    out += "}";
  }
  out += "]}";
  return out;
}

}  // namespace msq::obs
