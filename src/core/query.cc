#include "core/query.h"

#include <algorithm>
#include <chrono>

#include "common/check.h"

namespace msq {

DistVector Dataset::StaticAttributesOf(ObjectId id) const {
  if (static_dims() == 0) return {};
  MSQ_CHECK(id < static_attributes->size());
  return (*static_attributes)[id];
}

DistVector Dataset::MinStaticAttributes() const {
  const std::size_t dims = static_dims();
  if (dims == 0) return {};
  DistVector mins((*static_attributes)[0]);
  for (const DistVector& v : *static_attributes) {
    MSQ_CHECK(v.size() == dims);
    for (std::size_t i = 0; i < dims; ++i) {
      mins[i] = std::min(mins[i], v[i]);
    }
  }
  return mins;
}

Status ValidateQuery(const Dataset& dataset, const SkylineQuerySpec& spec) {
  // Missing dataset wiring is a programming error, not query input.
  MSQ_CHECK(dataset.network != nullptr && dataset.graph_pager != nullptr &&
            dataset.mapping != nullptr && dataset.object_rtree != nullptr);
  if (spec.sources.empty()) {
    return Status::InvalidArgument("query needs at least one source");
  }
  if (spec.lbc_source_index >= spec.sources.size()) {
    return Status::InvalidArgument(
        "lbc_source_index " + std::to_string(spec.lbc_source_index) +
        " out of range for " + std::to_string(spec.sources.size()) +
        " sources");
  }
  for (const Location& source : spec.sources) {
    if (!dataset.network->IsValidLocation(source)) {
      return Status::InvalidArgument(
          "query source (edge " + std::to_string(source.edge) + ", offset " +
          std::to_string(source.offset) + ") invalid");
    }
  }
  if (spec.limits.max_seconds < 0.0) {
    return Status::InvalidArgument("negative query deadline");
  }
  if (spec.limits.deadline_at < 0.0) {
    return Status::InvalidArgument("negative absolute deadline");
  }
  if (dataset.static_attributes != nullptr &&
      !dataset.static_attributes->empty()) {
    MSQ_CHECK(dataset.static_attributes->size() == dataset.object_count());
  }
  return Status();
}

namespace {

// Buffer lookups (graph + index, hits + misses) the calling thread has
// made. Workload attaches both pools to a query-stack role, so every page
// access of a query lands in its thread's block.
std::uint64_t ThreadPageAccesses() {
  const obs::ThreadCounters& tc = obs::ThreadLocalCounters();
  return tc.network_accesses() + tc.index_accesses();
}

}  // namespace

QueryGuard::QueryGuard(const QueryLimits& limits) : limits_(limits) {
  if (limits_.max_page_accesses > 0) accesses_0_ = ThreadPageAccesses();
  if (limits_.max_seconds > 0.0) start_ = MonotonicSeconds();
}

bool QueryGuard::Exceeded() {
  if (reason_ != StatusCode::kOk) return true;
  if (limits_.max_page_accesses > 0 &&
      ThreadPageAccesses() - accesses_0_ > limits_.max_page_accesses) {
    reason_ = StatusCode::kResourceExhausted;
    return true;
  }
  if (limits_.max_seconds > 0.0 &&
      MonotonicSeconds() - start_ > limits_.max_seconds) {
    reason_ = StatusCode::kDeadlineExceeded;
    return true;
  }
  if (limits_.deadline_at > 0.0 &&
      MonotonicSeconds() >= limits_.deadline_at) {
    reason_ = StatusCode::kDeadlineExceeded;
    return true;
  }
  return false;
}

double MonotonicSeconds() {
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration<double>(now).count();
}

StatsScope::StatsScope(obs::TraceSession* trace, std::string_view root_name)
    : current_session_(trace), root_span_(trace, root_name),
      counters_0_(obs::ThreadLocalCounters()),
      start_(MonotonicSeconds()) {}

void StatsScope::MarkInitial() {
  if (initial_ < 0.0) initial_ = MonotonicSeconds() - start_;
}

void StatsScope::Finish(QueryStats* stats) {
  // Close the root span first: everything the stats window counted is then
  // attributed to some span, and nothing after this call can leak in.
  root_span_.Close();
  stats->total_seconds = MonotonicSeconds() - start_;
  stats->initial_seconds = initial_ >= 0.0 ? initial_ : stats->total_seconds;
  // Every counter is a thread-local delta over the scope; cache
  // consultations are their own access class, never part of the pages.
  const obs::CounterSet delta = obs::ThreadLocalCounters() - counters_0_;
  static_cast<obs::CounterSet&>(*stats) = delta;
  stats->network_page_accesses = delta.network_accesses();
  stats->index_page_accesses = delta.index_accesses();
}

}  // namespace msq
