#include "core/skyband.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <queue>

#include "common/check.h"
#include "core/naive.h"
#include "graph/astar.h"
#include "index/rtree.h"

namespace msq {
namespace {

// Dominator count of `vec` within `others`, capped at `cap` (counting
// beyond the cap never changes band membership).
// `vec` is an optimistic bound computed through a different FP path than
// the resolved vectors, so strictness uses the tie margin (dominance.h).
std::size_t CountDominators(const DistVector& vec,
                            const std::vector<DistVector>& others,
                            std::size_t cap) {
  std::size_t count = 0;
  for (const DistVector& other : others) {
    if (DominatesWithMargin(other, vec, kFpTieMargin)) {
      if (++count >= cap) break;
    }
  }
  return count;
}

}  // namespace

std::vector<std::pair<std::size_t, std::size_t>> SkybandIndices(
    const std::vector<DistVector>& vectors, std::size_t k) {
  MSQ_CHECK(k >= 1);
  std::vector<std::pair<std::size_t, std::size_t>> band;
  for (std::size_t i = 0; i < vectors.size(); ++i) {
    if (!AllFinite(vectors[i])) continue;
    std::size_t count = 0;
    for (std::size_t j = 0; j < vectors.size() && count < k; ++j) {
      if (j != i && AllFinite(vectors[j]) &&
          Dominates(vectors[j], vectors[i])) {
        ++count;
      }
    }
    if (count < k) band.emplace_back(i, count);
  }
  return band;
}

SkybandResult RunSkybandNaive(const Dataset& dataset,
                              const SkylineQuerySpec& spec, std::size_t k) {
  // Extension algorithms keep the abort-on-invalid contract; only the
  // paper's main entry points degrade gracefully.
  MSQ_CHECK(ValidateQuery(dataset, spec).ok());
  MSQ_CHECK(k >= 1);
  StatsScope scope(spec.trace, "skyband.naive");
  SkybandResult result;

  std::vector<DistVector> vectors = ComputeAllNetworkVectors(dataset, spec);
  if (dataset.static_dims() > 0) {
    for (ObjectId id = 0; id < vectors.size(); ++id) {
      const DistVector attrs = dataset.StaticAttributesOf(id);
      vectors[id].insert(vectors[id].end(), attrs.begin(), attrs.end());
    }
  }

  for (const auto& [idx, count] : SkybandIndices(vectors, k)) {
    SkybandResult::Entry entry;
    entry.object = static_cast<ObjectId>(idx);
    entry.vector = vectors[idx];
    entry.dominator_count = count;
    result.entries.push_back(std::move(entry));
  }
  std::sort(result.entries.begin(), result.entries.end(),
            [](const SkybandResult::Entry& a, const SkybandResult::Entry& b) {
              if (a.dominator_count != b.dominator_count) {
                return a.dominator_count < b.dominator_count;
              }
              return a.object < b.object;
            });
  result.stats.candidate_count = dataset.object_count();
  result.stats.skyline_size = result.entries.size();
  scope.Finish(&result.stats);
  return result;
}

SkybandResult RunSkybandLbc(const Dataset& dataset,
                            const SkylineQuerySpec& spec, std::size_t k) {
  // Extension algorithms keep the abort-on-invalid contract; only the
  // paper's main entry points degrade gracefully.
  MSQ_CHECK(ValidateQuery(dataset, spec).ok());
  MSQ_CHECK(k >= 1);
  StatsScope scope(spec.trace, "skyband.lbc");
  SkybandResult result;

  const std::size_t n = spec.sources.size();
  const std::size_t src = spec.lbc_source_index;
  const std::size_t attr_dims = dataset.static_dims();
  const DistVector min_attrs = dataset.MinStaticAttributes();

  std::vector<Point> query_points;
  query_points.reserve(n);
  for (const Location& source : spec.sources) {
    query_points.push_back(dataset.network->LocationPosition(source));
  }
  std::vector<std::unique_ptr<AStarSearch>> searches(n);
  auto search_for = [&](std::size_t qi) -> AStarSearch& {
    if (searches[qi] == nullptr) {
      searches[qi] = std::make_unique<AStarSearch>(
          dataset.graph_pager, spec.sources[qi], dataset.landmarks);
    }
    return *searches[qi];
  };

  // Every candidate's full vector, in ascending source-distance
  // resolution order. Dominators of a candidate resolve before it (ties
  // repaired by the final recount), so counting within this set is exact
  // whenever the count stays below k (see skyband.h).
  std::vector<DistVector> resolved;

  // Region prune: a subtree may be skipped only when k resolved vectors
  // jointly dominate its optimistic vector.
  auto prune = [&](const RTreeEntry& entry, bool is_leaf) {
    if (resolved.size() < k) return false;
    DistVector lb;
    lb.reserve(n + attr_dims);
    for (std::size_t i = 0; i < n; ++i) {
      lb.push_back(entry.mbr.MinDist(query_points[i]));
    }
    if (attr_dims > 0) {
      if (is_leaf) {
        const DistVector attrs = dataset.StaticAttributesOf(entry.id);
        lb.insert(lb.end(), attrs.begin(), attrs.end());
      } else {
        lb.insert(lb.end(), min_attrs.begin(), min_attrs.end());
      }
    }
    return CountDominators(lb, resolved, k) >= k;
  };
  RTreeNnBrowser browser(dataset.object_rtree, query_points[src], prune);

  struct SourceCandidate {
    Dist source_dist;
    ObjectId object;
    bool operator>(const SourceCandidate& other) const {
      return source_dist > other.source_dist;
    }
  };
  std::priority_queue<SourceCandidate, std::vector<SourceCandidate>,
                      std::greater<>>
      source_heap;
  bool browser_exhausted = false;

  auto next_network_nn = [&]() -> SourceCandidate {
    while (!browser_exhausted) {
      if (!source_heap.empty() &&
          source_heap.top().source_dist <= browser.PeekLowerBound()) {
        const SourceCandidate top = source_heap.top();
        source_heap.pop();
        return top;
      }
      const auto item = browser.Next();
      if (!item.found) {
        browser_exhausted = true;
        break;
      }
      ++result.stats.candidate_count;
      const Dist d_net = search_for(src).DistanceTo(
          dataset.mapping->ObjectLocation(item.id));
      if (std::isfinite(d_net)) {
        source_heap.push(SourceCandidate{d_net, item.id});
      }
    }
    if (!source_heap.empty()) {
      const SourceCandidate top = source_heap.top();
      source_heap.pop();
      return top;
    }
    return SourceCandidate{kInfDist, kInvalidObject};
  };

  std::vector<SkybandResult::Entry> provisional;
  for (;;) {
    const SourceCandidate cand = next_network_nn();
    if (cand.object == kInvalidObject) break;
    const Location& loc = dataset.mapping->ObjectLocation(cand.object);

    DistVector vec(n, 0.0);
    vec[src] = cand.source_dist;
    bool reachable = true;
    for (std::size_t i = 0; i < n; ++i) {
      if (i == src) continue;
      vec[i] = search_for(i).DistanceTo(loc);
      if (!std::isfinite(vec[i])) {
        reachable = false;
        break;
      }
    }
    if (!reachable) continue;
    const DistVector attrs = dataset.StaticAttributesOf(cand.object);
    vec.insert(vec.end(), attrs.begin(), attrs.end());

    SkybandResult::Entry entry;
    entry.object = cand.object;
    entry.vector = vec;
    provisional.push_back(std::move(entry));
    resolved.push_back(std::move(vec));
  }

  // Exact counts against the full resolved set (repairs tie ordering).
  for (SkybandResult::Entry& entry : provisional) {
    std::size_t count = 0;
    for (const DistVector& other : resolved) {
      if (Dominates(other, entry.vector)) ++count;
    }
    entry.dominator_count = count;
    if (count < k) result.entries.push_back(std::move(entry));
  }
  std::sort(result.entries.begin(), result.entries.end(),
            [](const SkybandResult::Entry& a, const SkybandResult::Entry& b) {
              if (a.dominator_count != b.dominator_count) {
                return a.dominator_count < b.dominator_count;
              }
              return a.object < b.object;
            });

  result.stats.skyline_size = result.entries.size();
  scope.Finish(&result.stats);
  return result;
}

}  // namespace msq
