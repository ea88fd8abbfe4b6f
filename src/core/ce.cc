#include "core/ce.h"

#include <cmath>
#include <memory>

#include "cache/query_cache.h"
#include "common/check.h"
#include "graph/nn_stream.h"

namespace msq {
namespace {

// Opens one NN stream per query point, resuming each from the cross-query
// cache when a wavefront snapshot for its source is present. `resumes`
// records the consulted snapshots (null on miss) so the close path can
// tell whether a stream actually grew.
std::vector<std::unique_ptr<NetworkNnStream>> OpenStreams(
    const Dataset& dataset, const SkylineQuerySpec& spec,
    std::vector<QueryCache::WavefrontPtr>* resumes) {
  std::vector<std::unique_ptr<NetworkNnStream>> streams;
  streams.reserve(spec.sources.size());
  resumes->clear();
  for (const Location& source : spec.sources) {
    QueryCache::WavefrontPtr resume;
    if (dataset.cache != nullptr) {
      resume = dataset.cache->FindWavefront(
          source, dataset.graph_pager->data_epoch());
    }
    streams.push_back(std::make_unique<NetworkNnStream>(
        dataset.graph_pager, dataset.mapping, source, resume.get()));
    resumes->push_back(std::move(resume));
  }
  return streams;
}

// Checkpoints every stream back into the cache. Streams that resumed a
// snapshot and never expanded past it are skipped — re-storing an
// identical snapshot would only churn bytes and LRU order (the find
// already refreshed recency).
void StoreStreams(
    const Dataset& dataset, const SkylineQuerySpec& spec,
    const std::vector<std::unique_ptr<NetworkNnStream>>& streams,
    const std::vector<QueryCache::WavefrontPtr>& resumes) {
  if (dataset.cache == nullptr) return;
  for (std::size_t q = 0; q < streams.size(); ++q) {
    if (resumes[q] != nullptr &&
        streams[q]->settled_count() == resumes[q]->search.settled_count) {
      continue;
    }
    dataset.cache->StoreWavefront(spec.sources[q], streams[q]->MakeSnapshot(),
                                  dataset.graph_pager->data_epoch());
  }
}

// Per-query object state, flat and sized once for the m objects: row
// `id` of `dist` (stride n) holds the object's network distance to each
// query point, kInfDist until that stream has emitted it.
struct ObjectTable {
  ObjectTable(std::size_t m, std::size_t n)
      : n(n), dist(m * n, kInfDist), visits(m, 0), determined(m, 0) {}

  Dist* row(ObjectId id) { return dist.data() + id * n; }
  DistVector Vector(ObjectId id) const {
    return DistVector(dist.begin() + id * n, dist.begin() + (id + 1) * n);
  }

  std::size_t n;
  std::vector<Dist> dist;
  std::vector<std::uint32_t> visits;      // streams that emitted the object
  std::vector<std::uint8_t> determined;   // reported as skyline or pruned
};

// Generalized CE for datasets with static attributes. The two-phase
// paper formulation is wrong there: its filtering phase stops at the first
// object visited by all query points and discards everything unvisited as
// dominated — but with attribute dimensions an unvisited (farther) object
// can still win on attributes. This variant keeps the collaborative
// round-robin expansion and instead prunes each object individually, using
// the streams' emission radii as distance lower bounds plus the statically
// known attributes.
SkylineResult RunCeGeneralized(const Dataset& dataset,
                               const SkylineQuerySpec& spec,
                               const ProgressiveCallback& on_skyline) {
  obs::TraceSession* const trace = spec.trace;
  StatsScope scope(trace, "ce");
  SkylineResult result;
  QueryGuard guard(spec.limits);
  const std::size_t n = spec.sources.size();
  const std::size_t m = dataset.object_count();

  std::vector<QueryCache::WavefrontPtr> resumes;
  std::vector<std::unique_ptr<NetworkNnStream>> streams =
      OpenStreams(dataset, spec, &resumes);
  // Radius each resumed wavefront had already reached: emissions at or
  // inside it were answered by the cached snapshot, not fresh expansion
  // (plan cache-tier attribution; only consulted when a plan is taken).
  std::vector<Dist> resume_radius(n, -1.0);
  if (spec.plan != nullptr) {
    for (std::size_t q = 0; q < n; ++q) {
      if (resumes[q] != nullptr) {
        resume_radius[q] = CheckpointRadius(resumes[q]->search);
      }
    }
  }
  std::vector<bool> exhausted(n, false);
  // Emission radius per stream: a lower bound on every unvisited object's
  // distance to that query point.
  std::vector<Dist> radius(n, 0.0);

  ObjectTable objects(m, n);
  std::vector<std::uint8_t> visited(m, 0);
  std::size_t undetermined = m;
  // Every object not yet determined, in no particular order; prune_scan
  // compacts away the ones determined since the last scan.
  std::vector<ObjectId> open(m);
  for (ObjectId id = 0; id < m; ++id) open[id] = id;
  const std::vector<DistVector>& attributes = *dataset.static_attributes;
  MSQ_CHECK(attributes.size() >= m);

  std::vector<DistVector> skyline_vectors;

  auto full_vector = [&](ObjectId id) {
    DistVector vec = objects.Vector(id);
    vec.insert(vec.end(), attributes[id].begin(), attributes[id].end());
    return vec;
  };

  // Whether skyline vector `s` provably dominates object `id` given the
  // known distances, the per-stream radii, and the static attributes.
  auto provably_dominated = [&](const DistVector& s, ObjectId id) {
    const Dist* dist = objects.row(id);
    const DistVector& attrs = attributes[id];
    bool strict = false;
    for (std::size_t q = 0; q < n; ++q) {
      const Dist bound = std::isfinite(dist[q]) ? dist[q] : radius[q];
      if (s[q] > bound) return false;
      if (s[q] < bound) strict = true;
    }
    for (std::size_t j = 0; j < attrs.size(); ++j) {
      if (s[n + j] > attrs[j]) return false;
      if (s[n + j] < attrs[j]) strict = true;
    }
    return strict;
  };

  auto prune_scan = [&]() {
    obs::Span span(trace, "ce.prune");
    std::size_t kept = 0;
    for (const ObjectId id : open) {
      if (objects.determined[id]) continue;
      bool pruned = false;
      for (const DistVector& s : skyline_vectors) {
        if (provably_dominated(s, id)) {
          objects.determined[id] = 1;
          --undetermined;
          // Pruned on radius lower bounds before its vector was complete.
          CountBoundPruned();
          pruned = true;
          break;
        }
      }
      if (!pruned) open[kept++] = id;
    }
    open.resize(kept);
  };

  std::size_t turn = 0;
  std::size_t exhausted_count = 0;
  obs::Span expand_span(trace, "ce.expand");
  while (exhausted_count < n && undetermined > 0) {
    if (guard.Exceeded()) {
      // Progressive cut-off: everything already in result.skyline was
      // confirmed at emission, so the prefix stands.
      result.truncated = true;
      result.truncation_reason = guard.reason();
      break;
    }
    const std::size_t qi = turn % n;
    ++turn;
    if (exhausted[qi]) continue;
    const auto visit = streams[qi]->Next();
    if (!visit.has_value()) {
      exhausted[qi] = true;
      ++exhausted_count;
      continue;
    }
    radius[qi] = visit->distance;
    if (spec.plan != nullptr) {
      if (visit->distance <= resume_radius[qi]) {
        spec.plan->RecordWavefrontExact();
      } else {
        spec.plan->RecordComputed();
      }
    }
    if (dataset.cache != nullptr) {
      // Emissions are exact network distances — harvest into the memo for
      // the point-to-point paths EDC/LBC would otherwise recompute.
      dataset.cache->StoreDistance(spec.sources[qi], visit->object,
                                   visit->distance,
                                   dataset.graph_pager->data_epoch());
    }
    const ObjectId id = visit->object;
    if (!visited[id]) {
      visited[id] = 1;
      ++result.stats.candidate_count;
    }
    if (objects.determined[id]) continue;
    objects.row(id)[qi] = visit->distance;
    if (++objects.visits[id] == n) {
      objects.determined[id] = 1;
      --undetermined;
      // All n distances were resolved exactly: fully examined.
      CountBoundExamined();
      const DistVector vec = full_vector(id);
      bool dominated = false;
      for (std::size_t si = 0; si < skyline_vectors.size(); ++si) {
        if (Dominates(skyline_vectors[si], vec)) {
          CountDominanceAvoided(skyline_vectors.size() - si - 1);
          dominated = true;
          break;
        }
      }
      if (!dominated) {
        scope.MarkInitial();
        SkylineEntry entry;
        entry.object = id;
        entry.vector = vec;
        if (on_skyline) on_skyline(entry);
        result.skyline.push_back(entry);
        skyline_vectors.push_back(vec);
        prune_scan();
      }
    } else if ((turn & 63u) == 0) {
      // Radii grew; give unfinished objects a chance to be pruned so the
      // expansion can stop before full exhaustion.
      prune_scan();
    }
  }

  expand_span.Close();

  // Tie safety, as in the base variant.
  obs::Span finalize_span(trace, "ce.finalize");
  std::vector<SkylineEntry> filtered;
  for (const SkylineEntry& entry : result.skyline) {
    bool dominated = false;
    for (std::size_t oi = 0; oi < result.skyline.size(); ++oi) {
      const SkylineEntry& other = result.skyline[oi];
      if (other.object != entry.object &&
          Dominates(other.vector, entry.vector)) {
        CountDominanceAvoided(result.skyline.size() - oi - 1);
        dominated = true;
        break;
      }
    }
    if (!dominated) filtered.push_back(entry);
  }
  result.skyline = std::move(filtered);
  finalize_span.Close();

  result.stats.skyline_size = result.skyline.size();
  // QueryStats counts only this run's settles (a stream resumed from a
  // cached wavefront inherits the snapshot's settled set without paying
  // for it); the plan's per-source view reports the total extent.
  if (spec.plan != nullptr) {
    for (std::size_t q = 0; q < n; ++q) {
      spec.plan->RecordSource(q, streams[q]->settled_count(), radius[q],
                              resumes[q] != nullptr);
    }
  }
  StoreStreams(dataset, spec, streams, resumes);
  scope.Finish(&result.stats);
  return result;
}

// The paper's two-phase (filtering + refinement) CE for purely
// distance-dimension queries.
SkylineResult RunCeFiltering(const Dataset& dataset,
                             const SkylineQuerySpec& spec,
                             const ProgressiveCallback& on_skyline) {
  obs::TraceSession* const trace = spec.trace;
  StatsScope scope(trace, "ce");
  SkylineResult result;
  QueryGuard guard(spec.limits);

  const std::size_t n = spec.sources.size();
  const std::size_t m = dataset.object_count();

  std::vector<QueryCache::WavefrontPtr> resumes;
  std::vector<std::unique_ptr<NetworkNnStream>> streams =
      OpenStreams(dataset, spec, &resumes);
  // See RunCeGeneralized: cached-wavefront radius per resumed stream for
  // plan cache-tier attribution.
  std::vector<Dist> resume_radius(n, -1.0);
  if (spec.plan != nullptr) {
    for (std::size_t q = 0; q < n; ++q) {
      if (resumes[q] != nullptr) {
        resume_radius[q] = CheckpointRadius(resumes[q]->search);
      }
    }
  }
  std::vector<bool> exhausted(n, false);

  ObjectTable objects(m, n);
  std::vector<std::uint8_t> candidate(m, 0);  // member of C
  // Candidates not yet determined, in no particular order; determine()
  // compacts away the ones determined since its last sweep.
  std::vector<ObjectId> open;

  std::vector<DistVector> skyline_vectors;
  std::size_t candidates_open = 0;
  bool filtering = true;
  // Distance vector of the first skyline point (the object that ended the
  // filtering phase). Every object first encountered afterwards is
  // component-wise >= it, so such an object can only be skyline by tying
  // it exactly — the one tie case the paper's "simply discarded" rule
  // would lose.
  DistVector first_skyline_vec;

  // Whether complete skyline vector `s` provably dominates candidate `c`
  // given c's partially known distances. For an unknown dimension i,
  // dN(qi, c) >= s[i] holds because query point qi's stream emits in
  // ascending order and it has already emitted s — so it never contradicts
  // and is never certainly strict. True only when strict dominance is
  // certain.
  auto provably_dominates = [&](const DistVector& s, ObjectId c) {
    const Dist* dist = objects.row(c);
    bool strict = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (std::isfinite(dist[i])) {
        if (s[i] > dist[i]) return false;
        if (s[i] < dist[i]) strict = true;
      }
    }
    return strict;
  };

  // Handles an object whose distance vector just became complete: reports
  // it if undominated and prunes candidates it provably dominates.
  auto determine = [&](ObjectId id) {
    MSQ_CHECK(candidate[id] && !objects.determined[id]);
    objects.determined[id] = 1;
    --candidates_open;
    // Determination means every distance was resolved: fully examined.
    CountBoundExamined();
    const DistVector vec = objects.Vector(id);
    for (std::size_t si = 0; si < skyline_vectors.size(); ++si) {
      if (Dominates(skyline_vectors[si], vec)) {
        CountDominanceAvoided(skyline_vectors.size() - si - 1);
        return;  // dominated: silently pruned
      }
    }
    scope.MarkInitial();
    SkylineEntry entry;
    entry.object = id;
    entry.vector = vec;
    if (on_skyline) on_skyline(entry);
    result.skyline.push_back(entry);
    skyline_vectors.push_back(vec);

    // Prune the open candidates that the new skyline point provably
    // dominates.
    std::size_t kept = 0;
    for (const ObjectId c : open) {
      if (objects.determined[c]) continue;
      if (provably_dominates(vec, c)) {
        objects.determined[c] = 1;
        --candidates_open;
        // Pruned on partial distances + emission-order lower bounds.
        CountBoundPruned();
        continue;
      }
      open[kept++] = c;
    }
    open.resize(kept);
  };

  // Round-robin expansion over the query points. The filtering phase span
  // flips to refinement when the first complete object ends it.
  std::size_t turn = 0;
  std::size_t exhausted_count = 0;
  std::vector<Dist> last_emit(n, -1.0);
  obs::Span phase_span(trace, "ce.filter");
  while (exhausted_count < n) {
    if (guard.Exceeded()) {
      // Progressive cut-off: emitted entries were confirmed, keep them.
      result.truncated = true;
      result.truncation_reason = guard.reason();
      break;
    }
    const std::size_t qi = turn % n;
    ++turn;
    if (exhausted[qi]) continue;

    const auto visit = streams[qi]->Next();
    if (!visit.has_value()) {
      exhausted[qi] = true;
      ++exhausted_count;
      continue;
    }
    last_emit[qi] = visit->distance;
    if (spec.plan != nullptr) {
      if (visit->distance <= resume_radius[qi]) {
        spec.plan->RecordWavefrontExact();
      } else {
        spec.plan->RecordComputed();
      }
    }
    if (dataset.cache != nullptr) {
      // Exact emission distance — harvest into the cross-query memo.
      dataset.cache->StoreDistance(spec.sources[qi], visit->object,
                                   visit->distance,
                                   dataset.graph_pager->data_epoch());
    }

    const ObjectId id = visit->object;
    if (filtering) {
      // Every object encountered during filtering becomes a candidate.
      if (!candidate[id]) {
        candidate[id] = 1;
        open.push_back(id);
        ++candidates_open;
        ++result.stats.candidate_count;
      }
    } else if (!candidate[id]) {
      // Refinement phase: a new object is component-wise >= the first
      // skyline point, so unless this visit ties that point's distance it
      // is strictly dominated and discarded (the paper's rule); exact ties
      // stay live so co-located duplicates are not lost.
      if (visit->distance != first_skyline_vec[qi]) {
        if (!objects.determined[id]) {
          // First discard of this object: pruned on the emission-order
          // lower bound without ever becoming a candidate.
          objects.determined[id] = 1;
          CountBoundPruned();
        }
        continue;
      }
      // Already discarded through another stream: the strict-dominance
      // proof stands, an exact tie elsewhere cannot undo it.
      if (objects.determined[id]) continue;
      candidate[id] = 1;
      open.push_back(id);
      ++candidates_open;
    } else if (objects.determined[id]) {
      continue;
    }

    objects.row(id)[qi] = visit->distance;
    if (++objects.visits[id] == n) {
      if (filtering) {
        filtering = false;
        first_skyline_vec = objects.Vector(id);
        phase_span.Close();
        phase_span = obs::Span(trace, "ce.refine");
      }
      determine(id);
    }

    if (!filtering && candidates_open == 0) {
      // All candidates determined. Keep polling only while a stream could
      // still emit an exact tie of the first skyline point (a co-located
      // duplicate encountered after the filtering phase); once every
      // stream has moved strictly past that distance, nothing new can be
      // skyline.
      bool tie_possible = false;
      for (std::size_t q = 0; q < n; ++q) {
        if (!exhausted[q] && last_emit[q] <= first_skyline_vec[q]) {
          tie_possible = true;
          break;
        }
      }
      if (!tie_possible) break;
    }
  }

  // Streams exhausted with candidates still open: their vectors contain a
  // kInfDist component (unreachable from some query point), which the
  // library's skyline semantics exclude.

  phase_span.Close();

  // Tie safety: when two objects tie in some distance dimension, stream
  // emission order between them is arbitrary and a dominated object can
  // complete before its dominator. A final pairwise pass removes such
  // entries (a no-op in the generic, tie-free case).
  {
    obs::Span finalize_span(trace, "ce.finalize");
    std::vector<SkylineEntry> filtered;
    for (const SkylineEntry& entry : result.skyline) {
      bool dominated = false;
      for (const SkylineEntry& other : result.skyline) {
        if (other.object != entry.object &&
            Dominates(other.vector, entry.vector)) {
          dominated = true;
          break;
        }
      }
      if (!dominated) filtered.push_back(entry);
    }
    result.skyline = std::move(filtered);
  }
  result.stats.skyline_size = result.skyline.size();
  // As in the generalized path: the plan's per-source view reports the
  // full wavefront extent.
  if (spec.plan != nullptr) {
    for (std::size_t q = 0; q < n; ++q) {
      spec.plan->RecordSource(q, streams[q]->settled_count(),
                              std::max(last_emit[q], 0.0),
                              resumes[q] != nullptr);
    }
  }
  StoreStreams(dataset, spec, streams, resumes);
  scope.Finish(&result.stats);
  return result;
}

}  // namespace

SkylineResult RunCe(const Dataset& dataset, const SkylineQuerySpec& spec,
                    const ProgressiveCallback& on_skyline) {
  return RunQueryBody(dataset, spec, [&] {
    if (dataset.static_dims() > 0) {
      return RunCeGeneralized(dataset, spec, on_skyline);
    }
    return RunCeFiltering(dataset, spec, on_skyline);
  });
}

}  // namespace msq
