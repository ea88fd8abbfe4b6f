#include "oracle.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <queue>
#include <thread>

#include "core/dominance.h"
#include "core/skyline_query.h"

namespace msqbench {

using msq::Dist;
using msq::Location;
using msq::ObjectId;

std::vector<ObjectId> SortedIds(
    const std::vector<msq::SkylineEntry>& skyline) {
  std::vector<ObjectId> ids;
  ids.reserve(skyline.size());
  for (const msq::SkylineEntry& entry : skyline) ids.push_back(entry.object);
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<Dist> BruteForceOracle::NodeDistances(
    const Location& source) const {
  const msq::RoadNetwork& network = workload_->network();
  std::vector<Dist> dist(network.node_count(), msq::kInfDist);
  using Item = std::pair<Dist, msq::NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  const msq::RoadNetwork::Edge& e = network.EdgeAt(source.edge);
  const auto [du, dv] = network.EndpointDistances(source);
  if (du < dist[e.u]) {
    dist[e.u] = du;
    heap.push({du, e.u});
  }
  if (dv < dist[e.v]) {
    dist[e.v] = dv;
    heap.push({dv, e.v});
  }
  while (!heap.empty()) {
    const auto [d, node] = heap.top();
    heap.pop();
    if (d > dist[node]) continue;
    for (const msq::AdjacencyEntry& adj : network.Adjacent(node)) {
      const Dist next = d + adj.length;
      if (next < dist[adj.neighbor]) {
        dist[adj.neighbor] = next;
        heap.push({next, adj.neighbor});
      }
    }
  }
  return dist;
}

std::shared_ptr<const std::vector<Dist>> BruteForceOracle::Distances(
    const Location& source) {
  if (!memoize_) {
    return std::make_shared<const std::vector<Dist>>(NodeDistances(source));
  }
  const auto key = std::make_pair(source.edge, source.offset);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = memo_.find(key);
    if (it != memo_.end()) return it->second;
  }
  auto dist =
      std::make_shared<const std::vector<Dist>>(NodeDistances(source));
  std::lock_guard<std::mutex> lock(mu_);
  return memo_.emplace(key, std::move(dist)).first->second;
}

void BruteForceOracle::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  memo_.clear();
}

std::vector<ObjectId> BruteForceOracle::SkylineIds(
    const std::vector<Location>& sources) {
  const msq::RoadNetwork& network = workload_->network();
  const msq::SpatialMapping& mapping = workload_->mapping();
  std::vector<std::shared_ptr<const std::vector<Dist>>> dists;
  for (const Location& source : sources) dists.push_back(Distances(source));

  std::vector<msq::DistVector> vectors;
  std::vector<ObjectId> ids;
  vectors.reserve(mapping.live_object_count());
  ids.reserve(mapping.live_object_count());
  for (ObjectId id = 0; id < mapping.object_count(); ++id) {
    if (!mapping.IsLive(id)) continue;
    const Location& loc = mapping.ObjectLocation(id);
    const msq::RoadNetwork::Edge& e = network.EdgeAt(loc.edge);
    const auto [to_u, to_v] = network.EndpointDistances(loc);
    msq::DistVector vec(sources.size());
    for (std::size_t q = 0; q < sources.size(); ++q) {
      const std::vector<Dist>& d = *dists[q];
      Dist best = std::min(d[e.u] + to_u, d[e.v] + to_v);
      if (loc.edge == sources[q].edge) {
        best = std::min(best, std::abs(to_u - sources[q].offset));
      }
      vec[q] = best;
    }
    vectors.push_back(std::move(vec));
    ids.push_back(id);
  }
  std::vector<ObjectId> skyline;
  for (const std::size_t idx : msq::SkylineIndices(vectors)) {
    skyline.push_back(ids[idx]);
  }
  std::sort(skyline.begin(), skyline.end());
  return skyline;
}

void ParallelFor(std::size_t n, std::size_t threads,
                 const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  auto body = [&] {
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      fn(i);
    }
  };
  std::vector<std::thread> pool;
  for (std::size_t t = 1; t < threads; ++t) pool.emplace_back(body);
  body();
  for (std::thread& thread : pool) thread.join();
}

bool CheckAnchor(msq::Workload* workload,
                 const std::vector<Location>& sources) {
  msq::SkylineQuerySpec spec;
  spec.sources = sources;
  const msq::SkylineResult naive =
      msq::RunSkylineQuery(msq::Algorithm::kNaive, workload->dataset(), spec);
  if (!naive.status.ok() || naive.truncated) return false;
  BruteForceOracle oracle(workload, /*memoize=*/false);
  return SortedIds(naive.skyline) == oracle.SkylineIds(sources);
}

}  // namespace msqbench
