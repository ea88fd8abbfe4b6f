#include "graph/astar.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "obs/metrics.h"

namespace msq {
namespace {

// Cached at load so the settle path pays one load + increment.
obs::Counter* const g_settled = obs::GlobalMetrics().counter(
    &obs::CounterSet::settled_nodes);
obs::Gauge* const g_heap_peak = obs::GlobalMetrics().gauge(
    obs::metric::kHeapPeak);

}  // namespace

AStarSearch::AStarSearch(const GraphPager* pager, Location source,
                         const LandmarkIndex* landmarks)
    : pager_(pager), source_(source), landmarks_(landmarks) {
  MSQ_CHECK(pager != nullptr);
  const RoadNetwork& network = pager->network();
  MSQ_CHECK(network.IsValidLocation(source));
  dist_.assign(network.node_count(), kInfDist);
  settled_.assign(network.node_count(), 0);

  const RoadNetwork::Edge& e = network.EdgeAt(source.edge);
  const auto [du, dv] = network.EndpointDistances(source);
  Improve(e.u, du);
  Improve(e.v, dv);
}

void AStarSearch::Improve(NodeId node, Dist dist) {
  if (settled_[node] || dist >= dist_[node]) return;
  if (dist_[node] == kInfDist) labeled_nodes_.push_back(node);
  dist_[node] = dist;
  log_.push_back(LabelEvent{node, dist});
}

void AStarSearch::Settle(NodeId node, Dist dist) {
  MSQ_CHECK(!settled_[node]);
  settled_[node] = 1;
  ++settled_count_;
  max_settled_dist_ = std::max(max_settled_dist_, dist);
  g_settled->Inc();
  ++obs::ThreadLocalCounters().settled_nodes;
  OkOrThrow(pager_->AdjacencyOf(node, &scratch_adjacency_));
  for (const AdjacencyEntry& adj : scratch_adjacency_) {
    Improve(adj.neighbor, dist + adj.length);
  }
}

AStarSearch::Probe AStarSearch::NewProbe(const Location& target) {
  return Probe(this, target);
}

Dist AStarSearch::DistanceTo(const Location& target) {
  return NewProbe(target).Run();
}

AStarSearch::Probe::Probe(AStarSearch* parent, const Location& target)
    : parent_(parent), target_(target) {
  const RoadNetwork& network = parent->pager_->network();
  MSQ_CHECK(network.IsValidLocation(target));
  target_point_ = network.LocationPosition(target);
  const RoadNetwork::Edge& e = network.EdgeAt(target.edge);
  end_u_ = e.u;
  end_v_ = e.v;
  const auto [tu, tv] = network.EndpointDistances(target);
  target_du_ = tu;
  target_dv_ = tv;
  direct_ = (target.edge == parent->source_.edge)
                ? std::abs(target.offset - parent->source_.offset)
                : kInfDist;
  // The initial plb is the Euclidean distance between source and target
  // (Section 4.3: "the initial path distance lower bound is the Euclidean
  // distance between vs and vd").
  plb_ = EuclideanDistance(
      network.LocationPosition(parent->source_), target_point_);
  if (parent->landmarks_ != nullptr) {
    plb_ = std::max(plb_,
                    parent->landmarks_->LowerBound(parent->source_, target));
  }
  if (direct_ < kInfDist) plb_ = std::min(plb_, direct_);

  // The frontier heap is built lazily on the first Advance() that needs
  // it: when both target endpoints are already settled the distance is
  // known without touching the frontier at all, which makes probes into
  // already-explored territory O(1) — the common case for LBC's
  // probe-per-(candidate, query point) pattern.
}

void AStarSearch::Probe::Seed() {
  MSQ_CHECK(!seeded_);
  seeded_ = true;
  // Seed from the compact labeled-node list with current labels; the event
  // log only needs to be followed from this point on.
  log_cursor_ = parent_->log_.size();
  for (const NodeId node : parent_->labeled_nodes_) {
    if (parent_->settled_[node]) continue;
    const Dist d = parent_->dist_[node];
    heap_.push(HeapItem{d + Heuristic(node), d, node});
  }
}

Dist AStarSearch::Probe::Heuristic(NodeId node) const {
  const Point& p = parent_->pager_->network().NodePosition(node);
  // Remaining distance to the target point is at least the straight-line
  // distance (edge lengths are >= endpoint Euclidean distances).
  Dist bound = EuclideanDistance(p, target_point_);
  if (parent_->landmarks_ != nullptr) {
    bound = std::max(bound,
                     parent_->landmarks_->LowerBound(node, target_));
  }
  return bound;
}

Dist AStarSearch::Probe::CurrentBestTarget() const {
  Dist best = direct_;
  if (parent_->settled_[end_u_]) {
    best = std::min(best, parent_->dist_[end_u_] + target_du_);
  }
  if (parent_->settled_[end_v_]) {
    best = std::min(best, parent_->dist_[end_v_] + target_dv_);
  }
  return best;
}

void AStarSearch::Probe::Sync() {
  while (log_cursor_ < parent_->log_.size()) {
    const LabelEvent& event = parent_->log_[log_cursor_++];
    if (parent_->settled_[event.node]) continue;
    heap_.push(HeapItem{event.dist + Heuristic(event.node), event.dist,
                        event.node});
  }
}

void AStarSearch::Probe::Clean() {
  while (!heap_.empty()) {
    const HeapItem& top = heap_.top();
    if (parent_->settled_[top.node] || top.d > parent_->dist_[top.node]) {
      heap_.pop();
      continue;
    }
    return;
  }
}

Dist AStarSearch::Probe::Advance() {
  if (done_) return plb_;
  if (!seeded_) {
    // Exactness shortcut: with both endpoints settled, every path to the
    // target enters through a node with a final label, so the best known
    // complete path is the exact distance and the frontier is irrelevant.
    if (parent_->settled_[end_u_] && parent_->settled_[end_v_]) {
      done_ = true;
      distance_ = CurrentBestTarget();
      plb_ = distance_;
      return plb_;
    }
    Seed();
  }
  Sync();
  Clean();

  const Dist best_target = CurrentBestTarget();
  if (heap_.empty() || heap_.top().f >= best_target) {
    // No remaining frontier node can begin a shorter path: the best known
    // complete path is the shortest (kInfDist when no path exists).
    done_ = true;
    distance_ = best_target;
    plb_ = best_target;
    return plb_;
  }

  const HeapItem top = heap_.top();
  heap_.pop();
  parent_->Settle(top.node, top.d);
  Sync();
  Clean();
  // Per-expansion granularity keeps the gauge off the relaxation path.
  g_heap_peak->Update(static_cast<double>(heap_.size()));
  obs::ThreadLocalCounters().UpdateHeap(static_cast<double>(heap_.size()));

  const Dist new_best = CurrentBestTarget();
  const Dist frontier_bound = heap_.empty() ? kInfDist : heap_.top().f;
  if (frontier_bound >= new_best) {
    done_ = true;
    distance_ = new_best;
    plb_ = new_best;
  } else {
    // The frontier minimum is a valid lower bound on dN(source, target);
    // it is non-decreasing under a consistent heuristic.
    plb_ = std::max(plb_, std::min(frontier_bound, new_best));
  }
  return plb_;
}

Dist AStarSearch::Probe::Run() {
  while (!done_) Advance();
  return distance_;
}

Dist AStarSearch::Probe::distance() const {
  MSQ_CHECK(done_);
  return distance_;
}

}  // namespace msq
