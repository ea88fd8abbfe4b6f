#include "cache/query_cache.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace msq {
namespace {

// Global cache.* metrics, cached once like the graph-layer counters.
struct CacheMetrics {
  obs::Counter* wavefront_hits;
  obs::Counter* wavefront_misses;
  obs::Counter* wavefront_inserts;
  obs::Counter* wavefront_evictions;
  obs::Counter* memo_hits;
  obs::Counter* memo_misses;
  obs::Counter* memo_inserts;
  obs::Counter* memo_evictions;
  obs::Counter* invalidations;
  obs::Gauge* bytes;
};

const CacheMetrics& Metrics() {
  static const CacheMetrics metrics = [] {
    obs::MetricsRegistry& reg = obs::GlobalMetrics();
    return CacheMetrics{
        reg.counter(&obs::CounterSet::cache_wavefront_hits),
        reg.counter(&obs::CounterSet::cache_wavefront_misses),
        reg.counter(obs::metric::kCacheWavefrontInserts),
        reg.counter(obs::metric::kCacheWavefrontEvictions),
        reg.counter(&obs::CounterSet::cache_memo_hits),
        reg.counter(&obs::CounterSet::cache_memo_misses),
        reg.counter(obs::metric::kCacheMemoInserts),
        reg.counter(obs::metric::kCacheMemoEvictions),
        reg.counter(obs::metric::kCacheInvalidations),
        reg.gauge(obs::metric::kCacheBytes),
    };
  }();
  return metrics;
}

std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Rough per-entry bookkeeping overhead (list node + hash slot).
constexpr std::size_t kEntryOverhead = 64;

}  // namespace

Dist CheckpointRadius(const DijkstraSearch::Checkpoint& checkpoint) {
  // The frontier heap may hold stale entries (re-labeled or settled since
  // pushed), but every labeled-unsettled node also has a live entry whose
  // dist equals its label. The radius is therefore the minimum label over
  // unsettled frontier nodes.
  Dist radius = kInfDist;
  for (const DijkstraSearch::HeapItem& item : checkpoint.frontier) {
    if (checkpoint.settled[item.node]) continue;
    radius = std::min(radius, checkpoint.dist[item.node]);
  }
  return radius;
}

WavefrontProbe ProbeCheckpoint(const RoadNetwork& network,
                               const DijkstraSearch::Checkpoint& checkpoint,
                               Dist radius, Location source, Location target) {
  const RoadNetwork::Edge& e = network.EdgeAt(target.edge);
  const auto [tu, tv] = network.EndpointDistances(target);

  // Every source->target path either runs along the shared edge or enters
  // the target edge through an endpoint.
  Dist exact_candidate = kInfDist;
  if (target.edge == source.edge) {
    exact_candidate = std::abs(target.offset - source.offset);
  }
  // Least possible cost of any route through a not-yet-settled endpoint.
  Dist unsettled_floor = kInfDist;

  const NodeId nodes[2] = {e.u, e.v};
  const Dist offsets[2] = {tu, tv};
  for (int i = 0; i < 2; ++i) {
    if (checkpoint.settled[nodes[i]]) {
      exact_candidate =
          std::min(exact_candidate, checkpoint.dist[nodes[i]] + offsets[i]);
    } else {
      unsettled_floor = std::min(unsettled_floor, radius + offsets[i]);
    }
  }

  WavefrontProbe probe;
  // Exact when the best fully-settled route cannot be undercut by anything
  // still beyond the frontier (<= is safe: equality means the unsettled
  // route can at best tie).
  probe.exact = exact_candidate <= unsettled_floor;
  probe.bound = std::min(exact_candidate, unsettled_floor);
  return probe;
}

QueryCache::QueryCache(QueryCacheConfig config)
    : config_(config),
      shard_budget_(config.max_bytes /
                    std::max<std::size_t>(1, config.shard_count)) {
  MSQ_CHECK(config_.shard_count > 0);
  shards_.reserve(config_.shard_count);
  for (std::size_t i = 0; i < config_.shard_count; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

std::size_t QueryCache::KeyHash::operator()(const Key& key) const {
  std::uint64_t offset_bits;
  static_assert(sizeof(offset_bits) == sizeof(key.offset));
  std::memcpy(&offset_bits, &key.offset, sizeof(offset_bits));
  std::uint64_t h = SplitMix64(key.edge);
  h = SplitMix64(h ^ offset_bits);
  h = SplitMix64(h ^ key.object);
  return static_cast<std::size_t>(h);
}

QueryCache::Key QueryCache::Canonical(const Location& source,
                                      ObjectId object) {
  Key key;
  key.edge = source.edge;
  // Normalize -0.0 so the two zero representations share one cache line.
  key.offset = source.offset == 0.0 ? 0.0 : source.offset;
  key.object = object;
  return key;
}

QueryCache::Shard& QueryCache::ShardFor(const Key& key) {
  return *shards_[KeyHash{}(key) % shards_.size()];
}

void QueryCache::AccountBytesDelta(std::ptrdiff_t delta) {
  const std::size_t now =
      bytes_.fetch_add(static_cast<std::size_t>(delta),
                       std::memory_order_relaxed) +
      static_cast<std::size_t>(delta);
  Metrics().bytes->Update(static_cast<double>(now));
}

void QueryCache::Insert(const Key& key, Entry entry) {
  const bool is_wavefront = entry.snapshot != nullptr;
  if (entry.bytes > shard_budget_) {
    // Would evict an entire shard and still not fit; refuse and count it
    // as an eviction so the refusal is visible.
    evictions_.fetch_add(1, std::memory_order_relaxed);
    (is_wavefront ? Metrics().wavefront_evictions : Metrics().memo_evictions)
        ->Inc();
    return;
  }

  Shard& shard = ShardFor(key);
  std::ptrdiff_t delta = 0;
  std::uint64_t evicted_wavefronts = 0;
  std::uint64_t evicted_memos = 0;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      delta -= static_cast<std::ptrdiff_t>(it->second->bytes);
      shard.bytes -= it->second->bytes;
      shard.lru.erase(it->second);
      shard.map.erase(it);
    }
    delta += static_cast<std::ptrdiff_t>(entry.bytes);
    shard.bytes += entry.bytes;
    shard.lru.push_front(std::move(entry));
    shard.map.emplace(key, shard.lru.begin());

    while (shard.bytes > shard_budget_ && shard.lru.size() > 1) {
      const Entry& victim = shard.lru.back();
      delta -= static_cast<std::ptrdiff_t>(victim.bytes);
      shard.bytes -= victim.bytes;
      if (victim.snapshot != nullptr) {
        ++evicted_wavefronts;
      } else {
        ++evicted_memos;
      }
      shard.map.erase(victim.key);
      shard.lru.pop_back();
    }
  }

  (is_wavefront ? wavefront_inserts_ : memo_inserts_)
      .fetch_add(1, std::memory_order_relaxed);
  (is_wavefront ? Metrics().wavefront_inserts : Metrics().memo_inserts)
      ->Inc();
  if (evicted_wavefronts + evicted_memos > 0) {
    evictions_.fetch_add(evicted_wavefronts + evicted_memos,
                         std::memory_order_relaxed);
    if (evicted_wavefronts > 0) {
      Metrics().wavefront_evictions->Inc(evicted_wavefronts);
    }
    if (evicted_memos > 0) Metrics().memo_evictions->Inc(evicted_memos);
  }
  if (delta != 0) AccountBytesDelta(delta);
}

QueryCache::WavefrontPtr QueryCache::FindWavefront(const Location& source,
                                                   std::uint64_t layout_epoch) {
  // Detail span (head-sampled queries only): shard lock + LRU touch.
  obs::Span probe_span = obs::DetailSpan("cache.wavefront_probe");
  const Key key = Canonical(source, kInvalidObject);
  Shard& shard = ShardFor(key);
  WavefrontPtr snapshot;
  bool dropped_stale = false;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      if (it->second->layout_epoch == layout_epoch) {
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        snapshot = it->second->snapshot;
      } else {
        // Stale layout: the snapshot's node numbering no longer matches
        // the pager. Miss, and drop the entry so it can't linger.
        shard.bytes -= it->second->bytes;
        AccountBytesDelta(-static_cast<std::ptrdiff_t>(it->second->bytes));
        shard.lru.erase(it->second);
        shard.map.erase(it);
        dropped_stale = true;
      }
    }
  }
  if (dropped_stale) {
    evictions_.fetch_add(1, std::memory_order_relaxed);
    Metrics().wavefront_evictions->Inc();
  }
  if (snapshot != nullptr) {
    wavefront_hits_.fetch_add(1, std::memory_order_relaxed);
    Metrics().wavefront_hits->Inc();
    ++obs::ThreadLocalCounters().cache_wavefront_hits;
  } else {
    wavefront_misses_.fetch_add(1, std::memory_order_relaxed);
    Metrics().wavefront_misses->Inc();
    ++obs::ThreadLocalCounters().cache_wavefront_misses;
  }
  return snapshot;
}

void QueryCache::StoreWavefront(const Location& source,
                                NetworkNnStream::Snapshot snapshot,
                                std::uint64_t layout_epoch) {
  Entry entry;
  entry.key = Canonical(source, kInvalidObject);
  entry.snapshot = std::make_shared<const NetworkNnStream::Snapshot>(
      std::move(snapshot));
  entry.bytes = entry.snapshot->bytes() + kEntryOverhead;
  entry.layout_epoch = layout_epoch;
  const Key key = entry.key;
  Insert(key, std::move(entry));
}

std::optional<Dist> QueryCache::FindDistance(const Location& source,
                                             ObjectId object,
                                             std::uint64_t layout_epoch) {
  obs::Span probe_span = obs::DetailSpan("cache.memo_probe");
  MSQ_CHECK(object != kInvalidObject);
  const Key key = Canonical(source, object);
  Shard& shard = ShardFor(key);
  std::optional<Dist> found;
  bool dropped_stale = false;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      if (it->second->layout_epoch == layout_epoch) {
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        found = it->second->dist;
      } else {
        shard.bytes -= it->second->bytes;
        AccountBytesDelta(-static_cast<std::ptrdiff_t>(it->second->bytes));
        shard.lru.erase(it->second);
        shard.map.erase(it);
        dropped_stale = true;
      }
    }
  }
  if (dropped_stale) {
    evictions_.fetch_add(1, std::memory_order_relaxed);
    Metrics().memo_evictions->Inc();
  }
  if (found.has_value()) {
    memo_hits_.fetch_add(1, std::memory_order_relaxed);
    Metrics().memo_hits->Inc();
    ++obs::ThreadLocalCounters().cache_memo_hits;
  } else {
    memo_misses_.fetch_add(1, std::memory_order_relaxed);
    Metrics().memo_misses->Inc();
    ++obs::ThreadLocalCounters().cache_memo_misses;
  }
  return found;
}

void QueryCache::StoreDistance(const Location& source, ObjectId object,
                               Dist dist, std::uint64_t layout_epoch) {
  MSQ_CHECK(object != kInvalidObject);
  Entry entry;
  entry.key = Canonical(source, object);
  entry.dist = dist;
  entry.bytes = sizeof(Entry) + kEntryOverhead;
  entry.layout_epoch = layout_epoch;
  const Key key = entry.key;
  Insert(key, std::move(entry));
}

void QueryCache::Invalidate() {
  std::ptrdiff_t delta = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    delta -= static_cast<std::ptrdiff_t>(shard->bytes);
    shard->bytes = 0;
    shard->map.clear();
    shard->lru.clear();
  }
  epoch_.fetch_add(1, std::memory_order_relaxed);
  invalidations_.fetch_add(1, std::memory_order_relaxed);
  Metrics().invalidations->Inc();
  if (delta != 0) AccountBytesDelta(delta);
}

QueryCache::Stats QueryCache::stats() const {
  Stats stats;
  stats.wavefront_hits = wavefront_hits_.load(std::memory_order_relaxed);
  stats.wavefront_misses = wavefront_misses_.load(std::memory_order_relaxed);
  stats.wavefront_inserts =
      wavefront_inserts_.load(std::memory_order_relaxed);
  stats.memo_hits = memo_hits_.load(std::memory_order_relaxed);
  stats.memo_misses = memo_misses_.load(std::memory_order_relaxed);
  stats.memo_inserts = memo_inserts_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  stats.invalidations = invalidations_.load(std::memory_order_relaxed);
  return stats;
}

std::size_t QueryCache::bytes() const {
  return bytes_.load(std::memory_order_relaxed);
}

}  // namespace msq
