// Thread-safe lock-striped LRU buffer pool in front of a DiskManager.
//
// The paper's setup: "The disk page size is set to 4KB and a 1MB LRU buffer
// is used in all experiments." Buffer misses are the "disk pages accessed"
// reported in Figures 5 and 6.
//
// Concurrency model (DESIGN.md §10): the pool is sharded by PageId into S
// shards, each owning its private mutex, LRU list, and hash table, so
// concurrent queries running in a QueryExecutor pool contend only when they
// touch pages of the same shard. Fetch returns a PageGuard — an RAII pin on
// the frame. Pinned frames are never evicted, and the guarded pointer stays
// valid for exactly the guard's lifetime (this replaces the historical
// single-threaded "pointer valid until next Fetch" contract). The paged
// structures above (GraphPager, RTree, BpTree) hold the guard only while
// copying the record out of the page. Pins are raised under the shard
// mutex but dropped without it (an atomic release decrement), and every
// statistic is counted per shard under the mutex Fetch already holds, so
// the per-page path touches no cache line outside its own shard.
//
// All operations that touch the disk return Status/StatusOr: a failed read
// is reported to the caller instead of caching garbage, and a failed
// writeback keeps the dirty frame resident so no acknowledged write is
// silently dropped. Transient (kUnavailable) disk errors are retried per
// RetryPolicy — with an exponential backoff sleep between attempts when
// RetryPolicy::backoff_micros is nonzero — before surfacing.
#ifndef MSQ_STORAGE_BUFFER_MANAGER_H_
#define MSQ_STORAGE_BUFFER_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "storage/disk_manager.h"
#include "storage/page.h"

namespace msq {

// The experiment default: 1 MB of 4 KB frames.
inline constexpr std::size_t kDefaultBufferFrames = (1 << 20) / kPageSize;

// Cumulative buffer statistics (a snapshot summed over the shards, whose
// live counts are kept under each shard's mutex).
struct BufferStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;      // == physical page reads
  std::uint64_t evictions = 0;
  std::uint64_t dirty_writebacks = 0;
  std::uint64_t read_retries = 0;   // transient read faults retried
  std::uint64_t write_retries = 0;  // transient write faults retried
  std::uint64_t failed_reads = 0;   // reads that failed after retries
  std::uint64_t failed_writebacks = 0;  // writebacks that failed after retries

  std::uint64_t accesses() const { return hits + misses; }

  BufferStats& operator+=(const BufferStats& other);
};

// Cross-shard balance snapshot (diagnostics for the lock-striping design:
// a hot shard serializes its callers, so skew here is the first thing to
// check when multi-core scaling stalls). Occupancy counts resident pages
// per shard; accesses counts cumulative Fetch calls per shard. Ratios are
// max over min with the min clamped to 1, so an empty pool reads as
// perfectly balanced rather than dividing by zero.
struct ShardBalanceStats {
  std::size_t shard_count = 0;
  std::size_t min_occupancy = 0;
  std::size_t max_occupancy = 0;
  std::uint64_t min_accesses = 0;
  std::uint64_t max_accesses = 0;
  double occupancy_ratio = 1.0;
  double access_ratio = 1.0;
};

// How the pool reacts to transient (kUnavailable) disk errors. Permanent
// errors (kIoError, kCorruption, kInvalidArgument) are never retried — a
// checksum mismatch does not heal on re-read from the same cold medium.
struct RetryPolicy {
  // Total attempts per physical read/write, including the first.
  int max_read_attempts = 3;
  int max_write_attempts = 3;
  // Base sleep between attempts, doubled per retry (attempt k sleeps
  // backoff_micros << (k-1)). Zero (default) keeps tests and benchmarks
  // fast; real deployments use a small exponential backoff.
  std::uint64_t backoff_micros = 0;
};

// Which query-stack role a pool serves; set by AttachMetrics from the
// well-known prefixes. Role-attached pools additionally bump the calling
// thread's obs::ThreadCounters on every hit/miss, which is what gives each
// concurrent query exact private page-access counts (core/query.h).
enum class BufferRole { kNone, kNetwork, kIndex };

class BufferManager;

// RAII pin on one pooled frame. While any guard on a frame is live the
// frame is never evicted and its Page* stays valid; destruction (or
// Release) unpins. Movable, not copyable. Guards are cheap but hold pool
// capacity — hold one only while copying a record out of the page.
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;
  PageGuard(PageGuard&& other) noexcept { MoveFrom(other); }
  PageGuard& operator=(PageGuard&& other) noexcept {
    if (this != &other) {
      Release();
      MoveFrom(other);
    }
    return *this;
  }
  ~PageGuard() { Release(); }

  // The pinned in-pool page image. Null iff !valid().
  Page* page() const { return page_; }
  Page* operator->() const { return page_; }
  Page& operator*() const { return *page_; }
  PageId id() const { return id_; }
  bool valid() const { return page_ != nullptr; }
  explicit operator bool() const { return valid(); }

  // Unpins now instead of at destruction.
  void Release();

 private:
  friend class BufferManager;
  PageGuard(void* frame, Page* page, PageId id)
      : frame_(frame), page_(page), id_(id) {}

  void MoveFrom(PageGuard& other) {
    frame_ = other.frame_;
    page_ = other.page_;
    id_ = other.id_;
    other.frame_ = nullptr;
    other.page_ = nullptr;
    other.id_ = kInvalidPage;
  }

  void* frame_ = nullptr;  // BufferManager::Frame*, opaque to callers
  Page* page_ = nullptr;
  PageId id_ = kInvalidPage;
};

// Sharded thread-safe LRU buffer pool. Fetch/AllocatePage/stats are safe to
// call from any number of threads. FlushAll/Clear/ResetStats iterate the
// shards consistently but assume no concurrent *writers* of pinned pages
// (benchmarks and builders call them from quiescent points).
class BufferManager {
 public:
  // `frames` is the pool capacity in pages; must be >= 1. `shards` of 0
  // picks one shard per 8 frames, clamped to [1, 16] — small pools (unit
  // tests asserting exact LRU order) get a single shard, the experiment
  // default of 256 frames gets 16. The manager does not own `disk`.
  BufferManager(DiskManager* disk, std::size_t frames,
                RetryPolicy retry = RetryPolicy{}, std::size_t shards = 0);

  BufferManager(const BufferManager&) = delete;
  BufferManager& operator=(const BufferManager&) = delete;

  // Returns a pinned guard on the in-pool image of page `id`, reading it
  // from disk on a miss and evicting the shard's least-recently-used
  // unpinned frame if the shard is full (a shard whose frames are all
  // pinned overflows temporarily and shrinks back on later fetches).
  // If `mark_dirty` is true the page is written back before eviction.
  // Fails when the miss read fails (after retries) or when making room
  // requires a writeback that fails; the pool is left unchanged on failure.
  StatusOr<PageGuard> Fetch(PageId id, bool mark_dirty = false);

  // Allocates a fresh page on disk and returns a pinned guard on its pooled
  // image (dirty); guard.id() is the new page's id. Not thread-safe against
  // other AllocatePage calls — allocation happens at build time or under
  // the executor's exclusive write barrier, never concurrently with queries.
  StatusOr<PageGuard> AllocatePage();

  // Returns page `id` to the disk free list, dropping its pooled image
  // first (without writeback — a freed page's contents are dead) so a later
  // reuse of the id can never serve stale pooled bytes. Refuses with
  // kInvalidArgument while the frame is pinned. Same concurrency contract
  // as AllocatePage.
  Status FreePage(PageId id);

  // Writes back every dirty page (pool keeps its contents). On failure the
  // affected frame stays dirty and the first error is returned after
  // attempting the remaining frames.
  Status FlushAll();

  // Drops all pooled unpinned pages after flushing — the next Fetch of any
  // page is a miss (pinned frames, if any, stay resident). Benchmarks call
  // this between runs for cold-cache measurements. If any writeback fails,
  // NO frame is dropped (the dirty data survives in the pool) and the error
  // is returned.
  Status Clear();

  BufferStats stats() const;
  void ResetStats();

  // Occupancy/traffic balance across the lock stripes. When the pool is
  // metric-attached this also refreshes the `<prefix>.shard_occupancy_ratio`
  // and `<prefix>.shard_access_ratio` gauges, so a /statz poll keeps the
  // Prometheus view current.
  ShardBalanceStats shard_balance() const;

  // Mirrors hit/miss/eviction/writeback counts into `registry` counters
  // named "<prefix>.hits" etc (prefix: obs::metric::kNetworkBufferPrefix or
  // kIndexBufferPrefix for the two query-stack roles; those two prefixes
  // also set the pool's BufferRole, enabling per-thread access counting).
  // Registry counters are cumulative across pools attached under the same
  // prefix — span attribution (obs/trace.h) only ever reads deltas.
  // Unattached pools (raw tests) skip the mirroring entirely.
  void AttachMetrics(obs::MetricsRegistry* registry, std::string_view prefix);

  std::size_t frame_count() const { return frames_; }
  std::size_t shard_count() const { return shard_count_; }
  std::size_t resident_pages() const;
  // Pinned frames across all shards (diagnostics/tests).
  std::size_t pinned_pages() const;

  DiskManager* disk() { return disk_; }

 private:
  friend class PageGuard;

  struct Frame {
    PageId id = kInvalidPage;
    bool dirty = false;
    // Raised under the shard mutex; dropped without it by Unpin (release),
    // and read with acquire under the mutex before a frame is evicted or
    // freed, so a guard's last reads of the page happen before its reuse.
    std::atomic<int> pins{0};
    Page page;
  };

  // One lock stripe: a private LRU over this shard's resident pages.
  // std::list nodes give stable Frame addresses across splices, so pinned
  // frames can be referenced by guards while the LRU order churns.
  // Cache-line aligned so neighbouring stripes' mutexes and counts do not
  // share a line.
  struct alignas(64) Shard {
    mutable std::mutex mu;
    std::list<Frame> lru;  // most-recently-used at front
    std::unordered_map<PageId, std::list<Frame>::iterator> table;
    std::size_t capacity = 1;
    // This stripe's share of the pool statistics (guarded by mu); its
    // accesses() also feed ShardBalanceStats.
    BufferStats stats;
  };

  Shard& ShardFor(PageId id) { return shards_[id % shard_count_]; }

  // Called by PageGuard; drops the pin without taking the shard mutex.
  static void Unpin(void* frame);

  // Evicts LRU-most unpinned frames until the shard is under capacity
  // (at most one in the steady state). If a victim's writeback fails, the
  // frame is NOT evicted and the error is returned. A fully pinned shard
  // returns OK without evicting (temporary overflow).
  Status EvictLocked(Shard& shard);

  void CountHit(Shard& shard);
  void CountMiss(Shard& shard);

  // Physical I/O with transient-fault retries per retry_; called with the
  // owning shard's mutex held, so a retry backoff stalls only that shard.
  Status ReadWithRetry(Shard& shard, PageId id, Page* out);
  Status WriteWithRetry(Shard& shard, PageId id, const Page& page);

  DiskManager* disk_;
  std::size_t frames_;
  RetryPolicy retry_;
  std::size_t shard_count_ = 1;
  std::unique_ptr<Shard[]> shards_;
  BufferRole role_ = BufferRole::kNone;
  // Null until AttachMetrics.
  obs::Counter* metric_hits_ = nullptr;
  obs::Counter* metric_misses_ = nullptr;
  obs::Counter* metric_evictions_ = nullptr;
  obs::Counter* metric_writebacks_ = nullptr;
  obs::Gauge* metric_occupancy_ratio_ = nullptr;
  obs::Gauge* metric_access_ratio_ = nullptr;
};

}  // namespace msq

#endif  // MSQ_STORAGE_BUFFER_MANAGER_H_
