#include "storage/buffer_manager.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>

#include "common/check.h"
#include "obs/trace.h"

namespace msq {

BufferStats& BufferStats::operator+=(const BufferStats& other) {
  hits += other.hits;
  misses += other.misses;
  evictions += other.evictions;
  dirty_writebacks += other.dirty_writebacks;
  read_retries += other.read_retries;
  write_retries += other.write_retries;
  failed_reads += other.failed_reads;
  failed_writebacks += other.failed_writebacks;
  return *this;
}

void PageGuard::Release() {
  if (frame_ != nullptr) BufferManager::Unpin(frame_);
  frame_ = nullptr;
  page_ = nullptr;
  id_ = kInvalidPage;
}

BufferManager::BufferManager(DiskManager* disk, std::size_t frames,
                             RetryPolicy retry, std::size_t shards)
    : disk_(disk), frames_(frames), retry_(retry) {
  MSQ_CHECK(disk != nullptr);
  MSQ_CHECK(frames >= 1);
  MSQ_CHECK(retry.max_read_attempts >= 1);
  MSQ_CHECK(retry.max_write_attempts >= 1);
  if (shards == 0) {
    shards = std::clamp<std::size_t>(frames / 8, 1, 16);
  }
  shard_count_ = std::clamp<std::size_t>(shards, 1, frames);
  shards_ = std::make_unique<Shard[]>(shard_count_);
  // Distribute capacity round-robin so every shard can hold at least one
  // frame and the caps sum exactly to `frames`.
  const std::size_t base = frames / shard_count_;
  const std::size_t extra = frames % shard_count_;
  for (std::size_t i = 0; i < shard_count_; ++i) {
    shards_[i].capacity = base + (i < extra ? 1 : 0);
  }
}

void BufferManager::AttachMetrics(obs::MetricsRegistry* registry,
                                  std::string_view prefix) {
  MSQ_CHECK(registry != nullptr);
  const std::string base(prefix);
  metric_hits_ = registry->counter(base + ".hits");
  metric_misses_ = registry->counter(base + ".misses");
  metric_evictions_ = registry->counter(base + ".evictions");
  metric_writebacks_ = registry->counter(base + ".writebacks");
  metric_occupancy_ratio_ = registry->gauge(base + ".shard_occupancy_ratio");
  metric_access_ratio_ = registry->gauge(base + ".shard_access_ratio");
  if (prefix == obs::metric::kNetworkBufferPrefix) {
    role_ = BufferRole::kNetwork;
  } else if (prefix == obs::metric::kIndexBufferPrefix) {
    role_ = BufferRole::kIndex;
  }
}

void BufferManager::CountHit(Shard& shard) {
  ++shard.stats.hits;
  if (metric_hits_ != nullptr) metric_hits_->Inc();
  switch (role_) {
    case BufferRole::kNetwork:
      ++obs::ThreadLocalCounters().network_page_hits;
      break;
    case BufferRole::kIndex:
      ++obs::ThreadLocalCounters().index_page_hits;
      break;
    case BufferRole::kNone:
      break;
  }
}

void BufferManager::CountMiss(Shard& shard) {
  ++shard.stats.misses;
  if (metric_misses_ != nullptr) metric_misses_->Inc();
  switch (role_) {
    case BufferRole::kNetwork:
      ++obs::ThreadLocalCounters().network_pages;
      break;
    case BufferRole::kIndex:
      ++obs::ThreadLocalCounters().index_pages;
      break;
    case BufferRole::kNone:
      break;
  }
}

Status BufferManager::ReadWithRetry(Shard& shard, PageId id, Page* out) {
  Status status;
  for (int attempt = 0; attempt < retry_.max_read_attempts; ++attempt) {
    if (attempt > 0) {
      ++shard.stats.read_retries;
      if (retry_.backoff_micros > 0) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(retry_.backoff_micros << (attempt - 1)));
      }
    }
    status = disk_->Read(id, out);
    if (status.ok() || !status.transient()) break;
  }
  if (!status.ok()) ++shard.stats.failed_reads;
  return status;
}

Status BufferManager::WriteWithRetry(Shard& shard, PageId id,
                                     const Page& page) {
  Status status;
  for (int attempt = 0; attempt < retry_.max_write_attempts; ++attempt) {
    if (attempt > 0) {
      ++shard.stats.write_retries;
      if (retry_.backoff_micros > 0) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(retry_.backoff_micros << (attempt - 1)));
      }
    }
    status = disk_->Write(id, page);
    if (status.ok() || !status.transient()) break;
  }
  return status;
}

StatusOr<PageGuard> BufferManager::Fetch(PageId id, bool mark_dirty) {
  Shard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  if (auto it = shard.table.find(id); it != shard.table.end()) {
    CountHit(shard);
    // Move to MRU position; list splice keeps the frame's address stable,
    // which is what lets outstanding guards survive the reordering.
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    Frame& frame = *it->second;
    frame.dirty |= mark_dirty;
    frame.pins.fetch_add(1, std::memory_order_relaxed);
    return PageGuard(&frame, &frame.page, id);
  }
  // Detail span (head-sampled queries only): one span per physical page
  // read, covering evict + disk read + frame install.
  obs::Span read_span = obs::DetailSpan("storage.page_read");
  CountMiss(shard);
  if (Status status = EvictLocked(shard); !status.ok()) return status;
  // Read into a scratch frame first so a failed read leaves no stale entry
  // in the pool.
  shard.lru.emplace_front();
  Frame& frame = shard.lru.front();
  frame.id = id;
  frame.dirty = mark_dirty;
  if (Status status = ReadWithRetry(shard, id, &frame.page); !status.ok()) {
    shard.lru.pop_front();
    return status;
  }
  frame.pins.store(1, std::memory_order_relaxed);
  shard.table[id] = shard.lru.begin();
  return PageGuard(&frame, &frame.page, id);
}

StatusOr<PageGuard> BufferManager::AllocatePage() {
  StatusOr<PageId> id = disk_->Allocate();
  if (!id.ok()) return id.status();
  Shard& shard = ShardFor(*id);
  std::lock_guard<std::mutex> lock(shard.mu);
  if (Status status = EvictLocked(shard); !status.ok()) return status;
  shard.lru.emplace_front();
  Frame& frame = shard.lru.front();
  frame.id = *id;
  frame.dirty = true;
  frame.pins.store(1, std::memory_order_relaxed);
  shard.table[*id] = shard.lru.begin();
  return PageGuard(&frame, &frame.page, *id);
}

Status BufferManager::FreePage(PageId id) {
  Shard& shard = ShardFor(id);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    if (auto it = shard.table.find(id); it != shard.table.end()) {
      if (it->second->pins.load(std::memory_order_acquire) > 0) {
        return Status::InvalidArgument("free of pinned page " +
                                       std::to_string(id));
      }
      // Drop the image without writeback: a freed page's contents are dead,
      // and leaving the frame resident would let a recycled id serve stale
      // bytes from the pool.
      shard.lru.erase(it->second);
      shard.table.erase(it);
    }
  }
  return disk_->Free(id);
}

void BufferManager::Unpin(void* frame) {
  // The frame cannot be evicted while this pin is held, so it is still
  // live here; once the decrement lands the guard never touches it again.
  const int before = static_cast<Frame*>(frame)->pins.fetch_sub(
      1, std::memory_order_release);
  MSQ_CHECK(before > 0);
}

Status BufferManager::EvictLocked(Shard& shard) {
  while (shard.lru.size() >= shard.capacity) {
    // Victim: the least-recently-used unpinned frame. The back of the list
    // is normally unpinned, so this scan is O(1) in the steady state.
    auto victim = shard.lru.end();
    for (auto it = shard.lru.rbegin(); it != shard.lru.rend(); ++it) {
      if (it->pins.load(std::memory_order_acquire) == 0) {
        victim = std::prev(it.base());
        break;
      }
    }
    if (victim == shard.lru.end()) {
      // Every frame is pinned: overflow temporarily rather than deadlock or
      // fail — later fetches shrink the shard back under capacity.
      return Status();
    }
    if (victim->dirty) {
      Status status = WriteWithRetry(shard, victim->id, victim->page);
      if (!status.ok()) {
        ++shard.stats.failed_writebacks;
        return status;
      }
      victim->dirty = false;
      ++shard.stats.dirty_writebacks;
      if (metric_writebacks_ != nullptr) metric_writebacks_->Inc();
    }
    shard.table.erase(victim->id);
    shard.lru.erase(victim);
    ++shard.stats.evictions;
    if (metric_evictions_ != nullptr) metric_evictions_->Inc();
  }
  return Status();
}

Status BufferManager::FlushAll() {
  Status first_error;
  for (std::size_t i = 0; i < shard_count_; ++i) {
    Shard& shard = shards_[i];
    std::lock_guard<std::mutex> lock(shard.mu);
    for (Frame& frame : shard.lru) {
      if (!frame.dirty) continue;
      Status status = WriteWithRetry(shard, frame.id, frame.page);
      if (status.ok()) {
        frame.dirty = false;
        ++shard.stats.dirty_writebacks;
        if (metric_writebacks_ != nullptr) metric_writebacks_->Inc();
      } else {
        ++shard.stats.failed_writebacks;
        if (first_error.ok()) first_error = status;
      }
    }
  }
  return first_error;
}

Status BufferManager::Clear() {
  if (Status status = FlushAll(); !status.ok()) return status;
  for (std::size_t i = 0; i < shard_count_; ++i) {
    Shard& shard = shards_[i];
    std::lock_guard<std::mutex> lock(shard.mu);
    for (auto it = shard.lru.begin(); it != shard.lru.end();) {
      if (it->pins.load(std::memory_order_acquire) > 0) {
        ++it;
        continue;
      }
      shard.table.erase(it->id);
      it = shard.lru.erase(it);
    }
  }
  return Status();
}

BufferStats BufferManager::stats() const {
  BufferStats snapshot;
  for (std::size_t i = 0; i < shard_count_; ++i) {
    std::lock_guard<std::mutex> lock(shards_[i].mu);
    snapshot += shards_[i].stats;
  }
  return snapshot;
}

void BufferManager::ResetStats() {
  for (std::size_t i = 0; i < shard_count_; ++i) {
    std::lock_guard<std::mutex> lock(shards_[i].mu);
    shards_[i].stats = BufferStats{};
  }
}

ShardBalanceStats BufferManager::shard_balance() const {
  ShardBalanceStats balance;
  balance.shard_count = shard_count_;
  for (std::size_t i = 0; i < shard_count_; ++i) {
    std::size_t occupancy = 0;
    std::uint64_t accesses = 0;
    {
      std::lock_guard<std::mutex> lock(shards_[i].mu);
      occupancy = shards_[i].table.size();
      accesses = shards_[i].stats.accesses();
    }
    if (i == 0) {
      balance.min_occupancy = balance.max_occupancy = occupancy;
      balance.min_accesses = balance.max_accesses = accesses;
    } else {
      balance.min_occupancy = std::min(balance.min_occupancy, occupancy);
      balance.max_occupancy = std::max(balance.max_occupancy, occupancy);
      balance.min_accesses = std::min(balance.min_accesses, accesses);
      balance.max_accesses = std::max(balance.max_accesses, accesses);
    }
  }
  balance.occupancy_ratio =
      static_cast<double>(balance.max_occupancy) /
      static_cast<double>(std::max<std::size_t>(1, balance.min_occupancy));
  balance.access_ratio =
      static_cast<double>(balance.max_accesses) /
      static_cast<double>(std::max<std::uint64_t>(1, balance.min_accesses));
  if (metric_occupancy_ratio_ != nullptr) {
    metric_occupancy_ratio_->Update(balance.occupancy_ratio);
  }
  if (metric_access_ratio_ != nullptr) {
    metric_access_ratio_->Update(balance.access_ratio);
  }
  return balance;
}

std::size_t BufferManager::resident_pages() const {
  std::size_t total = 0;
  for (std::size_t i = 0; i < shard_count_; ++i) {
    std::lock_guard<std::mutex> lock(shards_[i].mu);
    total += shards_[i].table.size();
  }
  return total;
}

std::size_t BufferManager::pinned_pages() const {
  std::size_t total = 0;
  for (std::size_t i = 0; i < shard_count_; ++i) {
    std::lock_guard<std::mutex> lock(shards_[i].mu);
    for (const Frame& frame : shards_[i].lru) {
      if (frame.pins.load(std::memory_order_acquire) > 0) ++total;
    }
  }
  return total;
}

}  // namespace msq
