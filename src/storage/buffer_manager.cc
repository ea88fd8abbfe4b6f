#include "storage/buffer_manager.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>

#include "common/check.h"
#include "obs/trace.h"

namespace msq {

void PageGuard::Release() {
  if (pool_ != nullptr && frame_ != nullptr) {
    pool_->Unpin(shard_, frame_);
  }
  pool_ = nullptr;
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

void BufferManager::CountHit() {
  stats_.hits.fetch_add(1, std::memory_order_relaxed);
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

void BufferManager::CountMiss() {
  stats_.misses.fetch_add(1, std::memory_order_relaxed);
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

Status BufferManager::ReadWithRetry(PageId id, Page* out) {
  Status status;
  for (int attempt = 0; attempt < retry_.max_read_attempts; ++attempt) {
    if (attempt > 0) {
      stats_.read_retries.fetch_add(1, std::memory_order_relaxed);
      if (retry_.backoff_micros > 0) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(retry_.backoff_micros << (attempt - 1)));
      }
    }
    status = disk_->Read(id, out);
    if (status.ok() || !status.transient()) break;
  }
  if (!status.ok()) stats_.failed_reads.fetch_add(1, std::memory_order_relaxed);
  return status;
}

Status BufferManager::WriteWithRetry(PageId id, const Page& page) {
  Status status;
  for (int attempt = 0; attempt < retry_.max_write_attempts; ++attempt) {
    if (attempt > 0) {
      stats_.write_retries.fetch_add(1, std::memory_order_relaxed);
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
  const std::size_t shard_index = id % shard_count_;
  Shard& shard = shards_[shard_index];
  std::lock_guard<std::mutex> lock(shard.mu);
  ++shard.accesses;
  if (auto it = shard.table.find(id); it != shard.table.end()) {
    CountHit();
    // Move to MRU position; list splice keeps the frame's address stable,
    // which is what lets outstanding guards survive the reordering.
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    Frame& frame = *it->second;
    frame.dirty |= mark_dirty;
    ++frame.pins;
    return PageGuard(this, shard_index, &frame, &frame.page, id);
  }
  // Detail span (head-sampled queries only): one span per physical page
  // read, covering evict + disk read + frame install.
  obs::Span read_span = obs::DetailSpan("storage.page_read");
  CountMiss();
  if (Status status = EvictLocked(shard); !status.ok()) return status;
  // Read into a scratch frame first so a failed read leaves no stale entry
  // in the pool.
  shard.lru.emplace_front();
  Frame& frame = shard.lru.front();
  frame.id = id;
  frame.dirty = mark_dirty;
  if (Status status = ReadWithRetry(id, &frame.page); !status.ok()) {
    shard.lru.pop_front();
    return status;
  }
  frame.pins = 1;
  shard.table[id] = shard.lru.begin();
  return PageGuard(this, shard_index, &frame, &frame.page, id);
}

StatusOr<PageGuard> BufferManager::AllocatePage() {
  StatusOr<PageId> id = disk_->Allocate();
  if (!id.ok()) return id.status();
  const std::size_t shard_index = *id % shard_count_;
  Shard& shard = shards_[shard_index];
  std::lock_guard<std::mutex> lock(shard.mu);
  if (Status status = EvictLocked(shard); !status.ok()) return status;
  shard.lru.emplace_front();
  Frame& frame = shard.lru.front();
  frame.id = *id;
  frame.dirty = true;
  frame.pins = 1;
  shard.table[*id] = shard.lru.begin();
  return PageGuard(this, shard_index, &frame, &frame.page, *id);
}

Status BufferManager::FreePage(PageId id) {
  Shard& shard = ShardFor(id);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    if (auto it = shard.table.find(id); it != shard.table.end()) {
      if (it->second->pins > 0) {
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

void BufferManager::Unpin(std::size_t shard_index, void* frame) {
  Shard& shard = shards_[shard_index];
  std::lock_guard<std::mutex> lock(shard.mu);
  Frame* f = static_cast<Frame*>(frame);
  MSQ_CHECK(f->pins > 0);
  --f->pins;
}

Status BufferManager::EvictLocked(Shard& shard) {
  while (shard.lru.size() >= shard.capacity) {
    // Victim: the least-recently-used unpinned frame. The back of the list
    // is normally unpinned, so this scan is O(1) in the steady state.
    auto victim = shard.lru.end();
    for (auto it = shard.lru.rbegin(); it != shard.lru.rend(); ++it) {
      if (it->pins == 0) {
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
      Status status = WriteWithRetry(victim->id, victim->page);
      if (!status.ok()) {
        stats_.failed_writebacks.fetch_add(1, std::memory_order_relaxed);
        return status;
      }
      victim->dirty = false;
      stats_.dirty_writebacks.fetch_add(1, std::memory_order_relaxed);
      if (metric_writebacks_ != nullptr) metric_writebacks_->Inc();
    }
    shard.table.erase(victim->id);
    shard.lru.erase(victim);
    stats_.evictions.fetch_add(1, std::memory_order_relaxed);
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
      Status status = WriteWithRetry(frame.id, frame.page);
      if (status.ok()) {
        frame.dirty = false;
        stats_.dirty_writebacks.fetch_add(1, std::memory_order_relaxed);
        if (metric_writebacks_ != nullptr) metric_writebacks_->Inc();
      } else {
        stats_.failed_writebacks.fetch_add(1, std::memory_order_relaxed);
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
      if (it->pins > 0) {
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
  snapshot.hits = stats_.hits.load(std::memory_order_relaxed);
  snapshot.misses = stats_.misses.load(std::memory_order_relaxed);
  snapshot.evictions = stats_.evictions.load(std::memory_order_relaxed);
  snapshot.dirty_writebacks =
      stats_.dirty_writebacks.load(std::memory_order_relaxed);
  snapshot.read_retries = stats_.read_retries.load(std::memory_order_relaxed);
  snapshot.write_retries =
      stats_.write_retries.load(std::memory_order_relaxed);
  snapshot.failed_reads = stats_.failed_reads.load(std::memory_order_relaxed);
  snapshot.failed_writebacks =
      stats_.failed_writebacks.load(std::memory_order_relaxed);
  return snapshot;
}

void BufferManager::ResetStats() {
  stats_.hits.store(0, std::memory_order_relaxed);
  stats_.misses.store(0, std::memory_order_relaxed);
  stats_.evictions.store(0, std::memory_order_relaxed);
  stats_.dirty_writebacks.store(0, std::memory_order_relaxed);
  stats_.read_retries.store(0, std::memory_order_relaxed);
  stats_.write_retries.store(0, std::memory_order_relaxed);
  stats_.failed_reads.store(0, std::memory_order_relaxed);
  stats_.failed_writebacks.store(0, std::memory_order_relaxed);
  for (std::size_t i = 0; i < shard_count_; ++i) {
    std::lock_guard<std::mutex> lock(shards_[i].mu);
    shards_[i].accesses = 0;
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
      accesses = shards_[i].accesses;
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
      if (frame.pins > 0) ++total;
    }
  }
  return total;
}

}  // namespace msq
