// Multi-threaded hammer tests for the sharded BufferManager: concurrent
// readers see consistent page images and the per-shard statistics stay
// exact; pins dropped without the shard mutex never race an eviction;
// writers on disjoint pages lose nothing; transient-fault retries keep
// working under contention.
#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "storage/buffer_manager.h"
#include "storage/disk_manager.h"
#include "storage/fault_injection.h"

namespace msq {
namespace {

int ReadInt(const Page& page) {
  int value;
  std::memcpy(&value, page.data.data(), sizeof(value));
  return value;
}

void WriteInt(Page* page, int value) {
  std::memcpy(page->data.data(), &value, sizeof(value));
}

// Allocates `count` pages on `disk`, each stamped with its own id.
void StampPages(DiskManager* disk, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    const PageId id = disk->Allocate().value();
    Page page;
    WriteInt(&page, static_cast<int>(id));
    ASSERT_TRUE(disk->Write(id, page).ok());
  }
}

TEST(BufferManagerConcurrencyTest, UniformHammerKeepsShardsBalanced) {
  // Uniform page traffic from many threads must spread evenly over the
  // lock stripes: ids map to shards by modulo, so both residency and
  // access counts should stay within a 2x max/min bound — the invariant
  // the /statz shard gauges exist to watch.
  constexpr std::size_t kPages = 256;
  constexpr std::size_t kFrames = 64;
  constexpr std::size_t kShards = 8;
  constexpr std::size_t kThreads = 4;
  constexpr int kOpsPerThread = 4000;

  InMemoryDiskManager disk;
  StampPages(&disk, kPages);
  BufferManager buffer(&disk, kFrames, RetryPolicy{}, kShards);

  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(t + 101);
      for (int op = 0; op < kOpsPerThread; ++op) {
        const auto id = static_cast<PageId>(rng.NextBounded(kPages));
        PageGuard guard = buffer.Fetch(id).value();
        EXPECT_EQ(ReadInt(*guard), static_cast<int>(id));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  const ShardBalanceStats balance = buffer.shard_balance();
  EXPECT_EQ(balance.shard_count, kShards);
  // Saturated pool: every stripe holds its full capacity slice.
  EXPECT_GE(balance.min_occupancy, 1u);
  EXPECT_LE(balance.occupancy_ratio, 2.0);
  // 16k uniform fetches over 8 stripes: traffic skew stays under 2x too.
  EXPECT_GT(balance.min_accesses, 0u);
  EXPECT_LE(balance.access_ratio, 2.0);

  // ResetStats restarts the per-shard access counts with the residency
  // intact — the cold-run discipline benchmarks rely on.
  buffer.ResetStats();
  const ShardBalanceStats reset = buffer.shard_balance();
  EXPECT_EQ(reset.max_accesses, 0u);
  EXPECT_EQ(reset.max_occupancy, balance.max_occupancy);
}

TEST(BufferManagerConcurrencyTest, ReadersSeeConsistentPagesAndExactCounts) {
  constexpr std::size_t kPages = 64;
  constexpr std::size_t kFrames = 16;
  constexpr std::size_t kThreads = 8;
  constexpr int kOpsPerThread = 3000;

  InMemoryDiskManager disk;
  StampPages(&disk, kPages);
  BufferManager buffer(&disk, kFrames, RetryPolicy{}, /*shards=*/8);
  ASSERT_EQ(buffer.shard_count(), 8u);

  std::vector<std::thread> threads;
  std::vector<int> bad_reads(kThreads, 0);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(t + 1);
      for (int op = 0; op < kOpsPerThread; ++op) {
        const auto id = static_cast<PageId>(rng.NextBounded(kPages));
        PageGuard guard = buffer.Fetch(id).value();
        // The frame is pinned: the image must be the stamped value no
        // matter what the other threads evict meanwhile.
        if (ReadInt(*guard) != static_cast<int>(id)) ++bad_reads[t];
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(bad_reads[t], 0) << "thread " << t;
  }
  const BufferStats stats = buffer.stats();
  // Exactly one hit-or-miss per Fetch: the atomic counters lose nothing.
  EXPECT_EQ(stats.accesses(), kThreads * kOpsPerThread);
  EXPECT_GT(stats.evictions, 0u);  // pool is smaller than the page set
  EXPECT_EQ(buffer.pinned_pages(), 0u);
  // Fully-pinned shards may overflow transiently; once every guard is gone
  // the pool drains back under capacity via Clear.
  ASSERT_TRUE(buffer.Clear().ok());
  EXPECT_EQ(buffer.resident_pages(), 0u);
}

TEST(BufferManagerConcurrencyTest, UnpinRacesEviction) {
  // Unpin drops pins without the shard mutex while other threads evict
  // under it. A 4-frame single-shard pool over 16 pages keeps eviction on
  // almost every miss; each thread holds a pin across a few more fetches
  // and checks that the pinned frame is neither evicted nor overwritten.
  constexpr std::size_t kPages = 16;
  constexpr std::size_t kThreads = 4;
  constexpr int kOpsPerThread = 3000;

  InMemoryDiskManager disk;
  StampPages(&disk, kPages);
  BufferManager buffer(&disk, /*frames=*/4);
  ASSERT_EQ(buffer.shard_count(), 1u);

  std::vector<std::thread> threads;
  std::vector<std::uint64_t> fetches(kThreads, 0);
  std::vector<int> bad(kThreads, 0);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(t + 41);
      for (int op = 0; op < kOpsPerThread; ++op) {
        const auto held_id = static_cast<PageId>(rng.NextBounded(kPages));
        PageGuard held = buffer.Fetch(held_id).value();
        ++fetches[t];
        for (int churn = 0; churn < 3; ++churn) {
          const auto id = static_cast<PageId>(rng.NextBounded(kPages));
          PageGuard other = buffer.Fetch(id).value();
          ++fetches[t];
          if (ReadInt(*other) != static_cast<int>(id)) ++bad[t];
        }
        // Still pinned: a second fetch must land on the very same frame,
        // and its image must be intact.
        PageGuard again = buffer.Fetch(held_id).value();
        ++fetches[t];
        if (again.page() != held.page()) ++bad[t];
        if (ReadInt(*held) != static_cast<int>(held_id)) ++bad[t];
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  std::uint64_t total_fetches = 0;
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(bad[t], 0) << "thread " << t;
    total_fetches += fetches[t];
  }
  const BufferStats stats = buffer.stats();
  EXPECT_EQ(stats.hits + stats.misses, total_fetches);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_EQ(buffer.pinned_pages(), 0u);
  ASSERT_TRUE(buffer.Clear().ok());
  EXPECT_EQ(buffer.resident_pages(), 0u);
}

TEST(BufferManagerConcurrencyTest, WritersOnDisjointPagesLoseNothing) {
  constexpr std::size_t kPages = 32;
  constexpr std::size_t kThreads = 8;
  constexpr int kPasses = 50;

  InMemoryDiskManager disk;
  StampPages(&disk, kPages);
  BufferManager buffer(&disk, /*frames=*/8, RetryPolicy{}, /*shards=*/4);

  // Thread t owns the pages with id % kThreads == t — concurrent dirtying
  // and eviction writebacks must not mix the streams up.
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int pass = 1; pass <= kPasses; ++pass) {
        for (std::size_t id = t; id < kPages; id += kThreads) {
          PageGuard guard =
              buffer.Fetch(static_cast<PageId>(id), /*mark_dirty=*/true)
                  .value();
          WriteInt(guard.page(),
                   static_cast<int>(t) * 1000000 + pass * 100 +
                       static_cast<int>(id));
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  ASSERT_TRUE(buffer.FlushAll().ok());
  for (std::size_t id = 0; id < kPages; ++id) {
    Page raw;
    ASSERT_TRUE(disk.Read(static_cast<PageId>(id), &raw).ok());
    const int owner = static_cast<int>(id % kThreads);
    EXPECT_EQ(ReadInt(raw),
              owner * 1000000 + kPasses * 100 + static_cast<int>(id))
        << "page " << id;
  }
}

TEST(BufferManagerConcurrencyTest, TransientFaultRetriesSurviveContention) {
  constexpr std::size_t kPages = 64;
  constexpr std::size_t kThreads = 4;
  constexpr int kOpsPerThread = 2000;

  InMemoryDiskManager disk;
  StampPages(&disk, kPages);
  FaultInjectionConfig faults;
  faults.seed = 9;
  faults.transient_read_rate = 0.1;
  FaultInjectingDiskManager flaky(&disk, faults);
  RetryPolicy retry;
  retry.max_read_attempts = 8;  // per-read failure odds ~1e-8: never fails
  BufferManager buffer(&flaky, /*frames=*/8, retry, /*shards=*/4);
  flaky.Arm();

  std::vector<std::thread> threads;
  std::vector<int> failures(kThreads, 0);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(100 + t);
      for (int op = 0; op < kOpsPerThread; ++op) {
        const auto id = static_cast<PageId>(rng.NextBounded(kPages));
        auto fetched = buffer.Fetch(id);
        if (!fetched.ok() || ReadInt(*fetched.value()) != static_cast<int>(id))
          ++failures[t];
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  flaky.Disarm();

  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], 0) << "thread " << t;
  }
  // The schedule really bit, and every fault was absorbed by a retry.
  EXPECT_GT(flaky.fault_stats().injected_transient_reads, 0u);
  EXPECT_GT(buffer.stats().read_retries, 0u);
  EXPECT_EQ(buffer.stats().failed_reads, 0u);
}

}  // namespace
}  // namespace msq
