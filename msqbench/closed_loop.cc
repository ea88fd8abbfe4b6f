// Closed-loop workloads: four callers, each waiting on its previous
// future, into a QueryExecutor with four workers.
//
//   batch_cold_na — NA at scale 0.5, |Q| = 4 sources per read, CE, EDC and
//                   LBC round-robin, no cache; the network does not fit the
//                   256-frame pools, so misses keep happening.
//   hot_churn_au  — AU at scale 1.0 with the executor's cache; reads take
//                   |Q| = 3 of 64 hot locations (in one 10% window) by
//                   Zipf(1) rank, and one operation in 25 is a write
//                   through SubmitExclusive (60% UpdateEdgeWeight, 20%
//                   InsertObject, 20% DeleteObject of a live object).
//                   Reads are checked afterwards on a second world that
//                   replays the write log in execution order, each at its
//                   own data epoch.
//
// Both run a fixed cyclic sequence of operations, part of the workload
// like its dataset (330 batch source sets; 1,125 churn operations), from
// an offset drawn from the seed; one run covers about one cycle. Per-read
// cost spans two orders of magnitude and depends on which reads meet in
// the pools and the cache: with fresh draws per seed, or the hot ranks or
// the batch order redrawn per seed, the run's medians moved by a quarter
// to a half between seeds.
//
// The run measures for the requested seconds untraced; a traced run adds
// as long a traced window after it, whose numbers are the per-layer ones.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>
#include <set>
#include <thread>

#include "exec/query_executor.h"
#include "oracle.h"
#include "run.h"

namespace msqbench {
namespace {

using msq::Algorithm;

constexpr std::size_t kCallers = 4;
constexpr std::uint64_t kWriteEvery = 25;
constexpr std::size_t kHotLocations = 64;
// Lengths of the fixed cyclic operation sequences: about what one run of
// the default length gets through, so every run covers about one cycle.
constexpr std::size_t kBatchPool = 330;
constexpr std::size_t kChurnCycle = 1125;  // 45 writes
// Writes are a twenty-fifth of the churn operations, a few dozen per run:
// too few for ten samples beyond p90, so write_tail_ms is the p90 of a
// thin sample and is reported per layer, without a bound.
constexpr double kWriteTail = 90.0;

const Algorithm kAlgorithms[] = {Algorithm::kCe, Algorithm::kEdc,
                                 Algorithm::kLbc};

enum class WriteKind { kUpdate, kInsert, kDelete };

// One executed write, in execution order.
struct WriteRecord {
  WriteKind kind = WriteKind::kUpdate;
  msq::EdgeId edge = 0;
  double length = 0.0;     // update: requested length
  msq::Location location;  // insert
  msq::ObjectId object = 0;  // delete: victim; insert: assigned id
  double applied = 0.0;      // update: applied length
  bool removed = false;      // delete: was live
  bool ok = false;
  double fn_start = 0.0;  // inside the barrier
  double fn_end = 0.0;
};

struct Timed {
  double submit = 0.0;
  double ready = 0.0;
};

struct Window {
  std::vector<ReadRecord> reads;
  std::vector<Timed> read_times;
  std::vector<double> write_ms;
  std::vector<double> gen_lag_ms;
  double start = 0.0;
  double end = 0.0;
  double program_cpu = 0.0;
  std::vector<double> slice_cpu;  // program CPU per slice
  Ledger ledger;
};

// State the write jobs share; touched only under the executor's exclusive
// barrier, one job at a time.
struct World {
  msq::Workload* workload = nullptr;
  std::vector<msq::ObjectId> live;
  std::set<msq::EdgeId> hot_edges;  // never updated: hot sources stay valid
  std::vector<WriteRecord> log;
};

struct Loop {
  const RunOptions* options = nullptr;
  msq::QueryExecutor* executor = nullptr;
  msq::Workload* workload = nullptr;
  World* world = nullptr;  // null: no writes
  std::vector<std::vector<msq::Location>> pool;  // batch source sets
  std::vector<msq::Location> hot;  // churn: by popularity rank
  std::vector<double> zipf_cdf;
  // Operation k of a run is operation (offset + k) % period of the
  // workload's fixed cyclic sequence; the seed picks the offset.
  std::uint64_t period = 1;
  std::uint64_t offset = 0;
  std::atomic<std::uint64_t> next_op{0};
};

std::vector<msq::Location> HotSources(const Loop& d, std::uint64_t i) {
  std::vector<msq::Location> sources;
  std::vector<std::size_t> ranks;
  for (std::uint64_t draw = 0; ranks.size() < 3; ++draw) {
    const double u = UnitDouble(kPoolSeed, 8, i * 64 + draw);
    const std::size_t rank = static_cast<std::size_t>(
        std::lower_bound(d.zipf_cdf.begin(), d.zipf_cdf.end(), u) -
        d.zipf_cdf.begin());
    const std::size_t r = std::min(rank, d.hot.size() - 1);
    if (std::find(ranks.begin(), ranks.end(), r) == ranks.end()) {
      ranks.push_back(r);
    }
  }
  for (std::size_t r : ranks) sources.push_back(d.hot[r]);
  return sources;
}

// The write of operation `i`, resolved against the world at execution.
msq::Status ApplyWrite(World* world, std::uint64_t i) {
  WriteRecord w;
  w.fn_start = msq::MonotonicSeconds();
  msq::Workload& wl = *world->workload;
  const double u = UnitDouble(kPoolSeed, 5, i);
  const double v = UnitDouble(kPoolSeed, 9, i);
  const std::size_t edges = wl.network().edge_count();
  msq::Status status;
  if (u < 0.6) {
    w.kind = WriteKind::kUpdate;
    w.edge = static_cast<msq::EdgeId>(MixSeed(kPoolSeed, 10, i) % edges);
    while (world->hot_edges.count(w.edge) > 0) {
      w.edge = static_cast<msq::EdgeId>((w.edge + 1) % edges);
    }
    w.length = wl.network().EdgeAt(w.edge).length * (0.9 + 0.4 * v);
    msq::StatusOr<msq::Dist> applied = wl.UpdateEdgeWeight(w.edge, w.length);
    status = applied.status();
    if (applied.ok()) w.applied = applied.value();
  } else if (u < 0.8 || world->live.empty()) {
    w.kind = WriteKind::kInsert;
    const msq::EdgeId edge =
        static_cast<msq::EdgeId>(MixSeed(kPoolSeed, 10, i) % edges);
    w.location = msq::Location{edge, wl.network().EdgeAt(edge).length * v};
    msq::StatusOr<msq::ObjectId> id = wl.InsertObject(w.location);
    status = id.status();
    if (id.ok()) {
      w.object = id.value();
      world->live.push_back(w.object);
    }
  } else {
    w.kind = WriteKind::kDelete;
    const std::size_t at = MixSeed(kPoolSeed, 10, i) % world->live.size();
    w.object = world->live[at];
    world->live[at] = world->live.back();
    world->live.pop_back();
    msq::StatusOr<bool> removed = wl.DeleteObject(w.object);
    status = removed.status();
    if (removed.ok()) w.removed = removed.value();
  }
  w.ok = status.ok();
  w.fn_end = msq::MonotonicSeconds();
  world->log.push_back(w);
  return status;
}

// One closed-loop window of `seconds`.
Window RunWindow(Loop* d, double seconds, SpanLog* spans) {
  Window win;
  std::mutex mu;
  std::vector<double> gen_cpu(kCallers, 0.0);
  win.start = NowSeconds();
  const double end = win.start + seconds;
  CpuSlices slices(kCallers);
  slices.Mark();
  const double p0 = ProcessCpuSeconds();
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      const double c0 = ThreadCpuSeconds();
      std::vector<ReadRecord> reads;
      std::vector<Timed> times;
      std::vector<double> write_ms, lag_ms;
      Ledger ledger;
      double prev_ready = NowSeconds();
      while (prev_ready < end) {
        const std::uint64_t i = d->next_op.fetch_add(1);
        const std::uint64_t j = (d->offset + i) % d->period;
        const bool write =
            d->world != nullptr && j % kWriteEvery == kWriteEvery - 1;
        ReadRecord read;
        if (!write) {
          read.algorithm = kAlgorithms[j % 3];
          read.sources = d->world != nullptr ? HotSources(*d, j) : d->pool[j];
        }
        Timed t;
        t.submit = NowSeconds();
        lag_ms.push_back((t.submit - prev_ready) * 1e3);
        ledger.attempted += 1;
        if (write) {
          World* world = d->world;
          const msq::Status status =
              d->executor
                  ->SubmitExclusive([world, j] { return ApplyWrite(world, j); })
                  .get();
          t.ready = NowSeconds();
          (status.ok() ? ledger.ok : ledger.failed) += 1;
          write_ms.push_back((t.ready - t.submit) * 1e3);
          spans->Record("caller.write", 0, i, t.submit, t.ready);
        } else {
          msq::QueryRequest request;
          request.algorithm = read.algorithm;
          request.spec.sources = read.sources;
          msq::SkylineResult result =
              d->executor->Submit(std::move(request)).get();
          t.ready = NowSeconds();
          read.ok = result.status.ok() && !result.truncated;
          if (read.ok) {
            ledger.ok += 1;
          } else if (result.truncated) {
            ledger.truncated += 1;
          } else {
            ledger.failed += 1;
          }
          read.skyline = std::move(result.skyline);
          read.stats = result.stats;
          read.exec_started_at = result.exec_started_at;
          read.exec_finished_at = result.exec_finished_at;
          if (spans->enabled()) {
            const std::uint64_t root =
                spans->Record("caller.read", 0, i, t.submit, t.ready);
            spans->Record("exec.run", root, i, result.exec_started_at,
                          result.exec_finished_at,
                          result.stats.settled_nodes);
          }
          reads.push_back(std::move(read));
          times.push_back(t);
        }
        prev_ready = t.ready;
        slices.Publish(c);
      }
      gen_cpu[c] = ThreadCpuSeconds() - c0;
      std::lock_guard<std::mutex> lock(mu);
      for (std::size_t k = 0; k < reads.size(); ++k) {
        win.reads.push_back(std::move(reads[k]));
        win.read_times.push_back(times[k]);
      }
      win.write_ms.insert(win.write_ms.end(), write_ms.begin(),
                          write_ms.end());
      win.gen_lag_ms.insert(win.gen_lag_ms.end(), lag_ms.begin(),
                            lag_ms.end());
      win.ledger.Add(ledger);
      win.end = std::max(win.end, prev_ready);
    });
  }
  for (int k = 1; k <= kSlices; ++k) {
    SleepUntil(win.start + k * seconds / kSlices);
    slices.Mark();
  }
  for (std::thread& t : callers) t.join();
  win.program_cpu = ProgramCpuSeconds(ProcessCpuSeconds() - p0, gen_cpu);
  win.slice_cpu = slices.SliceCpu();
  return win;
}

// End-to-end and exec layer numbers of a window; returns its
// cpu_ms_per_query.
double ReportWindow(const Loop& d, const Window& win,
                           const WorkloadSpec& spec, RunReport* report) {
  auto& v = report->values;
  const double wall = win.end - win.start;
  const double slice_seconds = d.options->seconds / kSlices;
  std::vector<double> latency, queue;
  std::vector<double> slice_reads(kSlices, 0.0);
  double net_pages = 0.0;
  for (std::size_t k = 0; k < win.reads.size(); ++k) {
    const double ms = (win.read_times[k].ready - win.read_times[k].submit) * 1e3;
    latency.push_back(ms);
    queue.push_back(std::max(0.0, ms - win.reads[k].stats.total_seconds * 1e3));
    const int slice = static_cast<int>((win.read_times[k].ready - win.start) /
                                       slice_seconds);
    if (slice >= 0 && slice < kSlices) slice_reads[slice] += 1;
    net_pages += win.reads[k].stats.network_pages;
  }
  std::vector<double> slice_ms, slice_len(kSlices, slice_seconds);
  for (const double cpu : win.slice_cpu) slice_ms.push_back(cpu * 1e3);
  if (SupportedTailPercentile(latency.size()) < spec.tail_percentile) {
    report->errors.push_back("too few reads for the tail percentile");
  }
  const double cpu_ms_per_query = MedianRatio(slice_ms, slice_reads);
  v["throughput_qps"] = MedianRatio(slice_reads, slice_len);
  // Per-read latency and misses are heavy-tailed (a CE read on NA can miss
  // a thousand pages, an LBC read a dozen): over the whole window their
  // median and mean spread less between runs than medians of slices.
  v["latency_p50_ms"] = Median(latency);
  v["latency_tail_ms"] = Percentile(latency, spec.tail_percentile);
  v["cpu_ms_per_query"] = cpu_ms_per_query;
  v["net_pages_per_query"] =
      win.reads.empty() ? 0.0 : net_pages / win.reads.size();
  v["exec.queue_wait_ms_p50"] = Median(queue);
  v["exec.queue_wait_ms_tail"] = Percentile(queue, spec.tail_percentile);
  v["exec.cpu_util"] =
      wall > 0 ? win.program_cpu / (wall * spec.workers) : 0.0;
  v["write_p50_ms"] = Median(win.write_ms);
  v["write_tail_ms"] = Percentile(win.write_ms, kWriteTail);
  return cpu_ms_per_query;
}

// Runs the untraced window (and in a traced run the traced one), filling
// the end-to-end metrics from the untraced window. Returns every window.
std::vector<Window> Measure(Loop* d, const WorkloadSpec& spec,
                            SpanLog* traced, RunReport* report) {
  std::vector<Window> windows;
  SpanLog untraced(false);
  windows.push_back(RunWindow(d, d->options->seconds, &untraced));
  report->values["rss_peak_mb"] = PeakRssMb();
  const double untraced_cpu = ReportWindow(*d, windows[0], spec, report);
  const std::map<std::string, double> e2e = report->values;
  if (d->options->trace) {
    windows.push_back(RunWindow(d, d->options->seconds, traced));
    const double traced_cpu = ReportWindow(*d, windows[1], spec, report);
    report->values["bench.trace_overhead_pct"] =
        untraced_cpu > 0 ? (traced_cpu / untraced_cpu - 1.0) * 100.0 : 0.0;
    for (const char* key :
         {"throughput_qps", "latency_p50_ms", "latency_tail_ms",
          "cpu_ms_per_query", "net_pages_per_query", "write_p50_ms",
          "write_tail_ms"}) {
      report->values[key] = e2e.at(key);
    }
  }
  Ledger ledger;
  std::vector<double> lag;
  for (const Window& w : windows) {
    ledger.Add(w.ledger);
    lag.insert(lag.end(), w.gen_lag_ms.begin(), w.gen_lag_ms.end());
  }
  report->ledger = ledger;
  report->values["bench.gen_lag_ms_p99"] = Percentile(lag, 99.0);
  report->values["failed_frac"] =
      static_cast<double>(ledger.failed + ledger.shed + ledger.truncated) /
      std::max<std::uint64_t>(1, ledger.attempted);
  return windows;
}

std::vector<const ReadRecord*> AllReads(const std::vector<Window>& windows) {
  std::vector<const ReadRecord*> reads;
  for (const Window& w : windows) {
    for (const ReadRecord& r : w.reads) reads.push_back(&r);
  }
  return reads;
}

// Per-layer numbers common to both closed-loop workloads, from the traced
// window (the last one).
void ReportLayers(const std::vector<Window>& windows, msq::Workload* workload,
                  const WorkloadSpec& spec, SpanLog* traced,
                  RunReport* report) {
  std::vector<const ReadRecord*> reads;
  for (const ReadRecord& r : windows.back().reads) reads.push_back(&r);
  FillStatsLayers(reads, report);
  ProbeLayers(workload, reads, traced, report);
  report->values["obs.telemetry_cpu_pct"] =
      TelemetryCpuPct(workload, spec.workers, reads, 2.0);
  report->values["serve.overhead_ms_p50"] = 0.0;
  report->values["serve.shed_frac"] = 0.0;
  report->values["max_rate_under_slo_qps"] = 0.0;
}

}  // namespace

void RunBatchCold(const RunOptions& options, RunReport* report) {
  const WorkloadSpec& spec = *FindWorkload("batch_cold_na");
  std::unique_ptr<msq::Workload> workload;
  std::unique_ptr<msq::QueryExecutor> executor;
  workload = TimedSetup(
      MakeConfig(spec), kSetups,
      [&](msq::Workload* w) {
        executor =
            std::make_unique<msq::QueryExecutor>(w->dataset(), spec.workers);
      },
      [&] { executor.reset(); }, report);
  workload->ResetBuffers();
  report->stamp["workers"] = std::to_string(spec.workers);
  report->stamp["callers"] = std::to_string(kCallers);

  Loop d;
  d.options = &options;
  d.executor = executor.get();
  d.workload = workload.get();
  for (std::size_t k = 0; k < kBatchPool; ++k) {
    d.pool.push_back(
        workload->SampleQuery(4, MixSeed(kPoolSeed, 4, k), 0.1).sources);
  }
  d.period = kBatchPool;
  d.offset = MixSeed(options.seed, 11, 0) % d.period;
  SpanLog traced(true);
  const std::vector<Window> windows = Measure(&d, spec, &traced, report);
  executor.reset();
  CheckReads(workload.get(), AllReads(windows), report);
  if (options.trace) {
    ReportLayers(windows, workload.get(), spec, &traced, report);
    report->values["exec.barrier_wait_ms_p50"] = 0.0;
    report->values["cache.bytes"] = 0.0;
    report->values["cache.invalidations_per_write"] = 0.0;
    report->values["write_p50_ms"] = 0.0;
    report->values["write_tail_ms"] = 0.0;
    // Mutations last: they change the world the reads were checked on.
    report->values["gen.mutation_us_p50"] =
        Median(ProbeMutations(workload.get(), options.seed, 20));
    if (!traced.WriteJsonl(options.out_dir + "/spans-batch_cold_na.jsonl")) {
      report->errors.push_back("cannot write spans");
    }
  }
}

void RunHotChurn(const RunOptions& options, RunReport* report) {
  const WorkloadSpec& spec = *FindWorkload("hot_churn_au");
  const msq::WorkloadConfig config = MakeConfig(spec);
  std::unique_ptr<msq::Workload> workload;
  std::unique_ptr<msq::QueryExecutor> executor;
  workload = TimedSetup(
      config, kSetups,
      [&](msq::Workload* w) {
        executor = std::make_unique<msq::QueryExecutor>(
            w->dataset(), spec.workers, msq::QueryCacheConfig{});
      },
      [&] { executor.reset(); }, report);
  workload->ResetBuffers();
  report->stamp["workers"] = std::to_string(spec.workers);
  report->stamp["callers"] = std::to_string(kCallers);

  World world;
  world.workload = workload.get();
  for (msq::ObjectId id = 0; id < workload->mapping().object_count(); ++id) {
    if (workload->mapping().IsLive(id)) world.live.push_back(id);
  }
  Loop d;
  d.options = &options;
  d.executor = executor.get();
  d.workload = workload.get();
  d.world = &world;
  d.hot = workload->SampleQuery(kHotLocations, kPoolSeed, 0.1).sources;
  d.period = kChurnCycle;
  d.offset = MixSeed(options.seed, 11, 0) % d.period;
  for (const msq::Location& loc : d.hot) world.hot_edges.insert(loc.edge);
  double total = 0.0;
  for (std::size_t k = 0; k < d.hot.size(); ++k) {
    total += 1.0 / static_cast<double>(k + 1);
    d.zipf_cdf.push_back(total);
  }
  for (double& c : d.zipf_cdf) c /= total;

  SpanLog traced(true);
  const std::vector<Window> windows = Measure(&d, spec, &traced, report);
  const msq::QueryCache::Stats cache = executor->cache()->stats();
  const double cache_bytes = static_cast<double>(executor->cache()->bytes());
  executor.reset();

  // Every read ran between two writes (the barrier admits no overlap), so
  // its epoch is the number of writes that started before it did.
  std::vector<double> write_starts;
  for (const WriteRecord& w : world.log) write_starts.push_back(w.fn_start);
  std::vector<std::vector<const ReadRecord*>> by_epoch(world.log.size() + 1);
  for (const ReadRecord* r : AllReads(windows)) {
    const std::size_t k = static_cast<std::size_t>(
        std::lower_bound(write_starts.begin(), write_starts.end(),
                         r->exec_started_at) -
        write_starts.begin());
    const bool after_prev = k == 0 || r->exec_started_at >= world.log[k - 1].fn_end;
    const bool before_next =
        k == world.log.size() || r->exec_finished_at <= world.log[k].fn_start;
    if (!after_prev || !before_next) {
      report->errors.push_back("a read overlapped a write");
      return;
    }
    by_epoch[k].push_back(r);
  }

  // Replay on a second world, checking each epoch's reads before applying
  // the next write, and timing each mutation on the quiesced world.
  msq::Workload replay(config);
  BruteForceOracle oracle(&replay, /*memoize=*/true);
  std::atomic<std::uint64_t> mismatches{0};
  std::uint64_t checked = 0;
  std::vector<double> mutation_us;
  if (!by_epoch.front().empty() &&
      !CheckAnchor(&replay, by_epoch.front().front()->sources)) {
    report->errors.push_back("brute-force oracle disagrees with kNaive");
  }
  for (std::size_t k = 0; k <= world.log.size(); ++k) {
    const std::vector<const ReadRecord*>& reads = by_epoch[k];
    ParallelFor(reads.size(), kCallers, [&](std::size_t j) {
      if (reads[j]->ok &&
          SortedIds(reads[j]->skyline) != oracle.SkylineIds(reads[j]->sources)) {
        mismatches.fetch_add(1);
      }
    });
    checked += reads.size();
    if (k == world.log.size()) break;
    const WriteRecord& w = world.log[k];
    const double t0 = NowSeconds();
    bool same = false;
    switch (w.kind) {
      case WriteKind::kUpdate: {
        msq::StatusOr<msq::Dist> applied =
            replay.UpdateEdgeWeight(w.edge, w.length);
        same = applied.ok() == w.ok && (!w.ok || applied.value() == w.applied);
        break;
      }
      case WriteKind::kInsert: {
        msq::StatusOr<msq::ObjectId> id = replay.InsertObject(w.location);
        same = id.ok() == w.ok && (!w.ok || id.value() == w.object);
        break;
      }
      case WriteKind::kDelete: {
        msq::StatusOr<bool> removed = replay.DeleteObject(w.object);
        same = removed.ok() == w.ok && (!w.ok || removed.value() == w.removed);
        break;
      }
    }
    mutation_us.push_back((NowSeconds() - t0) * 1e6);
    if (!same) {
      report->errors.push_back("replayed write " + std::to_string(k) +
                               " gave another result");
      return;
    }
    oracle.Reset();
  }
  const std::vector<const ReadRecord*>& last = by_epoch.back();
  if (!last.empty() && !CheckAnchor(&replay, last.back()->sources)) {
    report->errors.push_back("brute-force oracle disagrees with kNaive");
  }
  if (mismatches.load() > 0) {
    report->errors.push_back(std::to_string(mismatches.load()) + " of " +
                             std::to_string(checked) +
                             " reads differ from the oracle");
  }

  if (options.trace) {
    ReportLayers(windows, workload.get(), spec, &traced, report);
    const double mutation_p50 = Median(mutation_us);
    report->values["gen.mutation_us_p50"] = mutation_p50;
    report->values["exec.barrier_wait_ms_p50"] =
        std::max(0.0, report->values["write_p50_ms"] - mutation_p50 / 1e3);
    report->values["cache.bytes"] = cache_bytes;
    report->values["cache.invalidations_per_write"] =
        world.log.empty()
            ? 0.0
            : static_cast<double>(cache.invalidations + cache.evictions) /
                  world.log.size();
    if (!traced.WriteJsonl(options.out_dir + "/spans-hot_churn_au.jsonl")) {
      report->errors.push_back("cannot write spans");
    }
  }
}

}  // namespace msqbench
