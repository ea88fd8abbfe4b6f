// Measurement helpers of the msq benchmark: percentiles and the tail rule,
// the seeded open-loop schedule, due-time latency accounting, CPU
// attribution, metric-name checks, in-memory spans and the result line.
// Everything here is independent of the msq library so it can be unit
// tested on its own (bench_util_test.cc).
#ifndef MSQBENCH_BENCH_UTIL_H_
#define MSQBENCH_BENCH_UTIL_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace msqbench {

// Nearest-rank percentile (p in (0, 100]) of an unsorted sample; 0 when
// the sample is empty.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);

// Samples ranked strictly above the nearest-rank p-th percentile of n.
std::size_t SamplesBeyond(std::size_t n, double p);

// The highest of p99, p95 and p90 that leaves at least 10 samples beyond
// it, or 0 when even p90 does not (n < 100).
double SupportedTailPercentile(std::size_t n);

// Poisson arrival offsets (seconds from phase start) at `rate_per_s` over
// `seconds`, drawn from `seed` alone: the same seed yields the same
// schedule.
std::vector<double> PoissonSchedule(std::uint64_t seed, double rate_per_s,
                                    double seconds);

// Timing of one open-loop request on the benchmark's clock.
struct RequestTiming {
  double due = 0.0;      // when the schedule says it is sent
  double claimed = 0.0;  // when a connection became free for it
  double sent = 0.0;     // when its bytes were handed to the socket
  double done = 0.0;     // when its reply was read
};

// Latency as the user sees it: from the due time, so a request that waited
// for a free connection (or behind a stall) carries that wait.
double DueLatency(const RequestTiming& t);

// How late the generator itself sent the request: time from the moment it
// could have sent (due, or later when no connection was free) to the send.
double GeneratorLag(const RequestTiming& t);

// CPU the program spent: process CPU minus the CPU of the benchmark's own
// generator threads (each measured with CLOCK_THREAD_CPUTIME_ID), never
// negative.
double ProgramCpuSeconds(double process_cpu_delta,
                         const std::vector<double>& generator_cpu_deltas);

double ProcessCpuSeconds();
double ThreadCpuSeconds();
double NowSeconds();  // steady clock
void SleepUntil(double when);

// Program CPU per time slice of a measured window. Generator threads
// publish their own thread CPU after each request; the measuring thread
// marks each slice boundary, taking process CPU minus the latest published
// generator CPU. Reporting the median over slices keeps a few seconds of
// interference from a neighbour on the host out of the run's number.
class CpuSlices {
 public:
  explicit CpuSlices(std::size_t generators)
      : published_(generators) {}
  // From generator thread `g`.
  void Publish(std::size_t g) {
    published_[g].store(ThreadCpuSeconds(), std::memory_order_relaxed);
  }
  // From the measuring thread, at the window start and each slice end.
  void Mark();
  // Program CPU seconds of each slice (marks - 1 entries).
  std::vector<double> SliceCpu() const;

 private:
  std::vector<std::atomic<double>> published_;
  std::vector<double> generator_base_;
  std::vector<double> marks_;  // program CPU at each mark
};

// Median of per-slice ratios numerator[i] / denominator[i], over slices
// whose denominator is positive; 0 when there are none.
double MedianRatio(const std::vector<double>& numerator,
                   const std::vector<double>& denominator);

// Peak resident set (VmHWM) in MiB, 0 if unreadable.
double PeakRssMb();

// Metric names: a letter or digit first, then letters, digits, '_', '.'
// and '-', at most 64 characters.
bool ValidMetricName(std::string_view name);

// Deterministic 64-bit mix of (seed, stream, index): per-request inputs
// that do not depend on which thread generates them.
std::uint64_t MixSeed(std::uint64_t seed, std::uint64_t stream,
                      std::uint64_t index);
// Uniform double in [0, 1) from MixSeed(seed, stream, index).
double UnitDouble(std::uint64_t seed, std::uint64_t stream,
                  std::uint64_t index);

// One metric of the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
std::string ResultJson(bool correct, std::uint64_t attempted,
                       std::uint64_t failed,
                       const std::vector<Metric>& metrics);

// In-memory span log of the traced run. Spans of one request share
// `request`; `parent` is the id of the enclosing span (0 = root). Counts
// recorded at the same boundary ride along in `count`.
struct Span {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
  double start = 0.0;
  double end = 0.0;
  std::uint64_t count = 0;
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  // Returns the new span's id, or 0 when disabled.
  std::uint64_t Record(std::string_view name, std::uint64_t parent,
                       std::uint64_t request, double start, double end,
                       std::uint64_t count = 0);
  std::size_t size() const;
  // Writes every span as one JSON line; false on I/O failure.
  bool WriteJsonl(const std::string& path) const;

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;
};

}  // namespace msqbench

#endif  // MSQBENCH_BENCH_UTIL_H_
