#include "bench_util.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <thread>

namespace msqbench {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  std::size_t rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return values[rank - 1];
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

std::size_t SamplesBeyond(std::size_t n, double p) {
  if (n == 0) return 0;
  const std::size_t rank = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::ceil(p / 100.0 * n)), 1, n);
  return n - rank;
}

double SupportedTailPercentile(std::size_t n) {
  for (const double p : {99.0, 95.0, 90.0}) {
    if (SamplesBeyond(n, p) >= 10) return p;
  }
  return 0.0;
}

namespace {

std::uint64_t SplitMix(std::uint64_t* state) {
  std::uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

std::uint64_t MixSeed(std::uint64_t seed, std::uint64_t stream,
                      std::uint64_t index) {
  std::uint64_t state = seed * 0x100000001b3ULL ^ stream;
  SplitMix(&state);
  state ^= index * 0xd6e8feb86659fd93ULL;
  return SplitMix(&state);
}

double UnitDouble(std::uint64_t seed, std::uint64_t stream,
                  std::uint64_t index) {
  return static_cast<double>(MixSeed(seed, stream, index) >> 11) /
         9007199254740992.0;  // 2^53
}

std::vector<double> PoissonSchedule(std::uint64_t seed, double rate_per_s,
                                    double seconds) {
  std::vector<double> due;
  if (rate_per_s <= 0.0 || seconds <= 0.0) return due;
  std::uint64_t state = seed;
  double t = 0.0;
  for (;;) {
    // Uniform in (0, 1]: 53 random bits, shifted off zero.
    const double u =
        (static_cast<double>(SplitMix(&state) >> 11) + 1.0) / 9007199254740992.0;
    t += -std::log(u) / rate_per_s;
    if (t >= seconds) break;
    due.push_back(t);
  }
  return due;
}

double DueLatency(const RequestTiming& t) { return t.done - t.due; }

double GeneratorLag(const RequestTiming& t) {
  return std::max(0.0, t.sent - std::max(t.due, t.claimed));
}

double ProgramCpuSeconds(double process_cpu_delta,
                         const std::vector<double>& generator_cpu_deltas) {
  const double generators = std::accumulate(generator_cpu_deltas.begin(),
                                            generator_cpu_deltas.end(), 0.0);
  return std::max(0.0, process_cpu_delta - generators);
}

namespace {

double ClockSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

}  // namespace

double ProcessCpuSeconds() { return ClockSeconds(CLOCK_PROCESS_CPUTIME_ID); }
double ThreadCpuSeconds() { return ClockSeconds(CLOCK_THREAD_CPUTIME_ID); }

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SleepUntil(double when) {
  const double wait = when - NowSeconds();
  if (wait > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(wait));
  }
}

void CpuSlices::Mark() {
  // Threads publish their own clock, so a generator's base is its first
  // published value (0 until it publishes: it then has used ~no CPU).
  if (generator_base_.empty()) {
    for (const std::atomic<double>& p : published_) {
      generator_base_.push_back(p.load(std::memory_order_relaxed));
    }
  }
  double generators = 0.0;
  for (std::size_t g = 0; g < published_.size(); ++g) {
    generators += published_[g].load(std::memory_order_relaxed) -
                  generator_base_[g];
  }
  marks_.push_back(ProcessCpuSeconds() - generators);
}

std::vector<double> CpuSlices::SliceCpu() const {
  std::vector<double> out;
  for (std::size_t i = 1; i < marks_.size(); ++i) {
    out.push_back(std::max(0.0, marks_[i] - marks_[i - 1]));
  }
  return out;
}

double MedianRatio(const std::vector<double>& numerator,
                   const std::vector<double>& denominator) {
  std::vector<double> ratios;
  for (std::size_t i = 0; i < numerator.size() && i < denominator.size();
       ++i) {
    if (denominator[i] > 0.0) ratios.push_back(numerator[i] / denominator[i]);
  }
  return Median(ratios);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

std::string ResultJson(bool correct, std::uint64_t attempted,
                       std::uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    // %.17g keeps every digit; non-finite values are not JSON, so they
    // are reported as 0 and the caller's checks decide the run's fate.
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

std::uint64_t SpanLog::Record(std::string_view name, std::uint64_t parent,
                              std::uint64_t request, double start,
                              double end, std::uint64_t count) {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t id = next_id_++;
  spans_.push_back(
      Span{std::string(name), id, parent, request, start, end, count});
  return id;
}

std::size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool SpanLog::WriteJsonl(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                 "\"request\":%llu,\"start_s\":%.9f,\"end_s\":%.9f,"
                 "\"count\":%llu}\n",
                 s.name.c_str(), static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.start, s.end,
                 static_cast<unsigned long long>(s.count));
  }
  return std::fclose(f) == 0;
}

}  // namespace msqbench
