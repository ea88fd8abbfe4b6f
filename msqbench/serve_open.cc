// serve_open_ca: loopback NDJSON over at most kConnections persistent
// connections into an in-process MsqServer with msq_server's defaults (2
// workers, no cache).
//
// Phases:
//   closed — each connection sends its next request when the previous
//            reply arrives, for the whole run: the end-to-end metrics;
//   traced — (traced run only) a traced copy of the closed phase: spans
//            and per-layer numbers; the two give bench.trace_overhead_pct;
//   ladder — (traced run only) open loop: seeded Poisson arrivals timed
//            from their due time, bisected over a fixed geometric grid of
//            rates for max_rate_under_slo_qps, a per-layer row.
// The end-to-end phase is a closed loop, not an open loop at a fixed rate:
// at 60/s and 120/s on a shared 4-vCPU VM the vCPUs idle between requests,
// and waking them under the host's contention spread the median latency by
// 30-41% between runs while CPU per read spread by 8%. A saturated server
// keeps them busy.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <deque>
#include <limits>
#include <thread>

#include "exec/query_executor.h"
#include "oracle.h"
#include "run.h"
#include "serve/json.h"
#include "serve/server.h"
#include "serve/socket.h"

namespace msqbench {
namespace {

using msq::Algorithm;

constexpr std::size_t kConnections = 4;
// Length of the fixed cyclic request sequence: about what one default-
// length run completes, so a run's requests are each fresh and every run
// sends about the same ones; seeds differ in order, not in content.
constexpr std::uint64_t kRequestCycle = 6000;
// Requests prepared for the closed phase, per second of it.
constexpr double kMaxClosedRate = 1000.0;
// The closed phase's CPU and latency numbers are medians over this many
// equal time slices.
constexpr int kServeSlices = 8;
// Rate ladder: kLadderBase * kLadderStep^k for k < kLadderRungs (up to
// about 420/s; two workers sustain about 260/s), bisected in about
// kLadderProbes rungs of kLadderShare of the run together. Every rung
// replays the same requests on the same unit-rate arrival sequence scaled
// to its rate (common random numbers), so rungs differ only in rate.
constexpr double kLadderBase = 60.0;
constexpr double kLadderStep = 1.04;
constexpr int kLadderRungs = 50;
constexpr int kLadderProbes = 7;
constexpr double kLadderShare = 0.4;
// A rung meets the SLO when the p90 latency (from the due time, shed and
// failed requests counting as misses) of the whole rung and of its last
// third are within kSloMs: a growing backlog shows in the last third.
constexpr double kLadderTail = 90.0;
constexpr double kSloMs = 100.0;
// A run whose generator sent its p99 request later than this after it
// could have is invalid: the numbers would describe the generator. (Near
// saturation the four client threads compete with the server's threads
// for four cores, so wake-ups run a few ms late.)
constexpr double kMaxGenLagMs = 10.0;

const Algorithm kAlgorithms[] = {Algorithm::kCe, Algorithm::kEdc,
                                 Algorithm::kLbc};

enum Outcome { kOk, kTruncated, kShed, kFailed };

struct Request {
  ReadRecord read;
  std::string text;
};

struct Served {
  RequestTiming t;
  Outcome outcome = kFailed;
  bool sent = false;
  double queue_ms = 0.0;
  double wall_ms = 0.0;
};

struct Phase {
  std::vector<Request> requests;
  std::vector<Served> served;
  double start = 0.0;
  double program_cpu = 0.0;
  double slice_seconds = 0.0;
  std::vector<double> slice_cpu;  // program CPU per slice
  Ledger ledger;
};

// Requests first, first + 1, ... of the fixed cyclic request sequence
// entered at `offset`.
std::vector<Request> MakeRequests(const msq::Workload& workload,
                                  std::uint64_t offset, std::uint64_t first,
                                  std::size_t n) {
  std::vector<Request> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    const std::uint64_t i = (offset + first + k) % kRequestCycle;
    ReadRecord& read = out[k].read;
    // Algorithm and |Q| in 2..5 cycle so every 12 requests hold each pair
    // once; only the source positions are random.
    read.algorithm = kAlgorithms[i % 3];
    const std::size_t count = 2 + (i / 3) % 4;
    read.sources =
        workload.SampleQuery(count, MixSeed(kPoolSeed, 4, i), 0.1).sources;
    out[k].text = QueryText(read.algorithm, read.sources) + "\n";
  }
  return out;
}

// Reads one reply into `served` and `read`.
void ParseReply(const std::string& line, Served* served, ReadRecord* read) {
  msq::serve::JsonLimits limits;
  limits.max_bytes = 64u << 20;
  limits.max_values = 1u << 24;
  const msq::StatusOr<msq::serve::JsonValue> json =
      msq::serve::ParseJson(line, limits);
  if (!json.ok() || !json.value().is_object()) return;
  const msq::serve::JsonValue& v = json.value();
  if (const msq::serve::JsonValue* error = v.Find("error")) {
    const msq::serve::JsonValue* code =
        error->is_object() ? error->Find("code") : nullptr;
    const std::string name =
        code != nullptr && code->is_string() ? code->AsString() : "";
    served->outcome = name == "RESOURCE_EXHAUSTED" || name == "UNAVAILABLE"
                          ? kShed
                          : kFailed;
    return;
  }
  const msq::serve::JsonValue* truncated = v.Find("truncated");
  const msq::serve::JsonValue* skyline = v.Find("skyline");
  const msq::serve::JsonValue* stats = v.Find("stats");
  if (truncated == nullptr || skyline == nullptr || stats == nullptr ||
      !skyline->is_array() || !stats->is_object()) {
    return;
  }
  served->outcome = truncated->AsBool() ? kTruncated : kOk;
  read->ok = served->outcome == kOk;
  auto number = [&](const char* key) {
    const msq::serve::JsonValue* f = stats->Find(key);
    return f != nullptr && f->is_number() ? f->AsNumber() : 0.0;
  };
  served->queue_ms = number("queue_ms");
  served->wall_ms = number("wall_ms");
  read->stats.network_pages =
      static_cast<std::uint64_t>(number("network_pages"));
  read->stats.index_pages = static_cast<std::uint64_t>(number("index_pages"));
  read->stats.settled_nodes =
      static_cast<std::size_t>(number("settled_nodes"));
  for (const msq::serve::JsonValue& entry : skyline->AsArray()) {
    const msq::serve::JsonValue* object = entry.Find("object");
    const msq::serve::JsonValue* vector = entry.Find("vector");
    if (object == nullptr || !object->is_number() || vector == nullptr ||
        !vector->is_array()) {
      served->outcome = kFailed;  // a malformed reply is a failed request
      read->ok = false;
      return;
    }
    msq::SkylineEntry e;
    e.object = static_cast<msq::ObjectId>(object->AsNumber());
    for (const msq::serve::JsonValue& d : vector->AsArray()) {
      e.vector.push_back(d.AsNumber());
    }
    read->skyline.push_back(std::move(e));
  }
}

// Sends `phase.requests` on the schedule `due` (offsets from now + lead),
// each connection carrying one request at a time. Requests whose
// connection frees up after `abandon_after` seconds past the last due time
// are never sent (and not attempted).
// With an empty `due` the phase is a closed loop instead: each connection
// sends its next request as soon as the previous reply arrives, until
// `seconds` have passed.
void RunPhase(const std::vector<int>& fds, const std::vector<double>& due,
              double seconds, double abandon_after, SpanLog* spans,
              Phase* phase) {
  const bool closed = due.empty();
  const std::size_t n = phase->requests.size();
  phase->served.assign(n, Served{});
  phase->start = NowSeconds() + 0.02;
  const double abandon_at =
      phase->start + (closed ? seconds : due.back() + abandon_after);
  std::atomic<std::size_t> next{0};
  std::vector<double> gen_cpu(fds.size(), 0.0);
  CpuSlices slices(fds.size());
  const double p0 = ProcessCpuSeconds();
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < fds.size(); ++c) {
    clients.emplace_back([&, c] {
      const double c0 = ThreadCpuSeconds();
      msq::serve::FrameReader reader(fds[c], 64u << 20);
      for (;;) {
        const double claimed = NowSeconds();
        const std::size_t i = next.fetch_add(1);
        if (i >= n || claimed > abandon_at) break;
        Served& s = phase->served[i];
        ReadRecord& read = phase->requests[i].read;
        s.t.due = closed ? std::max(claimed, phase->start)
                         : phase->start + due[i];
        s.t.claimed = claimed;
        SleepUntil(s.t.due);
        s.t.sent = NowSeconds();
        s.sent = true;
        if (msq::serve::WriteAll(fds[c], phase->requests[i].text).ok()) {
          msq::StatusOr<std::string> line = reader.ReadLine();
          s.t.done = NowSeconds();
          if (line.ok()) ParseReply(line.value(), &s, &read);
        } else {
          s.t.done = NowSeconds();
        }
        if (spans->enabled()) {
          const std::uint64_t root =
              spans->Record("client.request", 0, i, s.t.due, s.t.done);
          spans->Record("client.wait_connection", root, i, s.t.due,
                        std::max(s.t.due, s.t.claimed));
          spans->Record("client.round_trip", root, i, s.t.sent, s.t.done,
                        read.stats.network_pages);
        }
        slices.Publish(c);
      }
      gen_cpu[c] = ThreadCpuSeconds() - c0;
    });
  }
  phase->slice_seconds = seconds / kServeSlices;
  SleepUntil(phase->start);
  slices.Mark();
  for (int k = 1; k <= kServeSlices; ++k) {
    SleepUntil(phase->start + k * phase->slice_seconds);
    slices.Mark();
  }
  for (std::thread& t : clients) t.join();
  phase->slice_cpu = slices.SliceCpu();
  phase->program_cpu = ProgramCpuSeconds(ProcessCpuSeconds() - p0, gen_cpu);
  for (const Served& s : phase->served) {
    if (!s.sent) continue;
    phase->ledger.attempted += 1;
    phase->ledger.ok += s.outcome == kOk;
    phase->ledger.truncated += s.outcome == kTruncated;
    phase->ledger.shed += s.outcome == kShed;
    phase->ledger.failed += s.outcome == kFailed;
  }
}

// Latencies from the due time; shed and failed requests are misses.
std::vector<double> LatenciesMs(const Phase& phase) {
  std::vector<double> ms;
  for (const Served& s : phase.served) {
    if (!s.sent) continue;
    ms.push_back(s.outcome == kOk || s.outcome == kTruncated
                     ? DueLatency(s.t) * 1e3
                     : std::numeric_limits<double>::infinity());
  }
  return ms;
}

// End-to-end and serve/exec layer numbers of a closed phase; returns its
// cpu_ms_per_query.
double ReportClosed(const Phase& phase, const WorkloadSpec& spec,
                    RunReport* report) {
  auto& v = report->values;
  const double tail = spec.tail_percentile;
  const double reads = static_cast<double>(phase.ledger.ok);
  std::vector<double> queue_ms, overhead_ms;
  std::vector<double> slice_reads(kServeSlices, 0.0);
  // Latency percentiles per slice too: a burst of host interference then
  // spoils one slice, not the run.
  std::vector<std::vector<double>> slice_latency(kServeSlices);
  double net_pages = 0.0;
  for (std::size_t i = 0; i < phase.served.size(); ++i) {
    const Served& s = phase.served[i];
    const int k = static_cast<int>((s.t.done - phase.start) /
                                   phase.slice_seconds);
    if (!s.sent || k < 0 || k >= kServeSlices) continue;
    slice_latency[k].push_back(s.outcome == kOk || s.outcome == kTruncated
                                   ? DueLatency(s.t) * 1e3
                                   : std::numeric_limits<double>::infinity());
    if (s.outcome != kOk) continue;
    slice_reads[k] += 1;
    queue_ms.push_back(s.queue_ms);
    // The reply's wall_ms spans admission to result and so already holds
    // queue_ms; what is left of the round trip is parse, encode, sockets.
    overhead_ms.push_back((s.t.done - s.t.sent) * 1e3 - s.wall_ms);
    net_pages += phase.requests[i].read.stats.network_pages;
  }
  std::vector<double> p50, p_tail;
  for (const std::vector<double>& latency : slice_latency) {
    if (SupportedTailPercentile(latency.size()) < tail) {
      report->errors.push_back("a slice has too few reads for p" +
                               std::to_string(static_cast<int>(tail)));
    }
    p50.push_back(Median(latency));
    p_tail.push_back(Percentile(latency, tail));
  }
  std::vector<double> slice_ms;
  for (const double cpu : phase.slice_cpu) slice_ms.push_back(cpu * 1e3);
  const double seconds = kServeSlices * phase.slice_seconds;
  const double cpu_ms_per_query = MedianRatio(slice_ms, slice_reads);
  v["throughput_qps"] = reads / seconds;
  v["latency_p50_ms"] = Median(p50);
  v["latency_tail_ms"] = Median(p_tail);
  v["cpu_ms_per_query"] = cpu_ms_per_query;
  // The pools hold all of CA, so the misses are the cold start's: over the
  // whole phase, not per slice.
  v["net_pages_per_query"] = reads > 0 ? net_pages / reads : 0.0;
  v["serve.overhead_ms_p50"] = Median(overhead_ms);
  v["exec.queue_wait_ms_p50"] = Median(queue_ms);
  v["exec.queue_wait_ms_tail"] = Percentile(queue_ms, tail);
  v["exec.cpu_util"] = phase.program_cpu / (seconds * spec.workers);
  v["serve.shed_frac"] =
      phase.ledger.attempted > 0
          ? static_cast<double>(phase.ledger.shed) / phase.ledger.attempted
          : 0.0;
  return cpu_ms_per_query;
}

bool RungMeetsSlo(const Phase& phase, double rung_seconds) {
  const std::vector<double> latency = LatenciesMs(phase);
  std::vector<double> last_third;
  for (const Served& s : phase.served) {
    if (s.t.due >= phase.start + rung_seconds * 2.0 / 3.0) {
      last_third.push_back(s.sent && (s.outcome == kOk || s.outcome == kTruncated)
                               ? DueLatency(s.t) * 1e3
                               : std::numeric_limits<double>::infinity());
    }
  }
  return latency.size() >= 20 && !last_third.empty() &&
         Percentile(latency, kLadderTail) <= kSloMs &&
         Percentile(last_third, kLadderTail) <= kSloMs;
}

// GET /statz over a fresh HTTP connection.
bool FetchStatz(std::uint16_t port, msq::serve::JsonValue* out) {
  msq::StatusOr<int> fd = msq::serve::ConnectTcp("127.0.0.1", port);
  if (!fd.ok()) return false;
  const std::string request =
      "GET /statz HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n";
  std::string response;
  if (msq::serve::WriteAll(fd.value(), request).ok()) {
    char buf[4096];
    for (ssize_t n; (n = ::read(fd.value(), buf, sizeof(buf))) > 0;) {
      response.append(buf, static_cast<std::size_t>(n));
    }
  }
  ::close(fd.value());
  const std::size_t body = response.find("\r\n\r\n");
  if (body == std::string::npos) return false;
  msq::StatusOr<msq::serve::JsonValue> json =
      msq::serve::ParseJson(response.substr(body + 4));
  if (!json.ok()) return false;
  *out = json.value();
  return true;
}

}  // namespace

void RunServeOpen(const RunOptions& options, RunReport* report) {
  const WorkloadSpec& spec = *FindWorkload("serve_open_ca");
  msq::serve::IgnoreSigpipe();
  // Declared in the order they may be destroyed in reverse.
  std::unique_ptr<msq::Workload> workload;
  std::unique_ptr<msq::QueryExecutor> executor;
  std::unique_ptr<msq::serve::MsqServer> server;
  workload = TimedSetup(
      MakeConfig(spec), kSetups,
      [&](msq::Workload* w) {
        executor = std::make_unique<msq::QueryExecutor>(w->dataset(),
                                                        spec.workers);
        server = std::make_unique<msq::serve::MsqServer>(
            executor.get(), msq::serve::ServerConfig{});
        if (!server->Start().ok()) {
          report->errors.push_back("server failed to start");
        }
      },
      [&] {
        server.reset();
        executor.reset();
      },
      report);
  if (!report->errors.empty()) return;
  workload->ResetBuffers();
  report->stamp["workers"] = std::to_string(spec.workers);
  report->stamp["connections"] = std::to_string(kConnections);

  std::vector<int> fds;
  for (std::size_t c = 0; c < kConnections; ++c) {
    msq::StatusOr<int> fd = msq::serve::ConnectTcp("127.0.0.1", server->port());
    if (!fd.ok()) {
      report->errors.push_back("cannot connect to the server");
      for (int open : fds) ::close(open);
      return;
    }
    (void)msq::serve::SetSocketTimeouts(fd.value(), 30.0, 30.0);
    fds.push_back(fd.value());
  }

  SpanLog untraced(false), traced(true);
  std::deque<Phase> phases;  // stable references
  const std::uint64_t offset = MixSeed(options.seed, 11, 0) % kRequestCycle;
  // Runs `seconds` of Poisson arrivals at `rate`: unit-rate arrivals from
  // `stream` scaled by 1/rate, carrying requests first, first + 1, ...
  auto run = [&](double rate, double seconds, std::uint64_t stream,
                 std::uint64_t first, double abandon_after,
                 SpanLog* spans) -> Phase& {
    std::vector<double> due = PoissonSchedule(MixSeed(options.seed, stream, 0),
                                              1.0, rate * seconds);
    for (double& t : due) t /= rate;
    Phase& phase = phases.emplace_back();
    phase.requests = MakeRequests(*workload, offset, first, due.size());
    RunPhase(fds, due, seconds, abandon_after, spans, &phase);
    return phase;
  };

  // Closed phase: requests first, first + 1, ... sent back to back.
  auto run_closed = [&](std::uint64_t first, SpanLog* spans) -> Phase& {
    Phase& phase = phases.emplace_back();
    phase.requests = MakeRequests(
        *workload, offset, first,
        static_cast<std::size_t>(kMaxClosedRate * options.seconds));
    RunPhase(fds, {}, options.seconds, 0.0, spans, &phase);
    return phase;
  };

  const double untraced_cpu =
      ReportClosed(run_closed(0, &untraced), spec, report);
  report->values["rss_peak_mb"] = PeakRssMb();
  const std::map<std::string, double> e2e = report->values;
  if (options.trace) {
    const double traced_cpu =
        ReportClosed(run_closed(1u << 20, &traced), spec, report);
    report->values["bench.trace_overhead_pct"] =
        untraced_cpu > 0 ? (traced_cpu / untraced_cpu - 1.0) * 100.0 : 0.0;
    // The end-to-end numbers stay those of the untraced phase.
    for (const char* key : {"throughput_qps", "latency_p50_ms",
                            "latency_tail_ms", "cpu_ms_per_query",
                            "net_pages_per_query"}) {
      report->values[key] = e2e.at(key);
    }

    // Ladder: bisection on the grid; lo passes, hi misses (the grid's end
    // is assumed to).
    const double rung_seconds =
        options.seconds * kLadderShare / kLadderProbes;
    int lo = -1;
    int hi = kLadderRungs;
    while (hi - lo > 1) {
      const int mid = lo < 0 ? 0 : (lo + hi) / 2;
      const double rate = kLadderBase * std::pow(kLadderStep, mid);
      const Phase& rung =
          run(rate, rung_seconds, 200, 2u << 20, 0.25, &untraced);
      const bool pass = RungMeetsSlo(rung, rung_seconds);
      std::fprintf(stderr, "  ladder %.1f/s: p%.0f %.2f ms -> %s\n", rate,
                   kLadderTail, Percentile(LatenciesMs(rung), kLadderTail),
                   pass ? "meets SLO" : "misses SLO");
      (pass ? lo : hi) = mid;
      if (lo < 0 && !pass) break;  // even the lowest rate misses
    }
    report->values["max_rate_under_slo_qps"] =
        lo < 0 ? 0.0 : kLadderBase * std::pow(kLadderStep, lo);
  }

  // Conservation: the client ledger against the server's /statz.
  Ledger ledger;
  std::vector<double> lag_ms;
  for (const Phase& phase : phases) {
    ledger.Add(phase.ledger);
    for (const Served& s : phase.served) {
      if (s.sent) lag_ms.push_back(GeneratorLag(s.t) * 1e3);
    }
  }
  report->ledger = ledger;
  msq::serve::JsonValue statz;
  if (!FetchStatz(server->port(), &statz)) {
    report->errors.push_back("GET /statz failed");
  } else {
    auto count = [&](const char* key) {
      const msq::serve::JsonValue* f = statz.Find(key);
      return f != nullptr && f->is_number()
                 ? static_cast<std::uint64_t>(f->AsNumber())
                 : ~0ULL;
    };
    if (count("received") != ledger.attempted ||
        count("completed") != ledger.ok ||
        count("truncated") != ledger.truncated ||
        count("shed") != ledger.shed ||
        count("failed") + count("rejected") != ledger.failed) {
      report->errors.push_back("client ledger does not match /statz");
    }
  }
  for (int fd : fds) ::close(fd);
  server->Shutdown();
  const std::string violation = server->admission().CheckConservation();
  if (!violation.empty()) report->errors.push_back(violation);

  const double lag_p99 = Percentile(lag_ms, 99.0);
  report->values["bench.gen_lag_ms_p99"] = lag_p99;
  if (lag_p99 > kMaxGenLagMs) {
    report->errors.push_back("invalid run: generator lag p99 " +
                             std::to_string(lag_p99) + " ms");
  }
  report->values["failed_frac"] =
      static_cast<double>(ledger.failed + ledger.shed + ledger.truncated) /
      std::max<std::uint64_t>(1, ledger.attempted);

  std::vector<const ReadRecord*> reads;
  for (const Phase& phase : phases) {
    for (std::size_t i = 0; i < phase.requests.size(); ++i) {
      if (phase.served[i].sent) reads.push_back(&phase.requests[i].read);
    }
  }
  CheckReads(workload.get(), reads, report);

  if (options.trace) {
    // The served replies carry only a few counters; the QueryStats-derived
    // layer numbers come from running the traced phase's own requests
    // directly against the (now idle) dataset.
    std::vector<ReadRecord> direct;
    const Phase& phase = phases[1];  // the traced closed phase
    for (std::size_t i = 0; i < phase.requests.size() && i < 300; ++i) {
      ReadRecord r = phase.requests[i].read;
      msq::SkylineQuerySpec query;
      query.sources = r.sources;
      const double t0 = NowSeconds();
      msq::SkylineResult result =
          msq::RunSkylineQuery(r.algorithm, workload->dataset(), query);
      traced.Record("core.run", 0, i, t0, NowSeconds(),
                    result.stats.settled_nodes);
      r.skyline = std::move(result.skyline);
      r.stats = result.stats;
      direct.push_back(std::move(r));
    }
    std::vector<const ReadRecord*> sample;
    for (const ReadRecord& r : direct) sample.push_back(&r);
    FillStatsLayers(sample, report);
    ProbeLayers(workload.get(), sample, &traced, report);
    report->values["obs.telemetry_cpu_pct"] =
        TelemetryCpuPct(workload.get(), spec.workers, sample, 2.0);
    // Mutations last: they change the world the reads were checked on.
    report->values["gen.mutation_us_p50"] =
        Median(ProbeMutations(workload.get(), options.seed, 20));
    for (const char* absent :
         {"write_p50_ms", "write_tail_ms", "exec.barrier_wait_ms_p50",
          "cache.bytes", "cache.invalidations_per_write"}) {
      report->values[absent] = 0.0;
    }
    if (!traced.WriteJsonl(options.out_dir + "/spans-serve_open_ca.jsonl")) {
      report->errors.push_back("cannot write spans");
    }
  }
}

}  // namespace msqbench
