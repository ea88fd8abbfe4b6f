// Workload settings, timed set-up, the oracle check and the per-layer
// probes shared by the three workloads.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>

#include "common/rng.h"
#include "core/dominance.h"
#include "exec/query_executor.h"
#include "graph/dijkstra.h"
#include "oracle.h"
#include "run.h"
#include "serve/request.h"

namespace msqbench {

using msq::Algorithm;

namespace {

// Tail percentiles are fixed per workload from its sample size at the
// default run length (see SupportedTailPercentile): each slice of the
// served closed phase holds about 600 reads, the NA batch a few hundred
// reads, the churn about a thousand.
const WorkloadSpec kWorkloads[] = {
    {"serve_open_ca", msq::NetworkClass::kCA, 1.0, 2, 95.0},
    {"batch_cold_na", msq::NetworkClass::kNA, 0.5, 4, 90.0},
    {"hot_churn_au", msq::NetworkClass::kAU, 1.0, 4, 95.0},
};

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

msq::WorkloadConfig MakeConfig(const WorkloadSpec& spec) {
  msq::WorkloadConfig config;
  config.network = msq::PaperNetworkConfig(spec.network, spec.scale, 12);
  config.object_density = 0.5;
  return config;
}

std::unique_ptr<msq::Workload> TimedSetup(
    const msq::WorkloadConfig& config, int repeats,
    const std::function<void(msq::Workload*)>& ready,
    const std::function<void()>& teardown, RunReport* report) {
  std::vector<double> build_s, setup_s;
  std::unique_ptr<msq::Workload> workload;
  for (int i = 0; i < repeats; ++i) {
    if (workload != nullptr) teardown();
    workload.reset();
    const double t0 = NowSeconds();
    workload = std::make_unique<msq::Workload>(config);
    const double t1 = NowSeconds();
    ready(workload.get());
    const double t2 = NowSeconds();
    build_s.push_back(t1 - t0);
    setup_s.push_back(t2 - t0);
  }
  report->values["gen.build_s"] = Median(build_s);
  report->values["setup_s"] = Median(setup_s);
  return workload;
}

void FillStatsLayers(const std::vector<const ReadRecord*>& reads,
                     RunReport* report) {
  auto& v = report->values;
  double n = 0, dom = 0, avoided = 0, pruned = 0, examined = 0, settled = 0,
         net = 0, net_acc = 0, idx = 0, idx_acc = 0, wf_hit = 0, wf_miss = 0,
         memo_hit = 0, memo_miss = 0;
  std::map<Algorithm, std::vector<double>> ms;
  std::map<Algorithm, double> candidates;
  for (const ReadRecord* r : reads) {
    const msq::QueryStats& s = r->stats;
    n += 1;
    dom += s.dominance_tests;
    avoided += s.dominance_tests_avoided;
    pruned += s.bound_pruned;
    examined += s.bound_examined;
    settled += s.settled_nodes;
    net += s.network_pages;
    net_acc += s.network_page_accesses;
    idx += s.index_pages;
    idx_acc += s.index_page_accesses;
    wf_hit += s.cache_wavefront_hits;
    wf_miss += s.cache_wavefront_misses;
    memo_hit += s.cache_memo_hits;
    memo_miss += s.cache_memo_misses;
    ms[r->algorithm].push_back(s.total_seconds * 1e3);
    candidates[r->algorithm] += s.candidate_count;
  }
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  for (const Algorithm algo :
       {Algorithm::kCe, Algorithm::kEdc, Algorithm::kLbc}) {
    const std::string name(msq::AlgorithmName(algo));
    v["core." + name + ".ms_p50"] = Median(ms[algo]);
    v["core." + name + ".candidates"] =
        ratio(candidates[algo], static_cast<double>(ms[algo].size()));
  }
  v["core.dominance_tests_per_query"] = ratio(dom, n);
  v["core.dominance_avoided_per_query"] = ratio(avoided, n);
  v["core.dominance_avoided_frac"] = ratio(avoided, dom + avoided);
  v["core.bound_candidates_per_query"] = ratio(pruned + examined, n);
  v["core.bound_pruned_frac"] = ratio(pruned, pruned + examined);
  v["graph.settled_per_query"] = ratio(settled, n);
  v["graph.net_pages_per_settled"] = ratio(net, settled);
  v["index.page_accesses_per_query"] = ratio(idx_acc, n);
  v["index.pages_per_query"] = ratio(idx, n);
  v["storage.net_page_accesses_per_query"] = ratio(net_acc, n);
  v["storage.net_hit_rate"] = ratio(net_acc - net, net_acc);
  v["storage.index_hit_rate"] = ratio(idx_acc - idx, idx_acc);
  v["cache.wavefront_lookups_per_query"] = ratio(wf_hit + wf_miss, n);
  v["cache.wavefront_hit_rate"] = ratio(wf_hit, wf_hit + wf_miss);
  v["cache.memo_lookups_per_query"] = ratio(memo_hit + memo_miss, n);
  v["cache.memo_hit_rate"] = ratio(memo_hit, memo_hit + memo_miss);
}

std::string QueryText(Algorithm algorithm,
                      const std::vector<msq::Location>& sources) {
  std::string out = "{\"algo\":\"";
  out += msq::AlgorithmName(algorithm);
  out += "\",\"sources\":[";
  for (std::size_t i = 0; i < sources.size(); ++i) {
    char buf[80];
    std::snprintf(buf, sizeof(buf), "%s{\"edge\":%u,\"offset\":%.17g}",
                  i > 0 ? "," : "", sources[i].edge, sources[i].offset);
    out += buf;
  }
  out += "]}";
  return out;
}

void ProbeLayers(msq::Workload* workload,
                 const std::vector<const ReadRecord*>& reads, SpanLog* spans,
                 RunReport* report) {
  auto& v = report->values;
  double probe_start = NowSeconds();
  const std::size_t sample = std::min<std::size_t>(reads.size(), 400);

  // serve: parse the run's own request texts, encode its own results.
  std::vector<double> parse_us, encode_us;
  for (std::size_t i = 0; i < sample; ++i) {
    const ReadRecord& r = *reads[i];
    const std::string text = QueryText(r.algorithm, r.sources);
    double t0 = NowSeconds();
    msq::StatusOr<msq::serve::ServeRequest> request =
        msq::serve::ParseServeRequestText(text);
    double t1 = NowSeconds();
    if (!request.ok()) {
      report->errors.push_back("request text does not parse: " + text);
      return;
    }
    parse_us.push_back((t1 - t0) * 1e6);
    msq::SkylineResult result;
    result.skyline = r.skyline;
    result.stats = r.stats;
    t0 = NowSeconds();
    const std::string body = msq::serve::EncodeResultResponse(
        request.value(), result, result.skyline.size(), 0.0, 0.0);
    t1 = NowSeconds();
    encode_us.push_back((t1 - t0) * 1e6);
    if (body.empty()) report->errors.push_back("empty encoded response");
  }
  spans->Record("probe.serve_parse_encode", 0, 0, probe_start, NowSeconds(),
                sample);
  v["serve.parse_us_p50"] = Median(parse_us);
  v["serve.encode_us_p50"] = Median(encode_us);
  probe_start = NowSeconds();

  // core: Dominates over all ordered pairs of each skyline. A skyline
  // point never dominates another, so any hit is a wrong answer.
  double dom_seconds = 0.0, pairs = 0.0;
  std::uint64_t dominated = 0;
  for (std::size_t i = 0; i < reads.size() && pairs < 4e6; ++i) {
    const std::vector<msq::SkylineEntry>& sky = reads[i]->skyline;
    const double t0 = NowSeconds();
    for (const msq::SkylineEntry& a : sky) {
      for (const msq::SkylineEntry& b : sky) {
        if (&a != &b && msq::Dominates(a.vector, b.vector)) ++dominated;
      }
    }
    dom_seconds += NowSeconds() - t0;
    pairs += static_cast<double>(sky.size()) * (sky.size() - 1);
  }
  if (dominated > 0) {
    report->errors.push_back(std::to_string(dominated) +
                             " skyline pairs where one point dominates");
  }
  spans->Record("probe.dominance", 0, 0, probe_start, NowSeconds(),
                static_cast<std::uint64_t>(pairs));
  v["core.dominance_ns"] = pairs > 0 ? dom_seconds * 1e9 / pairs : 0.0;
  probe_start = NowSeconds();

  // graph: NextSettled from each query source, settled_nodes/|Q| steps.
  const msq::Dataset dataset = workload->dataset();
  double settle_seconds = 0.0, steps = 0.0;
  for (std::size_t i = 0; i < std::min<std::size_t>(reads.size(), 60); ++i) {
    const ReadRecord& r = *reads[i];
    const std::size_t per_source =
        std::max<std::size_t>(1, r.stats.settled_nodes / r.sources.size());
    for (const msq::Location& source : r.sources) {
      msq::DijkstraSearch search(dataset.graph_pager, source);
      const double t0 = NowSeconds();
      std::size_t k = 0;
      while (k < per_source && search.NextSettled()) ++k;
      settle_seconds += NowSeconds() - t0;
      steps += static_cast<double>(k);
    }
  }
  spans->Record("probe.next_settled", 0, 0, probe_start, NowSeconds(),
                static_cast<std::uint64_t>(steps));
  v["graph.ns_per_settled"] = steps > 0 ? settle_seconds * 1e9 / steps : 0.0;
  probe_start = NowSeconds();

  // storage: Fetch of resident graph pages.
  const std::vector<msq::PageId>& pages = dataset.graph_pager->pages();
  const std::size_t resident = std::min<std::size_t>(pages.size(), 32);
  double fetches = 0.0, fetch_seconds = 0.0;
  for (int round = 0; round < 201; ++round) {
    const double t0 = NowSeconds();
    for (std::size_t p = 0; p < resident; ++p) {
      msq::StatusOr<msq::PageGuard> guard =
          dataset.graph_buffer->Fetch(pages[p]);
      if (!guard.ok()) {
        report->errors.push_back("graph page fetch failed");
        return;
      }
    }
    if (round == 0) continue;  // first round makes the pages resident
    fetch_seconds += NowSeconds() - t0;
    fetches += static_cast<double>(resident);
  }
  spans->Record("probe.fetch", 0, 0, probe_start, NowSeconds(),
                static_cast<std::uint64_t>(fetches));
  v["storage.fetch_ns"] = fetches > 0 ? fetch_seconds * 1e9 / fetches : 0.0;
}

std::vector<double> ProbeMutations(msq::Workload* workload,
                                   std::uint64_t seed, int n) {
  msq::Rng rng(MixSeed(seed, 7, 0));
  std::vector<double> us;
  const std::size_t edges = workload->network().edge_count();
  for (int i = 0; i < n; ++i) {
    const msq::EdgeId edge =
        static_cast<msq::EdgeId>(rng.NextBounded(edges));
    const double length =
        workload->network().EdgeAt(edge).length * (0.9 + 0.4 * rng.NextDouble());
    double t0 = NowSeconds();
    (void)workload->UpdateEdgeWeight(edge, length);
    us.push_back((NowSeconds() - t0) * 1e6);

    const msq::EdgeId at = static_cast<msq::EdgeId>(rng.NextBounded(edges));
    const msq::Location loc{
        at, workload->network().EdgeAt(at).length * rng.NextDouble()};
    t0 = NowSeconds();
    (void)workload->InsertObject(loc);
    us.push_back((NowSeconds() - t0) * 1e6);

    const msq::SpatialMapping& mapping = workload->mapping();
    msq::ObjectId victim = static_cast<msq::ObjectId>(
        rng.NextBounded(mapping.object_count()));
    while (!mapping.IsLive(victim)) {
      victim = static_cast<msq::ObjectId>((victim + 1) %
                                          mapping.object_count());
    }
    t0 = NowSeconds();
    (void)workload->DeleteObject(victim);
    us.push_back((NowSeconds() - t0) * 1e6);
  }
  return us;
}

double TelemetryCpuPct(msq::Workload* workload, std::size_t workers,
                       const std::vector<const ReadRecord*>& reads,
                       double seconds) {
  if (reads.empty()) return 0.0;
  msq::obs::TelemetryConfig off;
  off.enabled = false;
  msq::QueryExecutor on_exec(workload->dataset(), workers);
  msq::QueryExecutor off_exec(workload->dataset(), workers, off);
  // Paired blocks: each runs the same reads in the same order, alternating
  // sides, so both sides see the same mix and the same drift.
  auto block = [&](msq::QueryExecutor& exec, std::size_t n) {
    std::atomic<std::size_t> next{0};
    std::vector<double> gen_cpu(workers, 0.0);
    const double p0 = ProcessCpuSeconds();
    std::vector<std::thread> callers;
    for (std::size_t c = 0; c < workers; ++c) {
      callers.emplace_back([&, c] {
        const double c0 = ThreadCpuSeconds();
        for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
          msq::QueryRequest request;
          request.algorithm = reads[i]->algorithm;
          request.spec.sources = reads[i]->sources;
          (void)exec.Submit(std::move(request)).get();
        }
        gen_cpu[c] = ThreadCpuSeconds() - c0;
      });
    }
    for (std::thread& t : callers) t.join();
    return ProgramCpuSeconds(ProcessCpuSeconds() - p0, gen_cpu);
  };
  // Size the block from a first timed pass so the whole comparison takes
  // about `seconds`.
  const double t0 = NowSeconds();
  std::size_t n = std::min<std::size_t>(reads.size(), 3 * workers);
  block(off_exec, n);
  const double per_read = (NowSeconds() - t0) / static_cast<double>(n);
  const int pairs = 4;
  n = std::clamp<std::size_t>(
      static_cast<std::size_t>(seconds / (2 * pairs) / per_read), workers,
      reads.size());
  double cpu_on = 0.0, cpu_off = 0.0;
  for (int p = 0; p < pairs; ++p) {
    if (p % 2 == 0) {
      cpu_on += block(on_exec, n);
      cpu_off += block(off_exec, n);
    } else {
      cpu_off += block(off_exec, n);
      cpu_on += block(on_exec, n);
    }
  }
  return cpu_off > 0 ? (cpu_on / cpu_off - 1.0) * 100.0 : 0.0;
}

void CheckReads(msq::Workload* workload,
                const std::vector<const ReadRecord*>& reads,
                RunReport* report) {
  if (reads.empty()) return;
  if (!CheckAnchor(workload, reads.front()->sources)) {
    report->errors.push_back(
        "brute-force oracle disagrees with Algorithm::kNaive");
    return;
  }
  BruteForceOracle oracle(workload, /*memoize=*/false);
  std::atomic<std::uint64_t> mismatches{0};
  ParallelFor(reads.size(), std::thread::hardware_concurrency(),
              [&](std::size_t i) {
                const ReadRecord& r = *reads[i];
                if (!r.ok) return;  // counted as failed, not checked
                if (SortedIds(r.skyline) != oracle.SkylineIds(r.sources)) {
                  mismatches.fetch_add(1);
                }
              });
  if (mismatches.load() > 0) {
    report->errors.push_back(std::to_string(mismatches.load()) + " of " +
                             std::to_string(reads.size()) +
                             " reads differ from the oracle");
  }
}

}  // namespace msqbench
