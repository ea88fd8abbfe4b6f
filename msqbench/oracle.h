// Reference skylines for checking every read of a run.
//
// The library's naive algorithm drains one paged NN stream per source
// (about 0.2 s per source on NA at scale 0.5), too slow to check hundreds
// of reads per run. The brute-force oracle computes the same thing the
// same way in memory: one full Dijkstra per source over the network's
// adjacency, each object's distance as the minimum over its edge's
// endpoints and the shared-edge path (the float operations the NN stream
// performs), then the naive algorithm's own skyline pass (SkylineIndices)
// over the live objects. Each run also checks the brute-force oracle
// against Algorithm::kNaive itself on some reads (CheckAnchor).
#ifndef MSQBENCH_ORACLE_H_
#define MSQBENCH_ORACLE_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "core/query.h"
#include "gen/workloads.h"

namespace msqbench {

// Sorted object ids of a skyline.
std::vector<msq::ObjectId> SortedIds(
    const std::vector<msq::SkylineEntry>& skyline);

class BruteForceOracle {
 public:
  // Reads `workload` at call time; the caller keeps it quiescent. With
  // `memoize`, node-distance arrays are kept per source until Reset(), so
  // reads sharing a source in one world state share the search.
  BruteForceOracle(const msq::Workload* workload, bool memoize)
      : workload_(workload), memoize_(memoize) {}

  // Sorted ids of the skyline of `sources`. Thread-safe.
  std::vector<msq::ObjectId> SkylineIds(
      const std::vector<msq::Location>& sources);

  // Drops the memo (call after the world changed).
  void Reset();

 private:
  // Exact network distance from `source` to every node.
  std::vector<msq::Dist> NodeDistances(const msq::Location& source) const;
  std::shared_ptr<const std::vector<msq::Dist>> Distances(
      const msq::Location& source);

  const msq::Workload* workload_;
  const bool memoize_;
  std::mutex mu_;
  std::map<std::pair<msq::EdgeId, msq::Dist>,
           std::shared_ptr<const std::vector<msq::Dist>>>
      memo_;
};

// Runs fn(i) for i in [0, n) on `threads` threads.
void ParallelFor(std::size_t n, std::size_t threads,
                 const std::function<void(std::size_t)>& fn);

// True when the library's naive algorithm and the brute-force oracle agree
// on `sources` in the workload's current state.
bool CheckAnchor(msq::Workload* workload,
                 const std::vector<msq::Location>& sources);

}  // namespace msqbench

#endif  // MSQBENCH_ORACLE_H_
