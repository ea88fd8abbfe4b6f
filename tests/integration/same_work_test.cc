// Same-work regression: CE, EDC and LBC on a small fixed NA instance, one
// thread and a cold pool, must keep doing exactly the recorded work — the
// paper's page and node counts, the candidate and bound partitions and
// the dominance tests. A CPU optimisation that changes any of these has
// changed the algorithm, not just its speed.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/skyline_query.h"
#include "gen/workloads.h"
#include "testing_support.h"

namespace msq {
namespace {

struct ExpectedWork {
  Algorithm algorithm;
  std::uint64_t settled_nodes;
  std::uint64_t network_pages;
  std::uint64_t index_pages;
  std::uint64_t index_page_accesses;
  std::size_t candidate_count;
  std::uint64_t bound_pruned;
  std::uint64_t bound_examined;
  std::uint64_t dominance_tests;
  std::uint64_t dominance_tests_avoided;
};

struct Instance {
  std::size_t static_attr_dims;
  std::vector<ObjectId> skyline;  // sorted; the same for every algorithm
  std::vector<ExpectedWork> work;
};

// NA at 2% scale (network seed 5, density 0.5, 1031 objects), |Q| = 4
// sampled with seed 11. Static attributes send CE down its generalized
// path.
const std::vector<Instance>& Instances() {
  static const std::vector<Instance> instances = {
      {0,
       {35, 57, 61, 91, 149, 153, 201, 287, 323, 359, 393, 421, 486, 689,
        711, 731, 766, 928, 991},
       {
           {Algorithm::kCe, 888, 12, 10, 8668, 115, 219, 19, 513, 0},
           {Algorithm::kEdc, 431, 4, 5, 71, 73, 958, 73, 7546, 13399},
           {Algorithm::kLbc, 328, 4, 5, 5, 73, 35, 38, 2970, 3572},
       }},
      {2,
       {5,   30,  35,  57,  61,  67,  77,  91,  100, 121, 133, 145,
        149, 153, 155, 168, 193, 200, 201, 215, 248, 252, 259, 268,
        271, 274, 284, 285, 286, 287, 306, 323, 328, 334, 335, 345,
        348, 351, 359, 360, 390, 393, 411, 421, 441, 486, 508, 522,
        540, 551, 566, 567, 588, 605, 623, 633, 644, 646, 652, 660,
        679, 689, 700, 704, 706, 711, 731, 736, 766, 775, 797, 831,
        837, 847, 856, 877, 908, 909, 915, 917, 921, 928, 932, 936,
        942, 947, 951, 957, 963, 965, 977, 991, 1004, 1011, 1029},
       {
           {Algorithm::kCe, 6701, 18, 10, 64246, 1017, 936, 95, 13395, 0},
           {Algorithm::kEdc, 4046, 18, 11, 492, 176, 855, 176, 80396,
            157544},
           {Algorithm::kLbc, 3354, 18, 11, 11, 177, 65, 112, 32619, 31142},
       }},
  };
  return instances;
}

TEST(SameWorkTest, ColdSingleThreadWorkMatchesRecordedCounts) {
  for (const Instance& instance : Instances()) {
    WorkloadConfig config;
    config.network = PaperNetworkConfig(NetworkClass::kNA, 0.02, 5);
    config.object_density = 0.5;
    config.static_attr_dims = instance.static_attr_dims;
    Workload workload(config);
    ASSERT_EQ(workload.objects().size(), 1031u);
    const SkylineQuerySpec spec = workload.SampleQuery(4, 11);

    for (const ExpectedWork& want : instance.work) {
      SCOPED_TRACE(std::string(AlgorithmName(want.algorithm)) + " attrs=" +
                   std::to_string(instance.static_attr_dims));
      workload.ResetBuffers();
      const SkylineResult result =
          RunSkylineQuery(want.algorithm, workload.dataset(), spec);
      ASSERT_TRUE(result.status.ok());
      ASSERT_FALSE(result.truncated);
      EXPECT_EQ(testing::SkylineIds(result), instance.skyline);
      const QueryStats& stats = result.stats;
      EXPECT_EQ(stats.settled_nodes, want.settled_nodes);
      EXPECT_EQ(stats.network_pages, want.network_pages);
      EXPECT_EQ(stats.index_pages, want.index_pages);
      EXPECT_EQ(stats.index_page_accesses, want.index_page_accesses);
      EXPECT_EQ(stats.candidate_count, want.candidate_count);
      EXPECT_EQ(stats.bound_pruned, want.bound_pruned);
      EXPECT_EQ(stats.bound_examined, want.bound_examined);
      EXPECT_EQ(stats.dominance_tests, want.dominance_tests);
      EXPECT_EQ(stats.dominance_tests_avoided, want.dominance_tests_avoided);
      if (want.algorithm == Algorithm::kCe) {
        // Each settled node's adjacency page is read once: the NN stream
        // probes from the adjacency the settle step already read.
        EXPECT_EQ(stats.network_page_accesses, stats.settled_nodes);
      }
    }
  }
}

}  // namespace
}  // namespace msq
