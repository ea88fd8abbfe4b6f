#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "euclid/bbs.h"
#include "euclid/bnl.h"
#include "index/rtree.h"
#include "storage/buffer_manager.h"
#include "storage/disk_manager.h"

namespace msq {
namespace {

std::vector<Point> RandomPoints(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> points;
  for (std::size_t i = 0; i < n; ++i) {
    points.push_back(Point{rng.NextDouble(), rng.NextDouble()});
  }
  return points;
}

TEST(EuclideanVectorTest, DistancesInQueryOrder) {
  const std::vector<Point> queries = {{0, 0}, {1, 0}};
  const DistVector vec = EuclideanVector({0.5, 0}, queries);
  ASSERT_EQ(vec.size(), 2u);
  EXPECT_DOUBLE_EQ(vec[0], 0.5);
  EXPECT_DOUBLE_EQ(vec[1], 0.5);
}

TEST(BnlTest, SingleQueryNearestIsOnlySkyline) {
  // With one query point, the skyline is exactly the nearest point(s).
  const std::vector<Point> points = {{0.1, 0}, {0.2, 0}, {0.9, 0}};
  const std::vector<Point> queries = {{0, 0}};
  const auto skyline = BnlEuclideanSkyline(points, queries);
  EXPECT_EQ(skyline, (std::vector<std::size_t>{0}));
}

TEST(BnlTest, TwoQueryPointsHandComputed) {
  // q1 at origin, q2 at (1,0). p0 near q1, p1 near q2, p2 far from both,
  // p3 in the middle.
  const std::vector<Point> points = {
      {0.05, 0}, {0.95, 0}, {0.5, 0.9}, {0.5, 0.0}};
  const std::vector<Point> queries = {{0, 0}, {1, 0}};
  const auto skyline = BnlEuclideanSkyline(points, queries);
  EXPECT_EQ(skyline, (std::vector<std::size_t>{0, 1, 3}));
}

TEST(BnlTest, DuplicateVectorsBothSkyline) {
  const std::vector<Point> points = {{0.3, 0.3}, {0.3, 0.3}};
  const std::vector<Point> queries = {{0, 0}, {1, 1}};
  const auto skyline = BnlEuclideanSkyline(points, queries);
  EXPECT_EQ(skyline.size(), 2u);
}

TEST(BnlTest, EmptyInput) {
  EXPECT_TRUE(BnlEuclideanSkyline({}, {{0, 0}}).empty());
}

class BbsTest : public ::testing::Test {
 protected:
  BbsTest() : buffer_(&disk_, 512) {}

  RTree BuildTree(const std::vector<Point>& points) {
    RTree tree(&buffer_);
    std::vector<RTreeEntry> items;
    for (std::uint32_t i = 0; i < points.size(); ++i) {
      items.push_back(RTreeEntry{Mbr::FromPoint(points[i]), i});
    }
    tree.BulkLoad(std::move(items));
    return tree;
  }

  InMemoryDiskManager disk_;
  BufferManager buffer_;
};

TEST_F(BbsTest, MatchesBnlOnRandomInputs) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto points = RandomPoints(300, seed);
    const auto queries = RandomPoints(4, seed + 50);
    RTree tree = BuildTree(points);
    EuclideanSkylineBrowser browser(&tree, queries);

    std::vector<std::size_t> got;
    for (auto item = browser.Next(); item.found; item = browser.Next()) {
      got.push_back(item.object);
    }
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, BnlEuclideanSkyline(points, queries)) << "seed " << seed;
  }
}

TEST_F(BbsTest, ProgressiveAscendingMindistSum) {
  const auto points = RandomPoints(400, 9);
  const auto queries = RandomPoints(2, 99);
  RTree tree = BuildTree(points);
  EuclideanSkylineBrowser browser(&tree, queries);
  double last = 0.0;
  for (auto item = browser.Next(); item.found; item = browser.Next()) {
    double sum = 0.0;
    for (const Dist d : item.vector) sum += d;
    EXPECT_GE(sum + 1e-12, last);
    last = sum;
  }
}

TEST_F(BbsTest, ExternalPruneSkipsRegion) {
  const std::vector<Point> points = {{0.1, 0.1}, {0.9, 0.9}};
  const std::vector<Point> queries = {{0, 0}};
  RTree tree = BuildTree(points);
  // Prune everything in the lower-left quadrant.
  EuclideanSkylineBrowser browser(
      &tree, queries, [](const RTreeEntry& e, bool) {
        return e.mbr.hi_x < 0.5 && e.mbr.hi_y < 0.5;
      });
  const auto item = browser.Next();
  ASSERT_TRUE(item.found);
  EXPECT_EQ(item.object, 1u);
}

TEST_F(BbsTest, AttributeProviderChangesSkyline) {
  // Two points where 1 is spatially dominated but has a better attribute.
  const std::vector<Point> points = {{0.1, 0.1}, {0.2, 0.2}};
  const std::vector<Point> queries = {{0, 0}};
  RTree tree = BuildTree(points);

  std::vector<DistVector> attrs = {{5.0}, {1.0}};
  EuclideanSkylineBrowser browser(
      &tree, queries, nullptr,
      [&](ObjectId id) { return attrs[id]; }, DistVector{1.0});
  std::vector<ObjectId> got;
  for (auto item = browser.Next(); item.found; item = browser.Next()) {
    ASSERT_EQ(item.vector.size(), 2u);  // 1 distance + 1 attribute
    got.push_back(item.object);
  }
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, (std::vector<ObjectId>{0, 1}));
}

TEST_F(BbsTest, EmptyTree) {
  RTree tree = BuildTree({});
  EuclideanSkylineBrowser browser(&tree, {{0.5, 0.5}});
  EXPECT_FALSE(browser.Next().found);
}

}  // namespace
}  // namespace msq
