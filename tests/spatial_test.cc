// KdTree (the production index) against BruteForceIndex (the oracle). The
// two must return *bit-identical* results — same indices, same exact
// distance doubles — for Nearest, NearestFiltered and WithinRadius. The
// candidate ordering contract in spatial_index.h (rank by the exact
// (squared distance, index) total order) makes this well-defined even under
// distance ties, which the duplicate-point, coincident-point and
// symmetric-grid cases below force; the total order is additionally asserted
// directly on every Nearest result, so the tree cannot pass by agreeing with
// an unordered oracle. The LBS server relies on this to make the index
// backend invisible through the interface.

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "geometry/box.h"
#include "obs/obs.h"
#include "spatial/backend.h"
#include "spatial/brute_force.h"
#include "spatial/kdtree.h"
#include "util/rng.h"

namespace lbsagg {
namespace {

const Box kBox({0, 0}, {1000, 1000});

std::vector<Vec2> RandomPoints(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Vec2> pts;
  pts.reserve(n);
  for (int i = 0; i < n; ++i) pts.push_back(kBox.SamplePoint(rng));
  return pts;
}

std::vector<Vec2> RandomPointsWithDuplicates(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Vec2> pts;
  pts.reserve(n);
  for (int i = 0; i < n; ++i) {
    // ~20% duplicates of an earlier point: forces exact distance ties so
    // the (distance, index) tie-break order is actually exercised.
    if (i > 0 && rng.Uniform01() < 0.2) {
      pts.push_back(pts[rng.UniformInt(static_cast<uint64_t>(i))]);
    } else {
      pts.push_back(kBox.SamplePoint(rng));
    }
  }
  return pts;
}

// Zipf-ish city clusters: heavy spatial skew, where the tree's splits must
// follow the data rather than the box.
std::vector<Vec2> ClusteredPoints(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Vec2> centers;
  for (int c = 0; c < 12; ++c) centers.push_back(kBox.SamplePoint(rng));
  std::vector<Vec2> pts;
  pts.reserve(n);
  for (int i = 0; i < n; ++i) {
    const Vec2& c = centers[i % 3 == 0 ? rng.UniformInt(12) : 0];
    const double spread = 5.0 + 20.0 * rng.Uniform01();
    pts.push_back(kBox.Clamp(c + Vec2{rng.Uniform(-spread, spread),
                                      rng.Uniform(-spread, spread)}));
  }
  return pts;
}

// Asserts the documented result contract of SpatialIndex::Nearest /
// NearestFiltered: ascending (distance, index) — i.e. equidistant neighbors
// ordered by ascending point id.
void ExpectTotalOrder(const std::vector<Neighbor>& r, const char* label) {
  for (size_t i = 1; i < r.size(); ++i) {
    const bool ordered =
        r[i - 1].distance < r[i].distance ||
        (r[i - 1].distance == r[i].distance && r[i - 1].index < r[i].index);
    EXPECT_TRUE(ordered) << label << ": rank " << i - 1 << " (d="
                         << r[i - 1].distance << ", id=" << r[i - 1].index
                         << ") vs rank " << i << " (d=" << r[i].distance
                         << ", id=" << r[i].index << ")";
  }
}

void ExpectIdentical(const std::vector<Neighbor>& a,
                     const std::vector<Neighbor>& b, const char* label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].index, b[i].index) << label << " rank " << i;
    // Bit-identical, not approximately equal.
    EXPECT_EQ(a[i].distance, b[i].distance) << label << " rank " << i;
  }
  ExpectTotalOrder(a, label);
}

// WithinRadius is unsorted by contract; compare as sorted sets.
void ExpectSameSet(std::vector<Neighbor> a, std::vector<Neighbor> b,
                   const char* label) {
  const auto by_index = [](const Neighbor& x, const Neighbor& y) {
    return x.index < y.index;
  };
  std::sort(a.begin(), a.end(), by_index);
  std::sort(b.begin(), b.end(), by_index);
  ASSERT_EQ(a.size(), b.size()) << label;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].index, b[i].index) << label << " rank " << i;
    EXPECT_EQ(a[i].distance, b[i].distance) << label << " rank " << i;
  }
}

// Query mix over a point set: uniform locations, data points themselves and
// points a hair off them, where zero distances and ties concentrate.
Vec2 MixedQuery(const std::vector<Vec2>& pts, int trial, Rng& rng) {
  const uint64_t n = pts.size();
  if (trial % 3 == 1) return pts[rng.UniformInt(n)];
  if (trial % 3 == 2) return pts[rng.UniformInt(n)] + Vec2{1e-7, -1e-7};
  return kBox.SamplePoint(rng);
}

TEST(KdTree, EmptyTreeReturnsNothing) {
  const KdTree tree(std::vector<Vec2>{});
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_TRUE(tree.Nearest({0, 0}, 3).empty());
  EXPECT_TRUE(tree.NearestFiltered({1, 2}, 5, nullptr).empty());
  EXPECT_TRUE(tree.WithinRadius({1, 2}, 10.0).empty());
}

TEST(KdTree, SinglePoint) {
  const KdTree tree({{5, 5}});
  const auto r = tree.Nearest({0, 0}, 3);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].index, 0);
  EXPECT_NEAR(r[0].distance, std::sqrt(50.0), 1e-12);
}

TEST(KdTree, EmptyAndTinyInputs) {
  const KdTree empty(std::vector<Vec2>{});
  EXPECT_TRUE(empty.Nearest({1, 1}, 3).empty());
  // A lone point is reached from a query at the far corner of the box.
  const KdTree one({{5, 5}});
  const auto r = one.Nearest({900, 900}, 2);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].index, 0);
}

TEST(KdTree, OnePointAndCollinearInputs) {
  const KdTree one(std::vector<Vec2>{{3, 4}});
  EXPECT_EQ(one.size(), 1u);
  const auto got = one.Nearest({0, 0}, 3);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].index, 0);
  EXPECT_EQ(got[0].distance, 5.0);
  EXPECT_TRUE(one.Nearest({0, 0}, 0).empty());

  // Points with identical y, queried on and beyond the line: every split
  // falls on one axis.
  std::vector<Vec2> line;
  for (int i = 0; i < 200; ++i) line.push_back({static_cast<double>(i), 7.0});
  const KdTree line_tree(line);
  const BruteForceIndex brute(line);
  for (const double x : {0.0, 17.3, 199.0, 500.0}) {
    ExpectIdentical(line_tree.Nearest({x, 7.0}, 5),
                    brute.Nearest({x, 7.0}, 5), "collinear");
  }
}

TEST(KdTree, ResultsSortedByDistance) {
  const auto pts = RandomPoints(200, 301);
  const KdTree tree(pts);
  Rng rng(303);
  for (int trial = 0; trial < 50; ++trial) {
    const auto r = tree.Nearest(kBox.SamplePoint(rng), 10);
    ASSERT_EQ(r.size(), 10u);
    for (size_t i = 1; i < r.size(); ++i) {
      EXPECT_LE(r[i - 1].distance, r[i].distance);
    }
  }
}

// Property sweep: k-d tree ≡ brute force for many k values, bit for bit, on
// point sets with ~20% exact duplicates.
class KdTreeEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(KdTreeEquivalenceTest, MatchesBruteForce) {
  const int k = GetParam();
  for (const uint64_t seed : {1u, 2u, 3u, 4u}) {
    const int n = 50 + static_cast<int>(seed) * 71;
    const auto pts = RandomPointsWithDuplicates(n, seed);
    const KdTree tree(pts);
    const BruteForceIndex brute(pts);
    ASSERT_EQ(tree.size(), pts.size());
    Rng rng(100 + seed);
    for (int trial = 0; trial < 60; ++trial) {
      const Vec2 q = MixedQuery(pts, trial, rng);
      const auto want = brute.Nearest(q, k);
      ExpectTotalOrder(want, "brute Nearest");
      ExpectIdentical(tree.Nearest(q, k), want, "kd Nearest");
    }
  }
}

// The k values cover all three KdTree search paths (the k == 1 register
// path, sorted insertion for 2 <= k <= leaf size 16, buffered compaction
// beyond) plus k > n truncation.
INSTANTIATE_TEST_SUITE_P(KSweep, KdTreeEquivalenceTest,
                         ::testing::Values(1, 2, 5, 10, 16, 17, 50, 301));

// The same equivalence on a duplicate-free uniform set under uniform queries,
// where no distance ties and every query lands between points.
class KdTreeUniformEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(KdTreeUniformEquivalenceTest, MatchesBruteForce) {
  const int k = GetParam();
  const auto pts = RandomPoints(300, 401);
  const KdTree tree(pts);
  const BruteForceIndex brute(pts);
  Rng rng(403);
  for (int trial = 0; trial < 150; ++trial) {
    const Vec2 q = kBox.SamplePoint(rng);
    ExpectIdentical(tree.Nearest(q, k), brute.Nearest(q, k), "uniform");
  }
}

INSTANTIATE_TEST_SUITE_P(KSweep, KdTreeUniformEquivalenceTest,
                         ::testing::Values(1, 3, 10, 50));

TEST(KdTree, FilteredSearchMatchesBruteForce) {
  for (const uint64_t seed : {1u, 2u, 3u, 4u}) {
    const int n = 50 + static_cast<int>(seed) * 71;
    const auto pts = RandomPointsWithDuplicates(n, seed);
    const KdTree tree(pts);
    const BruteForceIndex brute(pts);
    Rng rng(200 + seed);
    for (int trial = 0; trial < 40; ++trial) {
      const Vec2 q = MixedQuery(pts, trial, rng);
      const IndexFilter dense = [](int id) { return (id & 3) != 0; };
      for (const int k : {1, 7, 30}) {
        ExpectIdentical(tree.NearestFiltered(q, k, dense),
                        brute.NearestFiltered(q, k, dense), "dense filter");
      }
      // Filters accepting one id in 2..64: the sparser ones make the search
      // keep expanding well past the seed leaves (and, at 1/64, often
      // exhaust the tree without filling k).
      for (const int modulus : {2, 16, 64}) {
        const IndexFilter sparse = [modulus](int id) {
          return id % modulus == 1;
        };
        for (const int k : {1, 4, 7}) {
          const auto got = tree.NearestFiltered(q, k, sparse);
          ExpectIdentical(got, brute.NearestFiltered(q, k, sparse),
                          "sparse filter");
          for (const Neighbor& nb : got) EXPECT_EQ(nb.index % modulus, 1);
        }
      }
      // A null filter must behave exactly like Nearest.
      ExpectIdentical(tree.NearestFiltered(q, 9, nullptr),
                      brute.Nearest(q, 9), "null filter");
    }
  }
}

TEST(KdTree, OneInThreeFilterMatchesBruteForce) {
  const auto pts = RandomPoints(200, 409);
  const KdTree tree(pts);
  const BruteForceIndex brute(pts);
  const IndexFilter thirds = [](int i) { return i % 3 == 0; };
  Rng rng(411);
  for (int trial = 0; trial < 60; ++trial) {
    const Vec2 q = kBox.SamplePoint(rng);
    const auto got = tree.NearestFiltered(q, 4, thirds);
    ExpectIdentical(got, brute.NearestFiltered(q, 4, thirds), "thirds");
    for (const Neighbor& nb : got) EXPECT_EQ(nb.index % 3, 0);
  }
}

TEST(KdTree, FilterRejectingEverythingGivesEmpty) {
  const auto pts = RandomPoints(50, 319);
  const KdTree tree(pts);
  EXPECT_TRUE(
      tree.NearestFiltered({1, 1}, 5, [](int) { return false; }).empty());
}

TEST(KdTree, WithinRadiusMatchesLinearScan) {
  const auto pts = RandomPoints(400, 323);
  const KdTree tree(pts);
  Rng rng(327);
  for (int trial = 0; trial < 50; ++trial) {
    const Vec2 q = kBox.SamplePoint(rng);
    const double radius = rng.Uniform(10.0, 200.0);
    auto got = tree.WithinRadius(q, radius);
    std::vector<int> got_ids;
    for (const Neighbor& n : got) {
      got_ids.push_back(n.index);
      EXPECT_LE(n.distance, radius);
    }
    std::sort(got_ids.begin(), got_ids.end());
    std::vector<int> want_ids;
    for (size_t i = 0; i < pts.size(); ++i) {
      if (Distance(q, pts[i]) <= radius) {
        want_ids.push_back(static_cast<int>(i));
      }
    }
    EXPECT_EQ(got_ids, want_ids);
  }
  // Bit-identical to the oracle on duplicate-laden sets, from radius 0 to
  // one that covers the whole box.
  for (const uint64_t seed : {1u, 2u, 3u, 4u}) {
    const int n = 50 + static_cast<int>(seed) * 71;
    const auto dup = RandomPointsWithDuplicates(n, seed);
    const KdTree dup_tree(dup);
    const BruteForceIndex brute(dup);
    Rng qrng(300 + seed);
    for (int trial = 0; trial < 30; ++trial) {
      const Vec2 q = MixedQuery(dup, trial, qrng);
      for (const double radius : {0.0, 15.0, 120.0, 2000.0}) {
        ExpectSameSet(dup_tree.WithinRadius(q, radius),
                      brute.WithinRadius(q, radius), "WithinRadius");
      }
    }
  }
}

TEST(KdTree, KLargerThanDatasetReturnsAll) {
  const auto pts = RandomPoints(10, 331);
  const KdTree tree(pts);
  const auto r = tree.Nearest({500, 500}, 100);
  EXPECT_EQ(r.size(), 10u);
}

TEST(KdTree, DuplicateCoordinatesHandled) {
  // Points with identical x (stresses the splitting logic).
  std::vector<Vec2> pts;
  for (int i = 0; i < 50; ++i) pts.push_back({5.0, static_cast<double>(i)});
  const KdTree tree(pts);
  const auto r = tree.Nearest({5.0, 10.2}, 3);
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(r[0].index, 10);
}

TEST(KdTree, SkewedClusterStillCorrect) {
  // All points in one corner: the search must reach them from a query at
  // the far corner of the box.
  std::vector<Vec2> corner;
  Rng rng(407);
  for (int i = 0; i < 100; ++i) {
    corner.push_back({rng.Uniform(0, 10), rng.Uniform(0, 10)});
  }
  const KdTree corner_tree(corner);
  const BruteForceIndex corner_brute(corner);
  ExpectIdentical(corner_tree.Nearest({990, 990}, 5),
                  corner_brute.Nearest({990, 990}, 5), "corner cluster");
}

// City clusters at a larger scale, queried both between and on the points.
TEST(KdTree, AgreesWithOracleOnClusteredData) {
  const int n = 20000;
  const auto pts = ClusteredPoints(n, 11);
  const KdTree tree(pts);
  const BruteForceIndex brute(pts);
  Rng qrng(12);
  for (int trial = 0; trial < 60; ++trial) {
    Vec2 q = kBox.SamplePoint(qrng);
    if (trial % 2 == 1) q = pts[qrng.UniformInt(static_cast<uint64_t>(n))];
    for (const int k : {1, 10, 50}) {
      ExpectIdentical(tree.Nearest(q, k), brute.Nearest(q, k), "clusters");
    }
    ExpectSameSet(tree.WithinRadius(q, 25.0), brute.WithinRadius(q, 25.0),
                  "clusters WithinRadius");
  }
}

TEST(BruteForce, TieBreakByIndex) {
  // Two equidistant points: the smaller index wins, deterministically.
  const BruteForceIndex idx({{0, 1}, {0, -1}});
  const auto r = idx.Nearest({0, 0}, 1);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].index, 0);
}

TEST(KdTree, TieBreakMatchesBruteForce) {
  // Symmetric grid makes exact ties; both indexes must break them the same
  // way (by index) so the simulated LBS is deterministic.
  std::vector<Vec2> pts;
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < 5; ++j) pts.push_back({i * 2.0, j * 2.0});
  }
  const KdTree tree(pts);
  const BruteForceIndex brute(pts);
  const Vec2 q{3.0, 3.0};  // equidistant from 4 grid points
  ExpectIdentical(tree.Nearest(q, 4), brute.Nearest(q, 4), "grid ties");
}

#ifndef LBSAGG_OBS_DISABLED
uint64_t CounterValue(const obs::MetricsSnapshot& snapshot,
                      const std::string& name) {
  for (const auto& sample : snapshot.counters) {
    if (sample.name == name) return sample.value;
  }
  return 0;
}

// The spatial.kdtree.* names are read by external tooling (run reports and
// the end-to-end benchmark's nodes-per-kNN metric), so they are pinned here.
TEST(KdTree, PublishesWorkCountersWhenEnabled) {
  obs::MetricsRegistry registry;
  KdTree tree(RandomPoints(5000, 21));
  // Without EnableStats nothing is published.
  (void)tree.Nearest({500, 500}, 10);
  EXPECT_TRUE(registry.Snapshot().counters.empty());

  tree.EnableStats(&registry);
  (void)tree.Nearest({500, 500}, 10);
  (void)tree.WithinRadius({500, 500}, 50.0);
  const auto snapshot = registry.Snapshot();
  EXPECT_EQ(CounterValue(snapshot, "spatial.kdtree.searches"), 2u);
  EXPECT_GT(CounterValue(snapshot, "spatial.kdtree.nodes_visited"), 0u);
  EXPECT_GT(CounterValue(snapshot, "spatial.kdtree.leaves_scanned"), 0u);
  EXPECT_GT(CounterValue(snapshot, "spatial.kdtree.points_tested"), 0u);
}
#endif

// Every distance ties; the order must fall back to index order.
TEST(SpatialEquivalence, AllPointsCoincident) {
  const std::vector<Vec2> pts(37, Vec2{500, 500});
  const KdTree kd(pts);
  const BruteForceIndex brute(pts);
  for (const int k : {1, 2, 7, 16, 17, 50}) {
    const auto got = kd.Nearest({400, 400}, k);
    ExpectIdentical(got, brute.Nearest({400, 400}, k), "coincident Nearest");
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].index, static_cast<int>(i));
    }
  }
}

// WithinRadius is boundary-inclusive: points at *exactly* `radius` must be
// returned. Axis-aligned offsets keep the squared distance arithmetic
// exact, so "exactly" means bit-exactly, not approximately.
TEST(SpatialEquivalence, WithinRadiusBoundaryInclusive) {
  const Vec2 q{512, 512};
  const double radius = 32.0;  // power of two: q ± radius is exact
  std::vector<Vec2> pts = {
      {q.x + radius, q.y},  // exactly at radius, +x
      {q.x - radius, q.y},  // exactly at radius, -x
      {q.x, q.y + radius},  // exactly at radius, +y
      {q.x, q.y - radius},  // exactly at radius, -y
      q,                    // distance 0
      {q.x + radius + 1e-9, q.y},  // just outside
      {q.x + radius - 1e-9, q.y},  // just inside
      {q.x + 900, q.y + 900},      // far away
  };
  Rng rng(9);
  for (int i = 0; i < 40; ++i) pts.push_back(kBox.SamplePoint(rng));

  const KdTree kd(pts);
  const BruteForceIndex brute(pts);

  const auto want = brute.WithinRadius(q, radius);
  // The oracle itself must include the four boundary points and the center.
  std::vector<int> got_ids;
  for (const Neighbor& nb : want) got_ids.push_back(nb.index);
  std::sort(got_ids.begin(), got_ids.end());
  for (int id : {0, 1, 2, 3, 4}) {
    EXPECT_TRUE(std::binary_search(got_ids.begin(), got_ids.end(), id))
        << "boundary point " << id << " missing from the oracle";
  }
  EXPECT_FALSE(std::binary_search(got_ids.begin(), got_ids.end(), 5));

  ExpectSameSet(kd.WithinRadius(q, radius), want, "kd boundary");

  // Nearest at k = count-of-ties must break the 4-way distance tie by id.
  for (const int k : {4, 5, 6}) {
    ExpectIdentical(kd.Nearest(q, k), brute.Nearest(q, k), "boundary tie");
  }
}

// The factory behind ServerOptions::index_backend builds both backends;
// spot-check each against the oracle through the interface.
TEST(SpatialEquivalence, FactoryBackendsAgree) {
  const auto pts = RandomPointsWithDuplicates(300, 77);
  const BruteForceIndex brute(pts);
  Rng rng(78);
  for (const SpatialBackend backend :
       {SpatialBackend::kKdTree, SpatialBackend::kBruteForce}) {
    const auto index = MakeSpatialIndex(backend, pts);
    ASSERT_NE(index, nullptr);
    ASSERT_EQ(index->size(), pts.size());
    for (int trial = 0; trial < 10; ++trial) {
      const Vec2 q = kBox.SamplePoint(rng);
      ExpectIdentical(index->Nearest(q, 8), brute.Nearest(q, 8), "factory");
    }
  }
}

}  // namespace
}  // namespace lbsagg
