#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "core/history.h"
#include "util/rng.h"

namespace lbsagg {
namespace {

const Box kBox({0, 0}, {100, 100});

TEST(History, RecordIsIdempotent) {
  History h;
  h.Record(7, {1, 2});
  h.Record(7, {1, 2});
  h.Record(7, {9, 9});  // static service: first position wins
  EXPECT_EQ(h.size(), 1u);
  EXPECT_TRUE(h.Known(7));
  EXPECT_FALSE(h.Known(8));
  EXPECT_EQ(h.Position(7), Vec2(1, 2));
}

TEST(History, OtherPositionsExcludesRequestedId) {
  History h;
  h.Record(1, {10, 10});
  h.Record(2, {20, 20});
  h.Record(3, {30, 30});
  const auto entries = h.Entries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[1], std::make_pair(2, Vec2(20, 20)));
  const auto others = h.NearestOtherPositions({0, 0}, 2, 10);
  EXPECT_EQ(others.size(), 2u);
  for (const Vec2& p : others) EXPECT_NE(p, Vec2(20, 20));
  EXPECT_EQ(h.NearestOtherPositions({0, 0}, -1, 10).size(), 3u);
  // (20, 20) is the only tuple closer to (19, 19) than (21, 21) is.
  EXPECT_EQ(h.CountCloser({19, 19}, {21, 21}, -1, 3, 10), 1);
  EXPECT_EQ(h.CountCloser({19, 19}, {21, 21}, 2, 3, 10), 0);
}

TEST(History, NearestOtherPositionsOrdersByDistance) {
  History h;
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    h.Record(i, kBox.SamplePoint(rng));
  }
  const Vec2 probe{50, 50};
  const auto nearest = h.NearestOtherPositions(probe, -1, 10);
  ASSERT_EQ(nearest.size(), 10u);
  for (size_t i = 1; i < nearest.size(); ++i) {
    EXPECT_LE(Distance(probe, nearest[i - 1]), Distance(probe, nearest[i]));
  }
  // No position in the full set beats the worst of the returned ones.
  const double worst = Distance(probe, nearest.back());
  int closer = 0;
  for (const auto& [id, p] : h.Entries()) {
    if (Distance(probe, p) < worst) ++closer;
  }
  EXPECT_LE(closer, 10);
}

TEST(History, NearestOtherPositionsLimitLargerThanSize) {
  History h;
  h.Record(1, {10, 10});
  h.Record(2, {20, 20});
  EXPECT_EQ(h.NearestOtherPositions({0, 0}, -1, 50).size(), 2u);
  EXPECT_EQ(h.NearestOtherPositions({0, 0}, 1, 50).size(), 1u);
}

TEST(History, UpperBoundCellAreaShrinksWithKnowledge) {
  // λ_h from history bounds the true cell from above and tightens as more
  // tuples are recorded (§3.2.3).
  History h;
  const Vec2 focal{50, 50};
  EXPECT_DOUBLE_EQ(h.UpperBoundCellArea(0, focal, kBox, 1), kBox.Area());
  h.Record(1, {70, 50});
  const double one = h.UpperBoundCellArea(0, focal, kBox, 1);
  EXPECT_LT(one, kBox.Area());
  h.Record(2, {50, 70});
  h.Record(3, {30, 50});
  h.Record(4, {50, 30});
  const double many = h.UpperBoundCellArea(0, focal, kBox, 1);
  EXPECT_LT(many, one);
  // λ is non-decreasing in h.
  EXPECT_LE(many, h.UpperBoundCellArea(0, focal, kBox, 2) + 1e-9);
}

TEST(History, UpperBoundRespectsConstraintCap) {
  History h;
  Rng rng(3);
  for (int i = 0; i < 500; ++i) h.Record(i, kBox.SamplePoint(rng));
  // Fewer constraints → looser (but still valid) bound.
  const double loose = h.UpperBoundCellArea(999, {50, 50}, kBox, 1, 4);
  const double tight = h.UpperBoundCellArea(999, {50, 50}, kBox, 1, 64);
  EXPECT_GE(loose, tight - 1e-9);
}

// Brute-force reference for NearestOtherPositions: every entry but the
// excluded one, ranked by (squared distance, insertion order).
std::vector<Vec2> OracleNearest(const History& h, const Vec2& p,
                                int excluded_id, size_t limit) {
  const auto entries = h.Entries();
  std::vector<std::pair<double, size_t>> ranked;
  for (size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].first == excluded_id) continue;
    ranked.emplace_back(SquaredDistance(p, entries[i].second), i);
  }
  std::sort(ranked.begin(), ranked.end());
  std::vector<Vec2> out;
  for (size_t i = 0; i < std::min(limit, ranked.size()); ++i) {
    out.push_back(entries[ranked[i].second].second);
  }
  return out;
}

// The kd-tree covers the first 128 · 2^j entries and the tail is searched
// behind a screen; the sizes straddle the rebuild points so the tail is
// empty (128, 256), one entry (129, 257), nearly half (255, 5000) or the
// whole history (127, no tree yet). Integer grid points make exact distance
// ties and coincident tuples common, so the insertion-order tie-break is
// exercised on both sides of the tree/tail seam. In the drifting layout
// every later tuple lies further out, so the tail sits outside the
// bounding box of the indexed prefix; in the coincident one the prefix has
// no extent at all.
TEST(History, NearestOtherPositionsMatchesBruteForceOracle) {
  enum class Layout { kUniform, kIntegerGrid, kDrifting, kCoincident };
  for (const size_t n : {127u, 128u, 129u, 255u, 256u, 257u, 5000u}) {
    for (const Layout layout : {Layout::kUniform, Layout::kIntegerGrid,
                                Layout::kDrifting, Layout::kCoincident}) {
      const auto place = [layout, n](Vec2 p, double i) {
        switch (layout) {
          case Layout::kIntegerGrid:
            return Vec2{std::floor(p.x / 8), std::floor(p.y / 8)};
          case Layout::kDrifting:
            return p * 0.01 + Vec2{i, 0.5 * i};
          case Layout::kCoincident:
            return i < 0.9 * n ? Vec2{5, 5} : Vec2{5 + std::floor(p.x / 50), 5};
          case Layout::kUniform:
            break;
        }
        return p;
      };
      History h;
      Rng rng(100 + n);
      for (size_t i = 0; i < n; ++i) {
        h.Record(static_cast<int>(i),
                 place(kBox.SamplePoint(rng), static_cast<double>(i)));
      }
      ASSERT_EQ(h.size(), n);
      const int tail_id = static_cast<int>(n) - 1;
      for (int probe = 0; probe < 12; ++probe) {
        const Vec2 q =
            place(kBox.SamplePoint(rng), rng.Uniform(-10.0, n + 10.0));
        for (const int excluded : {-1, 0, tail_id}) {
          for (const size_t limit : {size_t{0}, size_t{1}, size_t{7},
                                     size_t{32}, size_t{64}, n + 5}) {
            const auto got = h.NearestOtherPositions(q, excluded, limit);
            const auto want = OracleNearest(h, q, excluded, limit);
            ASSERT_EQ(got.size(), want.size())
                << "n " << n << " limit " << limit;
            for (size_t i = 0; i < got.size(); ++i) {
              ASSERT_EQ(std::memcmp(&got[i], &want[i], sizeof(Vec2)), 0)
                  << "n " << n << " excluded " << excluded << " limit "
                  << limit << " rank " << i;
            }
          }
        }
      }
    }
  }
}

// RankAt over the positions of entries [0, prefix) other than `excluded`.
int OracleRank(const History& h, const Vec2& q, const Vec2& focal,
               int excluded, size_t prefix) {
  const auto entries = h.Entries();
  std::vector<Vec2> others;
  for (size_t i = 0; i < prefix; ++i) {
    if (entries[i].first != excluded) others.push_back(entries[i].second);
  }
  return RankAt(q, focal, others);
}

TEST(History, CountCloserMatchesRankAtOverEntriesPrefix) {
  History h;
  Rng rng(9);
  for (int i = 0; i < 300; ++i) {
    const Vec2 p = kBox.SamplePoint(rng);
    h.Record(i, {std::floor(p.x / 10), std::floor(p.y / 10)});
  }
  const size_t n0 = h.size();
  const auto check = [&](size_t prefix) {
    Rng qrng(prefix);
    for (int trial = 0; trial < 200; ++trial) {
      // Grid-point queries tie with tuples on the focal distance.
      const Vec2 r = kBox.SamplePoint(qrng);
      const Vec2 q = trial % 2 == 0 ? h.Position(trial % 300)
                                    : Vec2{std::floor(r.x / 10),
                                           std::floor(r.y / 10)};
      const Vec2 focal = h.Position((trial * 7) % 300);
      const int excluded = trial % 3 == 0 ? -1 : (trial * 7) % 300;
      const int rank = OracleRank(h, q, focal, excluded, prefix);
      EXPECT_EQ(h.CountCloser(q, focal, excluded, prefix,
                              std::numeric_limits<int>::max()),
                rank);
      for (const int cap : {0, 1, 3, 10}) {
        EXPECT_EQ(h.CountCloser(q, focal, excluded, prefix, cap),
                  std::min(rank, cap));
      }
    }
  };
  check(n0);
  check(0);
  // Tuples appended after n0 stay out of a count over the first n0.
  for (int i = 300; i < 600; ++i) h.Record(i, kBox.SamplePoint(rng));
  check(n0);
  check(h.size());
}

}  // namespace
}  // namespace lbsagg
