#include "core/history.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.h"

namespace lbsagg {

void History::Record(int id, const Vec2& pos) {
  auto [it, inserted] = by_id_.emplace(id, pos);
  if (!inserted) return;
  entries_.push_back({id, pos});
  if (entries_.size() >= kIndexThreshold && entries_.size() >= 2 * indexed_) {
    RebuildIndex();
  } else if (index_) {
    // Thread the new tail entry onto its cell's list.
    const size_t cell = TailCell(pos);
    tail_next_.push_back(tail_head_[cell]);
    tail_head_[cell] = static_cast<int32_t>(entries_.size() - 1);
  }
}

void History::RebuildIndex() {
  std::vector<Vec2> pts;
  pts.reserve(entries_.size());
  for (const Entry& e : entries_) pts.push_back(e.pos);
  indexed_ = pts.size();

  // Lay the tail grid over the prefix's bounding box, sized so that the
  // tail — at most as long as the prefix before the next rebuild — averages
  // at most about four entries a cell.
  Vec2 lo = pts[0];
  Vec2 hi = pts[0];
  for (const Vec2& v : pts) {
    lo = {std::min(lo.x, v.x), std::min(lo.y, v.y)};
    hi = {std::max(hi.x, v.x), std::max(hi.y, v.y)};
  }
  const double extent = std::max(hi.x - lo.x, hi.y - lo.y);
  tail_lo_ = lo;
  tail_side_ = static_cast<int>(std::sqrt(static_cast<double>(indexed_) / 4));
  tail_inv_cell_ = tail_side_ / extent;
  if (!(extent > 0.0) || !std::isfinite(tail_inv_cell_)) {
    tail_side_ = 1;  // coincident or non-finite positions: one cell
    tail_inv_cell_ = 0.0;
  }
  tail_head_.assign(static_cast<size_t>(tail_side_) * tail_side_, -1);
  tail_next_.clear();

  index_ = std::make_unique<KdTree>(std::move(pts));
}

int History::TailCoord(double v, double lo) const {
  const double t = (v - lo) * tail_inv_cell_;
  if (!(t > 0.0)) return 0;  // also NaN
  if (t >= tail_side_ - 1) return tail_side_ - 1;
  return static_cast<int>(t);
}

size_t History::TailCell(const Vec2& pos) const {
  return static_cast<size_t>(TailCoord(pos.y, tail_lo_.y)) * tail_side_ +
         static_cast<size_t>(TailCoord(pos.x, tail_lo_.x));
}

const Vec2& History::Position(int id) const {
  const auto it = by_id_.find(id);
  LBSAGG_CHECK(it != by_id_.end()) << "unknown tuple " << id;
  return it->second;
}

std::vector<std::pair<int, Vec2>> History::Entries() const {
  std::vector<std::pair<int, Vec2>> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) out.emplace_back(e.id, e.pos);
  return out;
}

int History::CountCloser(const Vec2& q, const Vec2& focal, int excluded_id,
                         size_t prefix, int cap) const {
  LBSAGG_CHECK_LE(prefix, entries_.size());
  const double d2 = SquaredDistance(q, focal);
  int count = 0;
  for (size_t i = 0; i < prefix && count < cap; ++i) {
    if (entries_[i].id != excluded_id &&
        SquaredDistance(q, entries_[i].pos) < d2) {
      ++count;
    }
  }
  return count;
}

std::vector<Vec2> History::NearestOtherPositions(const Vec2& p,
                                                 int excluded_id,
                                                 size_t limit) const {
  if (limit == 0) return {};
  // Candidates are ranked by the exact (squared distance, insertion order)
  // total order — the order the kd-tree ranks by, its point indices being
  // insertion indices — so the indexed and linear paths agree bit-for-bit.
  struct Candidate {
    double d2;
    size_t idx;
  };
  const auto better = [](const Candidate& a, const Candidate& b) {
    return a.d2 < b.d2 || (a.d2 == b.d2 && a.idx < b.idx);
  };

  // The limit best admissible indexed entries, ascending. At most one entry
  // is excluded, so limit+1 tree results always contain them.
  std::vector<Candidate> indexed;
  if (index_) {
    indexed.reserve(limit + 1);
    for (const Neighbor& n : index_->Nearest(p, static_cast<int>(limit) + 1)) {
      const size_t idx = static_cast<size_t>(n.index);
      if (entries_[idx].id == excluded_id) continue;
      indexed.push_back({SquaredDistance(p, entries_[idx].pos), idx});
    }
    if (indexed.size() > limit) indexed.pop_back();
  }

  // Tail entries must beat `screen` strictly to be candidates. Once the tree
  // has supplied `limit` admissible entries, the limit-th one's d² is the
  // screen: a tail entry at or beyond it ranks after `limit` indexed entries
  // (a tie loses on insertion order, tail indices being the larger), so it
  // cannot be returned. Only the grid cells within the screen's radius
  // (plus one cell of slack for rounding; entries outside the grid sit in
  // its border cells) can hold such entries.
  std::vector<Candidate> tail;
  const auto consider = [&](size_t i, double screen) {
    const double d2 = SquaredDistance(p, entries_[i].pos);
    if (d2 < screen && entries_[i].id != excluded_id) tail.push_back({d2, i});
  };
  if (index_ && indexed.size() == limit) {
    const double screen = indexed.back().d2;
    const double r = std::sqrt(screen);
    const int x0 = std::max(0, TailCoord(p.x - r, tail_lo_.x) - 1);
    const int x1 = std::min(tail_side_ - 1, TailCoord(p.x + r, tail_lo_.x) + 1);
    const int y0 = std::max(0, TailCoord(p.y - r, tail_lo_.y) - 1);
    const int y1 = std::min(tail_side_ - 1, TailCoord(p.y + r, tail_lo_.y) + 1);
    for (int cy = y0; cy <= y1; ++cy) {
      for (int cx = x0; cx <= x1; ++cx) {
        for (int32_t i = tail_head_[static_cast<size_t>(cy) * tail_side_ + cx];
             i >= 0; i = tail_next_[i - indexed_]) {
          consider(static_cast<size_t>(i), screen);
        }
      }
    }
  } else {
    for (size_t i = indexed_; i < entries_.size(); ++i) {
      consider(i, std::numeric_limits<double>::infinity());
    }
  }
  const size_t tail_keep = std::min(limit, tail.size());
  std::partial_sort(tail.begin(), tail.begin() + tail_keep, tail.end(),
                    better);

  // Merge the two ascending runs.
  std::vector<Vec2> out;
  out.reserve(std::min(limit, indexed.size() + tail_keep));
  size_t a = 0;
  size_t b = 0;
  while (out.size() < limit && (a < indexed.size() || b < tail_keep)) {
    const bool from_tail =
        a == indexed.size() || (b < tail_keep && better(tail[b], indexed[a]));
    out.push_back(entries_[from_tail ? tail[b++].idx : indexed[a++].idx].pos);
  }
  return out;
}

double History::UpperBoundCellArea(int id, const Vec2& pos, const Box& box,
                                   int h, size_t max_constraints) const {
  const std::vector<Vec2> others =
      NearestOtherPositions(pos, id, max_constraints);
  if (others.empty()) return box.Area();
  return ComputeTopkRegionArea(pos, others, box, h);
}

}  // namespace lbsagg
