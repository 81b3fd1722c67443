#ifndef LBSAGG_GEOMETRY_POLYGON_H_
#define LBSAGG_GEOMETRY_POLYGON_H_

#include <optional>
#include <vector>

#include "geometry/box.h"
#include "geometry/line.h"
#include "geometry/vec2.h"
#include "util/rng.h"

namespace lbsagg {

// Convex polygon with counter-clockwise vertex order.
//
// This is the representation of (top-1) Voronoi cells and of the convex
// pieces that tile a top-k Voronoi cell. The key operation is Clip(): the
// Voronoi cell of tuple t within point set S is
//     Box → Clip(Closer(t, s1)) → Clip(Closer(t, s2)) → …
// exactly as in Algorithm 3 of the paper ("perpendicular bisector half plane
// approach").
class ConvexPolygon {
 public:
  // Empty polygon.
  ConvexPolygon() = default;

  // Polygon from counter-clockwise vertices. Degenerate inputs (fewer than 3
  // distinct vertices) produce an empty polygon.
  explicit ConvexPolygon(std::vector<Vec2> vertices);

  // The four corners of a box.
  static ConvexPolygon FromBox(const Box& box);

  bool IsEmpty() const { return vertices_.size() < 3; }
  const std::vector<Vec2>& vertices() const { return vertices_; }
  size_t size() const { return vertices_.size(); }

  // Signed area is always >= 0 because vertices are CCW.
  double Area() const;

  // Centroid (area-weighted). Requires a non-empty polygon.
  Vec2 Centroid() const;

  // Point-in-polygon test (closed polygon; boundary counts as inside up to
  // `eps` slack in the half-plane side values).
  bool Contains(const Vec2& p, double eps = 1e-9) const;

  // Intersects the polygon with the closed half-plane; returns the clipped
  // polygon (possibly empty). Sutherland–Hodgman against one plane.
  ConvexPolygon Clip(const HalfPlane& hp, double eps = 0.0) const;

  // Splits the polygon by the line into (negative side, positive side),
  // matching HalfPlane semantics: `first` is where Side(p) <= 0. Either part
  // may be empty. Bit-identical to Clip() against the line and against its
  // negation, in one pass.
  std::pair<ConvexPolygon, ConvexPolygon> Split(const Line& line,
                                                double eps = 0.0) const;

  // Uniform random point inside the polygon (fan triangulation + warped
  // barycentric sampling). Requires a non-empty polygon.
  Vec2 SamplePoint(Rng& rng) const;

  // Tight axis-aligned bounding box. Requires a non-empty polygon.
  Box BoundingBox() const;

  // Convex hull of arbitrary points (Andrew monotone chain). Collinear
  // points on the hull boundary are dropped.
  static ConvexPolygon ConvexHull(std::vector<Vec2> points);

  // Largest distance from `p` to any vertex; 0 for empty polygons.
  double MaxDistanceFrom(const Vec2& p) const;

  // Removes near-duplicate consecutive vertices (within `eps`). Called by
  // the constructor; exposed for polygons assembled manually.
  void Normalize(double eps = 1e-12);

 private:
  std::vector<Vec2> vertices_;
};

}  // namespace lbsagg

#endif  // LBSAGG_GEOMETRY_POLYGON_H_
