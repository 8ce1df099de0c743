#pragma once

#include <algorithm>
#include <limits>
#include <ostream>

#include "util/vector3.hpp"

namespace paratreet {

/// A sphere, used for intersection tests in opening criteria
/// (e.g. the Barnes-Hut ball-box test in GravityVisitor::open()).
struct Sphere {
  Vec3 center{};
  double radius{0.0};

  /// True if `p` lies inside or on the sphere.
  bool contains(const Vec3& p) const {
    return distanceSquared(center, p) <= radius * radius;
  }
};

/// An axis-aligned bounding box. "Oriented" follows the paper's naming
/// (boxes are oriented with the coordinate axes). An empty box is
/// represented by inverted bounds and grows to fit on the first grow().
struct OrientedBox {
  Vec3 lesser_corner{std::numeric_limits<double>::max(),
                     std::numeric_limits<double>::max(),
                     std::numeric_limits<double>::max()};
  Vec3 greater_corner{std::numeric_limits<double>::lowest(),
                      std::numeric_limits<double>::lowest(),
                      std::numeric_limits<double>::lowest()};

  constexpr OrientedBox() = default;
  constexpr OrientedBox(const Vec3& lo, const Vec3& hi)
      : lesser_corner(lo), greater_corner(hi) {}

  /// True if no point has been added and the corners are still inverted.
  constexpr bool empty() const {
    return lesser_corner.x > greater_corner.x ||
           lesser_corner.y > greater_corner.y ||
           lesser_corner.z > greater_corner.z;
  }

  /// Expand to include point `p`.
  constexpr void grow(const Vec3& p) {
    lesser_corner.x = std::min(lesser_corner.x, p.x);
    lesser_corner.y = std::min(lesser_corner.y, p.y);
    lesser_corner.z = std::min(lesser_corner.z, p.z);
    greater_corner.x = std::max(greater_corner.x, p.x);
    greater_corner.y = std::max(greater_corner.y, p.y);
    greater_corner.z = std::max(greater_corner.z, p.z);
  }

  /// Expand to include another box.
  constexpr void grow(const OrientedBox& o) {
    if (o.empty()) return;
    grow(o.lesser_corner);
    grow(o.greater_corner);
  }

  /// True if `p` lies inside or on the boundary.
  constexpr bool contains(const Vec3& p) const {
    return p.x >= lesser_corner.x && p.x <= greater_corner.x &&
           p.y >= lesser_corner.y && p.y <= greater_corner.y &&
           p.z >= lesser_corner.z && p.z <= greater_corner.z;
  }

  /// True if `o` is fully contained in this box.
  constexpr bool contains(const OrientedBox& o) const {
    return o.empty() || (contains(o.lesser_corner) && contains(o.greater_corner));
  }

  constexpr Vec3 center() const {
    return (lesser_corner + greater_corner) * 0.5;
  }
  constexpr Vec3 size() const { return greater_corner - lesser_corner; }
  constexpr double volume() const {
    const Vec3 s = size();
    return empty() ? 0.0 : s.x * s.y * s.z;
  }
  /// Index of the box's longest side (0=x, 1=y, 2=z).
  constexpr std::size_t longestDimension() const {
    return size().longestDimension();
  }

  /// Squared distance from `p` to the nearest point of the box
  /// (zero if `p` is inside).
  ///
  /// The hot path clamps `p` into the box with min/max and squares the
  /// offset, so no branch depends on where `p` lies and the pruning tests
  /// of every visitor run without mispredictions. On a non-empty box it
  /// gives the per-axis branchy form's result below bit for bit, unless
  /// that sum is NaN: only a NaN coordinate, or an infinite coordinate on
  /// an infinite bound, makes it so. Those cases and empty (inverted)
  /// boxes take the branchy form, behind a branch that a built tree's
  /// boxes and finite positions never take.
  constexpr double distanceSquared(const Vec3& p) const {
    double d2 = 0.0;
    for (std::size_t i = 0; i < 3; ++i) {
      const double lo = lesser_corner[i], hi = greater_corner[i];
      const double d = p[i] - std::min(std::max(p[i], lo), hi);
      d2 += d * d;
    }
    if (d2 == d2 && !empty()) [[likely]] return d2;  // d2 is not NaN
    d2 = 0.0;
    for (std::size_t i = 0; i < 3; ++i) {
      const double lo = lesser_corner[i], hi = greater_corner[i];
      if (p[i] < lo) d2 += (lo - p[i]) * (lo - p[i]);
      else if (p[i] > hi) d2 += (p[i] - hi) * (p[i] - hi);
    }
    return d2;
  }

  /// Squared distance from `p` to the farthest corner of the box.
  constexpr double farthestDistanceSquared(const Vec3& p) const {
    double d2 = 0.0;
    for (std::size_t i = 0; i < 3; ++i) {
      const double lo = lesser_corner[i], hi = greater_corner[i];
      const double d = std::max(p[i] - lo, hi - p[i]);
      d2 += d * d;
    }
    return d2;
  }

  friend constexpr bool operator==(const OrientedBox&, const OrientedBox&) = default;
};

inline std::ostream& operator<<(std::ostream& os, const OrientedBox& b) {
  return os << '[' << b.lesser_corner << " .. " << b.greater_corner << ']';
}

/// Geometric predicates used by visitors; mirrors the paper's
/// `Space::intersect(box, sphere)` helper.
namespace Space {

/// True if the sphere and the box overlap (share at least one point).
inline bool intersect(const OrientedBox& box, const Sphere& s) {
  return box.distanceSquared(s.center) <= s.radius * s.radius;
}

/// True if the box is entirely inside the sphere.
inline bool contained(const OrientedBox& box, const Sphere& s) {
  return box.farthestDistanceSquared(s.center) <= s.radius * s.radius;
}

/// Squared distance between two boxes (0 when they overlap).
inline double distanceSquared(const OrientedBox& a, const OrientedBox& b) {
  double d2 = 0.0;
  for (std::size_t i = 0; i < 3; ++i) {
    const double gap1 = b.lesser_corner[i] - a.greater_corner[i];
    const double gap2 = a.lesser_corner[i] - b.greater_corner[i];
    const double gap = gap1 > gap2 ? gap1 : gap2;
    if (gap > 0.0) d2 += gap * gap;
  }
  return d2;
}

/// True if two boxes overlap.
inline bool intersect(const OrientedBox& a, const OrientedBox& b) {
  if (a.empty() || b.empty()) return false;
  return a.lesser_corner.x <= b.greater_corner.x && b.lesser_corner.x <= a.greater_corner.x &&
         a.lesser_corner.y <= b.greater_corner.y && b.lesser_corner.y <= a.greater_corner.y &&
         a.lesser_corner.z <= b.greater_corner.z && b.lesser_corner.z <= a.greater_corner.z;
}

}  // namespace Space

}  // namespace paratreet
