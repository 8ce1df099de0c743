#pragma once

// Brute-force references the benchmark checks each step against. They are
// written out here on purpose, independent of the library's pair kernels,
// so a defect there cannot hide in the reference as well.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "tree/particle.hpp"
#include "util/rng.hpp"

namespace perfbench {

using paratreet::Particle;
using paratreet::Vec3;

/// Outcome of one step's check.
struct Check {
  bool ok = true;
  double err = 0.0;  ///< worst relative error over the sample
  std::string why;   ///< first failure

  void fail(const std::string& reason) {
    if (ok) why = reason;
    ok = false;
  }
};

/// `count` distinct particle indexes in [0, n), drawn from `seed`.
inline std::vector<std::size_t> sampleIndexes(std::size_t n, std::size_t count,
                                              std::uint64_t seed) {
  paratreet::Rng rng(seed);
  std::vector<std::size_t> out;
  count = std::min(count, n);
  while (out.size() < count) {
    const auto i = static_cast<std::size_t>(rng.uniform() * static_cast<double>(n));
    if (i < n && std::find(out.begin(), out.end(), i) == out.end()) out.push_back(i);
  }
  return out;
}

inline bool finite(const Vec3& v) {
  return std::isfinite(v.x) && std::isfinite(v.y) && std::isfinite(v.z);
}

/// Particles come back from Forest::collect() in input order: every
/// index must be present once, with finite state.
inline void checkIntact(const std::vector<Particle>& ps, std::size_t n, Check& c) {
  if (ps.size() != n) {
    c.fail("lost particles: " + std::to_string(ps.size()) + " of " +
           std::to_string(n));
    return;
  }
  for (std::size_t i = 0; i < ps.size(); ++i) {
    const auto& p = ps[i];
    if (p.order != static_cast<std::int32_t>(i)) {
      c.fail("particle order " + std::to_string(i) + " missing");
      return;
    }
    if (!finite(p.position) || !finite(p.velocity) || !finite(p.acceleration)) {
      c.fail("non-finite state on particle " + std::to_string(i));
      return;
    }
  }
}

/// Direct-sum softened Newtonian acceleration on particle `i`.
inline Vec3 directAcceleration(const std::vector<Particle>& ps, std::size_t i,
                               double G, double softening) {
  const double eps2 = softening * softening;
  double ax = 0.0, ay = 0.0, az = 0.0;
  const Vec3 xi = ps[i].position;
  for (std::size_t j = 0; j < ps.size(); ++j) {
    if (j == i) continue;
    const double dx = xi.x - ps[j].position.x;
    const double dy = xi.y - ps[j].position.y;
    const double dz = xi.z - ps[j].position.z;
    const double r2 = dx * dx + dy * dy + dz * dz + eps2;
    const double f = -G * ps[j].mass / (r2 * std::sqrt(r2));
    ax += f * dx;
    ay += f * dy;
    az += f * dz;
  }
  return Vec3{ax, ay, az};
}

/// Worst acceleration error over `sample` against direct summation,
/// relative to the sample's RMS acceleration. (Relative to each
/// particle's own acceleration, particles near the centre of a Plummer
/// sphere, where the pulls cancel, would dominate with errors of a few
/// percent even at theta 0.7.)
inline void checkGravity(const std::vector<Particle>& ps,
                         const std::vector<std::size_t>& sample, double G,
                         double softening, double tolerance, Check& c) {
  std::vector<Vec3> ref;
  double sum2 = 0.0;
  for (const auto i : sample) {
    ref.push_back(directAcceleration(ps, i, G, softening));
    sum2 += ref.back().lengthSquared();
  }
  const double rms = std::sqrt(sum2 / static_cast<double>(sample.size()));
  for (std::size_t k = 0; k < sample.size(); ++k) {
    const double err = (ps[sample[k]].acceleration - ref[k]).length() / rms;
    c.err = std::max(c.err, std::isfinite(err) ? err : HUGE_VAL);
  }
  if (!(c.err <= tolerance)) {
    c.fail("acceleration error " + std::to_string(c.err) + " above tolerance " +
           std::to_string(tolerance));
  }
}

/// Worst relative error of each sampled particle's search radius (the
/// k-th nearest distance, self included) against an exhaustive search.
inline void checkKnn(const std::vector<Particle>& ps,
                     const std::vector<std::size_t>& sample, int k,
                     double tolerance, Check& c) {
  std::vector<double> d2(ps.size());
  for (const auto i : sample) {
    for (std::size_t j = 0; j < ps.size(); ++j) {
      const Vec3 d = ps[i].position - ps[j].position;
      d2[j] = d.x * d.x + d.y * d.y + d.z * d.z;
    }
    const auto kth = d2.begin() + (k - 1);
    std::nth_element(d2.begin(), kth, d2.end());
    const double ref = std::sqrt(*kth);
    const double got = std::sqrt(ps[i].ball2);
    const double err = std::abs(got - ref) / ref;
    c.err = std::max(c.err, std::isfinite(err) ? err : HUGE_VAL);
    if (ps[i].neighbor_count != k) {
      c.fail("particle " + std::to_string(i) + " has " +
             std::to_string(ps[i].neighbor_count) + " neighbours, want " +
             std::to_string(k));
    }
    if (!(ps[i].density > 0.0) || !std::isfinite(ps[i].density)) {
      c.fail("bad density on particle " + std::to_string(i));
    }
  }
  if (!(c.err <= tolerance)) {
    c.fail("k-th neighbour distance error " + std::to_string(c.err) +
           " above tolerance " + std::to_string(tolerance));
  }
}

/// Earliest time in [0, dt] at which two ballistic spheres touch, or a
/// negative value when they do not.
inline double contactTime(const Particle& a, const Particle& b, double dt) {
  const Vec3 dx = b.position - a.position;
  const Vec3 dv = b.velocity - a.velocity;
  const double r = a.ball_radius + b.ball_radius;
  const double c0 = dx.lengthSquared() - r * r;
  if (c0 <= 0.0) return 0.0;
  const double a2 = dv.lengthSquared();
  const double b1 = dx.dot(dv);
  if (a2 == 0.0 || b1 >= 0.0) return -1.0;
  const double disc = b1 * b1 - a2 * c0;
  if (disc < 0.0) return -1.0;
  const double t = (-b1 - std::sqrt(disc)) / a2;
  return t <= dt ? t : -1.0;
}

/// Each sampled body's earliest contact partner must match an exhaustive
/// search (a tie in contact time may resolve to either partner).
inline void checkContacts(const std::vector<Particle>& ps,
                          const std::vector<std::size_t>& sample, double dt,
                          Check& c) {
  for (const auto i : sample) {
    double best = -1.0;
    for (std::size_t j = 0; j < ps.size(); ++j) {
      if (j == i) continue;
      const double t = contactTime(ps[i], ps[j], dt);
      if (t >= 0.0 && (best < 0.0 || t < best)) best = t;
    }
    const auto partner = ps[i].collision_partner;
    bool match = partner < 0 ? best < 0.0 : best >= 0.0;
    if (match && partner >= 0) {
      const double t = contactTime(ps[i], ps[static_cast<std::size_t>(partner)], dt);
      match = t == best;
    }
    if (!match) {
      c.fail("body " + std::to_string(i) + " contact partner " +
             std::to_string(partner) + " disagrees with brute force");
    }
  }
}

}  // namespace perfbench
