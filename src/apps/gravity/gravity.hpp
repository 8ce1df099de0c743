#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "apps/gravity/centroid_data.hpp"
#include "core/interaction_list.hpp"
#include "tree/node.hpp"

namespace paratreet {

/// Numerical parameters of the gravity solver.
struct GravityParams {
  double theta = 0.7;       ///< Barnes-Hut opening angle
  double softening = 1e-4;  ///< Plummer softening length
  double G = 1.0;           ///< Newton's constant in simulation units
  /// Include the quadrupole term of the multipole expansion.
  bool use_quadrupole = true;
};

/// A source's multipole expansion, derived from its CentroidData once per
/// source visit so the per-target kernel reads it without divisions.
struct Multipole {
  Vec3 centroid{};
  double mass{0.0};
  SymTensor3 quadrupole{};  ///< traceless; zero unless use_quadrupole
};

inline Multipole expandMultipole(const CentroidData& data,
                                 const GravityParams& params) {
  Multipole m{data.centroid(), data.sum_mass, {}};
  if (params.use_quadrupole) m.quadrupole = data.quadrupole();
  return m;
}

/// Acceleration and potential on a point at `pos` from the multipole
/// expansion `m` (the paper's gravApprox helper). One reciprocal per
/// interaction: r^-3, r^-5 and r^-7 are products of inv_r.
inline void gravApprox(const Multipole& m, const Vec3& pos,
                       const GravityParams& params, Vec3& accel,
                       double& potential) {
  const Vec3 dr = pos - m.centroid;
  const double r2 = dr.lengthSquared() + params.softening * params.softening;
  const double inv_r = 1.0 / std::sqrt(r2);
  const double inv_r2 = inv_r * inv_r;
  const double inv_r3 = inv_r * inv_r2;
  accel += (-params.G * m.mass * inv_r3) * dr;
  potential += -params.G * m.mass * inv_r;
  if (params.use_quadrupole) {
    // Traceless quadrupole: phi_Q = -G q_rr / (2 r^5),
    // a_Q = G [ Q dr / r^5 - (5/2) q_rr dr / r^7 ].
    const Vec3 qd = m.quadrupole.mul(dr);
    const double qrr = dr.dot(qd);
    const double inv_r5 = inv_r3 * inv_r2;
    const double inv_r7 = inv_r5 * inv_r2;
    accel += params.G * (qd * inv_r5 - (2.5 * qrr * inv_r7) * dr);
    potential += -params.G * 0.5 * qrr * inv_r5;
  }
}

/// Pairwise Newtonian force on `pos` from one source particle (the
/// paper's gravExact helper). Skips self-interaction (r = 0). The same
/// arithmetic as one lane of gravExactBatch, so a pair gives the same
/// bits on the inline and the SoA path.
inline void gravExact(const Particle& source, const Vec3& pos,
                      const GravityParams& params, Vec3& accel,
                      double& potential) {
  const Vec3 dr = pos - source.position;
  const double dr2 = dr.lengthSquared();
  if (dr2 == 0.0) return;
  const double r2 = dr2 + params.softening * params.softening;
  const double inv_r = 1.0 / std::sqrt(r2);
  const double gm = params.G * source.mass;
  const double gm_inv_r3 = gm * inv_r * (inv_r * inv_r);
  accel -= gm_inv_r3 * dr;
  potential -= gm * inv_r;
}

/// Batched pairwise gravity over gathered SoA spans: every target reads
/// the contiguous source arrays in a flat inner loop the compiler
/// auto-vectorizes. Accumulation runs over 8 explicit lanes (reduced
/// exactly as written, so no -ffast-math reassociation licence is
/// needed) with a scalar tail. Self-interaction is masked by comparing
/// Particle::order — index identity, not the inline path's exact
/// floating-point dr2 == 0 test — and the `+ (1.0 - mask)` term keeps the
/// masked lane's divisor nonzero.
inline void gravExactBatch(const SoaSources& src, const SoaTargets& tgt,
                           const GravityParams& params,
                           SpatialNode<CentroidData>& target) {
  constexpr int kLanes = 8;
  const double eps2 = params.softening * params.softening;
  const double G = params.G;
  const double* __restrict sx = src.x;
  const double* __restrict sy = src.y;
  const double* __restrict sz = src.z;
  const double* __restrict sm = src.m;
  const double* __restrict so = src.order;
  for (int i = 0; i < tgt.n; ++i) {
    const double px = tgt.x[i];
    const double py = tgt.y[i];
    const double pz = tgt.z[i];
    const double self = tgt.order[i];
    double ax[kLanes] = {}, ay[kLanes] = {}, az[kLanes] = {}, ph[kLanes] = {};
    int j = 0;
    for (; j + kLanes <= src.n; j += kLanes) {
      for (int l = 0; l < kLanes; ++l) {
        const double dx = px - sx[j + l];
        const double dy = py - sy[j + l];
        const double dz = pz - sz[j + l];
        const double dr2 = dx * dx + dy * dy + dz * dz;
        const double mask = (so[j + l] == self) ? 0.0 : 1.0;
        const double r2 = dr2 + eps2 + (1.0 - mask);
        const double r = std::sqrt(r2);
        const double gm = G * sm[j + l] * mask;
        const double inv_r = 1.0 / r;
        // One division per pair: r^-3 = inv_r * inv_r^2 (a second vdivpd
        // costs as much as the rest of the lane body combined).
        const double gm_inv_r3 = gm * inv_r * (inv_r * inv_r);
        ax[l] -= gm_inv_r3 * dx;
        ay[l] -= gm_inv_r3 * dy;
        az[l] -= gm_inv_r3 * dz;
        ph[l] -= gm * inv_r;
      }
    }
    double tax = 0.0, tay = 0.0, taz = 0.0, tph = 0.0;
    for (; j < src.n; ++j) {
      const double dx = px - sx[j];
      const double dy = py - sy[j];
      const double dz = pz - sz[j];
      const double dr2 = dx * dx + dy * dy + dz * dz;
      const double mask = (so[j] == self) ? 0.0 : 1.0;
      const double r2 = dr2 + eps2 + (1.0 - mask);
      const double r = std::sqrt(r2);
      const double gm = G * sm[j] * mask;
      const double inv_r = 1.0 / r;
      const double gm_inv_r3 = gm * inv_r * (inv_r * inv_r);
      tax -= gm_inv_r3 * dx;
      tay -= gm_inv_r3 * dy;
      taz -= gm_inv_r3 * dz;
      tph -= gm * inv_r;
    }
    for (int l = 0; l < kLanes; ++l) {
      tax += ax[l];
      tay += ay[l];
      taz += az[l];
      tph += ph[l];
    }
    target.applyAcceleration(i, Vec3{tax, tay, taz});
    target.applyPotential(i, tph);
  }
}

/// The Barnes-Hut gravity Visitor (paper Fig 7). A node is opened when
/// the target bucket's box intersects the node's opening sphere — the
/// sphere about the node centroid whose radius is b_max / theta, with
/// b_max the farthest corner distance of the node box from the centroid.
struct GravityVisitor {
  GravityParams params{};

  /// Flop estimates per interaction for the observability report.
  static constexpr double kFlopsPerPairInteraction = 22.0;
  static constexpr double kFlopsPerNodeInteraction = 55.0;

  bool open(const SpatialNode<CentroidData>& source,
            SpatialNode<CentroidData>& target) const {
    if (source.data.sum_mass <= 0.0) return false;
    const Vec3 c = source.data.centroid();
    const double b2 = source.box.farthestDistanceSquared(c);
    const double d2 = target.box.distanceSquared(c);
    // Equivalent to Space::intersect(target.box, Sphere{c, bmax/theta}).
    return d2 * params.theta * params.theta < b2;
  }

  void node(const SpatialNode<CentroidData>& source,
            SpatialNode<CentroidData>& target) const {
    const Multipole m = expandMultipole(source.data, params);
    for (int i = 0; i < target.n_particles; ++i) {
      Vec3 accel{};
      double phi = 0.0;
      gravApprox(m, target.particle(i).position, params, accel, phi);
      target.applyAcceleration(i, accel);
      target.applyPotential(i, phi);
    }
  }

  void leaf(const SpatialNode<CentroidData>& source,
            SpatialNode<CentroidData>& target) const {
    for (int i = 0; i < target.n_particles; ++i) {
      Vec3 accel{};
      double phi = 0.0;
      const Vec3 pos = target.particle(i).position;
      for (int j = 0; j < source.n_particles; ++j) {
        gravExact(source.particle(j), pos, params, accel, phi);
      }
      target.applyAcceleration(i, accel);
      target.applyPotential(i, phi);
    }
  }

  /// Batch hook (EvalKernel::kBatched): one pass over the bucket's whole
  /// node-approximation list. Each summary is expanded once for the
  /// bucket, then every target streams the contiguous expansions.
  void nodeBatch(const CentroidData* nodes, int n,
                 SpatialNode<CentroidData>& target,
                 const SoaTargets& tgt) const {
    std::vector<Multipole> poles(static_cast<std::size_t>(n));
    for (int k = 0; k < n; ++k) poles[k] = expandMultipole(nodes[k], params);
    for (int i = 0; i < tgt.n; ++i) {
      Vec3 accel{};
      double phi = 0.0;
      const Vec3 pos{tgt.x[i], tgt.y[i], tgt.z[i]};
      for (const Multipole& m : poles) {
        gravApprox(m, pos, params, accel, phi);
      }
      target.applyAcceleration(i, accel);
      target.applyPotential(i, phi);
    }
  }

  /// Batch hook (EvalKernel::kBatched): the bucket's direct list,
  /// gathered into SoA spans, through the vectorized pairwise kernel.
  void leafBatch(const SoaSources& src, SpatialNode<CentroidData>& target,
                 const SoaTargets& tgt) const {
    gravExactBatch(src, tgt, params, target);
  }
};

/// O(N²) direct summation over a particle set: the accuracy reference the
/// tests compare Barnes-Hut against. Writes acceleration and potential.
inline void directForces(std::span<Particle> particles,
                         const GravityParams& params) {
  for (auto& p : particles) {
    p.acceleration = Vec3{};
    p.potential = 0.0;
    for (const auto& q : particles) {
      gravExact(q, p.position, params, p.acceleration, p.potential);
    }
  }
}

}  // namespace paratreet
