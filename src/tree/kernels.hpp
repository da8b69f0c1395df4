// Force kernels, matching §VI-A of the paper.
//
// Particle-particle (p-p), Plummer-softened monopole:
//     phi_i -= m_j / sqrt(|r_ij|^2 + eps^2)
//     a_i   += m_j r_ij / (|r_ij|^2 + eps^2)^{3/2}
// counted as 23 flops (4 sub, 3 mul, 6 fma, 1 rsqrt @ 4 flops).
//
// Particle-cell (p-c) with quadrupole corrections, Eq. (1)-(2):
//     phi_i = -m/r + (1/2) tr(Q)/r^3 - (3/2) (r^T Q r)/r^5
//     a_i   =  m r/r^3 - (3/2) tr(Q) r/r^5 - 3 Q r/r^5 + (15/2)(r^T Q r) r/r^7
// with r = r_j - r_i, counted as 65 flops.
//
// These are the reference forms, in double precision: the `scalar` backend
// and direct summation call them per interaction. The batched `simd` drains
// (tree/kernel_backend.cpp) evaluate the same forces in float, as the paper's
// production kernels do, with the p-c form rearranged as
//     phi_i += rinv (h rinv^2 - m - (g.r) rinv^4 / 2)
//     a_i   += rinv^3 (m - 3 h rinv^2 + (5/2)(g.r) rinv^4) r - rinv^5 g
// for g = 3 Q r and h = tr(Q)/2; they are tested against these forms within
// float bounds.
#pragma once

#include <cmath>

#include "tree/multipole.hpp"
#include "util/vec3.hpp"

namespace bonsai {

// Accumulator for one target particle.
struct ForceAccum {
  double ax{}, ay{}, az{}, pot{};
};

// One p-p interaction: source particle (sx,sy,sz,sm) acting on target at
// (tx,ty,tz). eps2 is the squared Plummer softening length.
inline void pp_kernel(double tx, double ty, double tz, double sx, double sy, double sz,
                      double sm, double eps2, ForceAccum& f) {
  const double dx = sx - tx;  // r_ij = r_j - r_i
  const double dy = sy - ty;
  const double dz = sz - tz;
  const double r2 = dx * dx + dy * dy + dz * dz + eps2;
  const double rinv = 1.0 / std::sqrt(r2);
  const double rinv3 = rinv * rinv * rinv;
  const double mr3 = sm * rinv3;
  f.ax += mr3 * dx;
  f.ay += mr3 * dy;
  f.az += mr3 * dz;
  f.pot -= sm * rinv;
}

// One p-c interaction with quadrupole corrections.
inline void pc_kernel(const Vec3d& target, const Multipole& cell, double eps2,
                      ForceAccum& f) {
  const Vec3d dr = cell.com - target;  // r = r_j - r_i
  const double r2 = norm2(dr) + eps2;
  const double rinv = 1.0 / std::sqrt(r2);
  const double rinv2 = rinv * rinv;
  const double rinv3 = rinv * rinv2;
  const double rinv5 = rinv3 * rinv2;
  const double rinv7 = rinv5 * rinv2;

  const Vec3d Qr = cell.quad.mul(dr);
  const double rQr = dot(dr, Qr);
  const double trQ = cell.quad.trace();

  f.pot += -cell.mass * rinv + 0.5 * trQ * rinv3 - 1.5 * rQr * rinv5;

  const double scalar =
      cell.mass * rinv3 - 1.5 * trQ * rinv5 + 7.5 * rQr * rinv7;
  f.ax += scalar * dr.x - 3.0 * rinv5 * Qr.x;
  f.ay += scalar * dr.y - 3.0 * rinv5 * Qr.y;
  f.az += scalar * dr.z - 3.0 * rinv5 * Qr.z;
}

}  // namespace bonsai
