// Particle storage.
//
// ParticleSet is structure-of-arrays: the tree walk streams positions and
// masses contiguously (Per.16/Per.19 of the Core Guidelines: compact data,
// predictable access), and per-array access is what the GPU kernels the paper
// describes operate on. Particle is the array-of-structs view used for
// serialization (initial conditions exchange, domain migration, snapshots).
#pragma once

#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "sfc/keys.hpp"
#include "util/aabb.hpp"
#include "util/check.hpp"
#include "util/vec3.hpp"

namespace bonsai {

// Plain-old-data particle used on the wire and in generators.
struct Particle {
  Vec3d pos;
  Vec3d vel;
  double mass = 0.0;
  std::uint64_t id = 0;
};

// SoA particle container with per-particle force/potential/work outputs and
// SFC keys. All arrays always have identical length.
class ParticleSet {
 public:
  ParticleSet() = default;
  explicit ParticleSet(std::size_t n) { resize(n); }

  std::size_t size() const { return x.size(); }
  bool empty() const { return x.empty(); }

  void resize(std::size_t n) {
    each_column([&](auto col) { (this->*col).resize(n); });
  }

  void reserve(std::size_t n) {
    each_column([&](auto col) { (this->*col).reserve(n); });
  }

  // Append every column of `o` (forces, work and keys included).
  void append(const ParticleSet& o) {
    each_column([&](auto col) {
      auto& to = this->*col;
      to.insert(to.end(), (o.*col).begin(), (o.*col).end());
    });
  }

  // Append rows `rows` of `o`, in that order, every column included.
  void append(const ParticleSet& o, std::span<const std::uint32_t> rows) {
    each_column([&](auto col) {
      auto& to = this->*col;
      const auto& from = o.*col;
      for (const std::uint32_t i : rows) to.push_back(from[i]);
    });
  }

  void clear() { resize(0); }

  void add(const Particle& p) {
    x.push_back(p.pos.x);
    y.push_back(p.pos.y);
    z.push_back(p.pos.z);
    vx.push_back(p.vel.x);
    vy.push_back(p.vel.y);
    vz.push_back(p.vel.z);
    ax.push_back(0.0);
    ay.push_back(0.0);
    az.push_back(0.0);
    pot.push_back(0.0);
    work.push_back(0.0);
    mass.push_back(p.mass);
    id.push_back(p.id);
    key.push_back(0);
  }

  Vec3d pos(std::size_t i) const { return {x[i], y[i], z[i]}; }
  Vec3d vel(std::size_t i) const { return {vx[i], vy[i], vz[i]}; }
  Vec3d acc(std::size_t i) const { return {ax[i], ay[i], az[i]}; }

  void set_pos(std::size_t i, const Vec3d& p) {
    x[i] = p.x;
    y[i] = p.y;
    z[i] = p.z;
  }
  void set_vel(std::size_t i, const Vec3d& v) {
    vx[i] = v.x;
    vy[i] = v.y;
    vz[i] = v.z;
  }

  Particle get(std::size_t i) const { return {pos(i), vel(i), mass[i], id[i]}; }

  // Tight bounding box of all particle positions.
  AABB bounds() const {
    AABB box;
    for (std::size_t i = 0; i < size(); ++i) box.expand(pos(i));
    return box;
  }

  double total_mass() const { return std::accumulate(mass.begin(), mass.end(), 0.0); }

  // Reorder all arrays so that entry i comes from old index perm[i].
  void apply_permutation(std::span<const std::uint32_t> perm) {
    BNS_CHECK(perm.size() == size());
    each_column([&](auto col) { permute(this->*col, perm); });
  }

  void zero_forces() {
    std::fill(ax.begin(), ax.end(), 0.0);
    std::fill(ay.begin(), ay.end(), 0.0);
    std::fill(az.begin(), az.end(), 0.0);
    std::fill(pot.begin(), pot.end(), 0.0);
    std::fill(work.begin(), work.end(), 0.0);
  }

  std::vector<double> x, y, z;
  std::vector<double> vx, vy, vz;
  std::vector<double> ax, ay, az, pot;
  // Counted walk work of the last force pass: each target group's useful
  // flops spread evenly over its particles, summed over the local and every
  // remote walk. The domain update cuts on it (domain/simulation.hpp).
  std::vector<double> work;
  std::vector<double> mass;
  std::vector<std::uint64_t> id;
  std::vector<sfc::Key> key;

  // Call fn with a pointer to each column member, in declaration order.
  template <typename Fn>
  static void each_column(Fn&& fn) {
    fn(&ParticleSet::x);
    fn(&ParticleSet::y);
    fn(&ParticleSet::z);
    fn(&ParticleSet::vx);
    fn(&ParticleSet::vy);
    fn(&ParticleSet::vz);
    fn(&ParticleSet::ax);
    fn(&ParticleSet::ay);
    fn(&ParticleSet::az);
    fn(&ParticleSet::pot);
    fn(&ParticleSet::work);
    fn(&ParticleSet::mass);
    fn(&ParticleSet::id);
    fn(&ParticleSet::key);
  }

 private:
  template <typename T>
  static void permute(std::vector<T>& v, std::span<const std::uint32_t> perm) {
    std::vector<T> out(v.size());
    for (std::size_t i = 0; i < perm.size(); ++i) out[i] = v[perm[i]];
    v.swap(out);
  }
};

// Compute SFC keys for all particles and sort the set by (key, id). Returns
// the permutation applied (new index -> old index). Device::sort_particles
// is the "Sorting SFC" stage of Table II: the same sort (sfc/radix_sort.hpp)
// over keys the rank's key pass already filled.
std::vector<std::uint32_t> sort_by_keys(ParticleSet& parts, const sfc::KeySpace& space);

}  // namespace bonsai
