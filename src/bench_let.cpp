// bench_let: times the incremental LET exchange in isolation — per step, the
// LET build, the full encode, the delta encode (exporter diff against the
// peer's mirrored cache) and the patch-and-validate decode — on a drifting
// Plummer cloud, the steady-state workload the cache is built for. The
// compression ratio printed per step is the wire-byte cost of the cached
// exchange relative to shipping full frames.
//
// Every step also asserts the correctness bar: the patched LET must
// re-encode byte-identically to the fresh full export.
//
// Usage: bench_let [n] [steps]   (default n=16384, steps=12)
#include <cstdlib>
#include <iostream>
#include <vector>

#include "domain/let.hpp"
#include "domain/wire.hpp"
#include "tree/octree.hpp"
#include "util/ic.hpp"
#include "util/timer.hpp"

namespace {

using namespace bonsai;
namespace wire = domain::wire;

}  // namespace

int main(int argc, char** argv) {
  const std::size_t n = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 16384;
  const int steps = argc > 2 ? std::atoi(argv[2]) : 12;
  if (n == 0 || steps <= 0) {
    std::cerr << "usage: bench_let [n] [steps]\n";
    return 2;
  }

  // A drifting cloud: bulk velocity on top of the Plummer dispersion, then a
  // leapfrog-style position update each step. Linear coherent motion is the
  // common case the delta codec's polynomial predictor targets.
  ParticleSet parts = make_plummer(n, 42);
  for (std::size_t i = 0; i < parts.size(); ++i) {
    parts.vx[i] += 0.5;
    parts.vy[i] += 0.25;
  }
  const AABB remote{{4.0, 4.0, 4.0}, {6.0, 6.0, 6.0}};

  std::cout << "bench_let: n=" << n << " steps=" << steps << "\n";

  wire::LetCacheEntry send, recv;
  std::vector<std::uint8_t> scratch;
  double sum_build = 0.0, sum_full = 0.0, sum_delta = 0.0, sum_patch = 0.0;
  std::uint64_t cached_bytes = 0, full_bytes = 0;
  for (int step = 0; step < steps; ++step) {
    for (std::size_t i = 0; i < parts.size(); ++i) {
      parts.x[i] += 1e-3 * parts.vx[i];
      parts.y[i] += 1e-3 * parts.vy[i];
      parts.z[i] += 1e-3 * parts.vz[i];
    }

    WallTimer build_timer;
    const sfc::KeySpace space(parts.bounds());
    sort_by_keys(parts, space);
    Octree tree;
    tree.build(parts);
    tree.compute_properties(parts, 0.5);
    const domain::LetTree let = domain::build_let(tree.view(parts), remote);
    const double t_build = build_timer.elapsed();

    WallTimer full_timer;
    const std::vector<std::uint8_t> full = wire::encode_let({0, let});
    const double t_full = full_timer.elapsed();

    WallTimer delta_timer;
    const wire::LetEncodeResult enc =
        wire::encode_let_cached({0, let}, send, wire::kLetChurnRatio, &scratch);
    const double t_delta = delta_timer.elapsed();

    WallTimer patch_timer;
    const wire::LetMessage msg = wire::decode_let_cached(enc.frame, recv);
    const double t_patch = patch_timer.elapsed();

    // Correctness bar, asserted every step: the patched tree is
    // indistinguishable from the full export on the wire.
    if (wire::encode_let({0, msg.let}) != full) {
      std::cerr << "bench_let: FAIL — patched LET differs from the full export "
                   "at step " << step << "\n";
      return 1;
    }

    sum_build += t_build;
    sum_full += t_full;
    sum_delta += t_delta;
    sum_patch += t_patch;
    cached_bytes += enc.frame.size();
    full_bytes += full.size();
    std::cout << "step " << step << ": cells=" << let.num_cells()
              << " parts=" << let.num_particles() << " "
              << (enc.is_delta ? "delta" : "full") << "=" << enc.frame.size()
              << "B vs full=" << full.size() << "B (ratio "
              << static_cast<double>(enc.frame.size()) / static_cast<double>(full.size())
              << ") build=" << t_build * 1e3 << "ms encode_full=" << t_full * 1e3
              << "ms encode_delta=" << t_delta * 1e3 << "ms patch=" << t_patch * 1e3
              << "ms\n";
  }

  std::cout << "totals: build=" << sum_build * 1e3 << "ms encode_full=" << sum_full * 1e3
            << "ms encode_delta=" << sum_delta * 1e3 << "ms patch=" << sum_patch * 1e3
            << "ms wire_ratio="
            << static_cast<double>(cached_bytes) / static_cast<double>(full_bytes)
            << " (cached " << cached_bytes << "B vs full " << full_bytes << "B)\n"
            << "bench_let: PASS (patched == full re-export, every step)\n";
  return 0;
}
