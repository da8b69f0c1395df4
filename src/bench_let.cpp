// bench_let: times the LET codec in isolation — per step, the LET build, the
// full-frame encode (into a reused scratch buffer, as LetExchange::post does)
// and the validating decode — on a drifting Plummer cloud, so the exported
// tree changes every step. Encode and decode rates are frame bytes per
// second.
//
// Every step also asserts the correctness bar: the decoded LET must
// re-encode byte-identically to the frame it came from.
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

// Frame bytes per second, in GB/s.
double gbps(std::uint64_t bytes, double seconds) {
  return seconds > 0.0 ? static_cast<double>(bytes) / seconds * 1e-9 : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t n = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 16384;
  const int steps = argc > 2 ? std::atoi(argv[2]) : 12;
  if (n == 0 || steps <= 0) {
    std::cerr << "usage: bench_let [n] [steps]\n";
    return 2;
  }

  // A drifting cloud: bulk velocity on top of the Plummer dispersion, then a
  // leapfrog-style position update each step.
  ParticleSet parts = make_plummer(n, 42);
  for (std::size_t i = 0; i < parts.size(); ++i) {
    parts.vx[i] += 0.5;
    parts.vy[i] += 0.25;
  }
  const AABB remote{{4.0, 4.0, 4.0}, {6.0, 6.0, 6.0}};

  std::cout << "bench_let: n=" << n << " steps=" << steps << "\n";

  std::vector<std::uint8_t> scratch;
  double sum_build = 0.0, sum_encode = 0.0, sum_decode = 0.0;
  std::uint64_t sum_bytes = 0;
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

    WallTimer encode_timer;
    const std::vector<std::uint8_t> frame = wire::encode_let_scratch(0, let, scratch);
    const double t_encode = encode_timer.elapsed();

    WallTimer decode_timer;
    const wire::LetMessage msg = wire::decode_let(frame);
    const double t_decode = decode_timer.elapsed();

    // Correctness bar, asserted every step: the decoded tree is
    // indistinguishable from the export on the wire.
    if (wire::encode_let(0, msg.let) != frame) {
      std::cerr << "bench_let: FAIL — decoded LET re-encodes differently at step " << step
                << "\n";
      return 1;
    }

    sum_build += t_build;
    sum_encode += t_encode;
    sum_decode += t_decode;
    sum_bytes += frame.size();
    std::cout << "step " << step << ": cells=" << let.num_cells()
              << " parts=" << let.num_particles() << " frame=" << frame.size()
              << "B build=" << t_build * 1e3 << "ms encode=" << t_encode * 1e3
              << "ms (" << gbps(frame.size(), t_encode) << " GB/s) decode=" << t_decode * 1e3
              << "ms (" << gbps(frame.size(), t_decode) << " GB/s)\n";
  }

  std::cout << "totals: build=" << sum_build * 1e3 << "ms encode=" << sum_encode * 1e3
            << "ms (" << gbps(sum_bytes, sum_encode) << " GB/s) decode=" << sum_decode * 1e3
            << "ms (" << gbps(sum_bytes, sum_decode) << " GB/s) bytes=" << sum_bytes << "\n"
            << "bench_let: PASS (decoded == re-encoded frame, every step)\n";
  return 0;
}
