// Shared seed-frame and dispatch machinery for the wire fuzzing layer.
//
// One place defines (a) a minimized, deterministic encoded frame per
// FrameType and (b) decode_any() — the type-dispatched decoder the harness
// and the generic truncation/byte-flip test drive.
//
// Users: tests/fuzz/fuzz_wire.cpp, tools/corpus_dump.cpp,
// tests/test_fuzz_corpus.cpp and tests/test_wire.cpp. tools/wire_lint.py
// statically cross-checks that every FrameType appears in both the
// seed-frame builder and the decode_any() switch below.
#pragma once

#include <cctype>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "domain/let.hpp"
#include "domain/wire.hpp"
#include "tree/octree.hpp"
#include "util/ic.hpp"

namespace bonsai::fuzz {

namespace wire = domain::wire;

struct SeedFrame {
  wire::FrameType type;
  std::string name;  // corpus file stem, e.g. "key_samples"
  std::vector<std::uint8_t> frame;
};

namespace detail {

// Small but structurally real LET: internal nodes, multipole leaves and
// particle leaves, from a Plummer cloud against a displaced remote box.
inline domain::LetTree make_seed_let(ParticleSet parts) {
  const sfc::KeySpace space(parts.bounds());
  sort_by_keys(parts, space);
  Octree tree;
  tree.build(parts);
  tree.compute_properties(parts, 0.5);
  return domain::build_let(tree.view(parts), AABB{{4, 4, 4}, {6, 6, 6}});
}

inline ParticleSet make_seed_particles(std::size_t n, std::uint64_t seed) {
  ParticleSet parts = make_plummer(n, seed);
  for (std::size_t i = 0; i < parts.size(); ++i) {
    parts.ax[i] = 0.25 * static_cast<double>(i);
    parts.pot[i] = -1.0 / (1.0 + static_cast<double>(i));
    parts.key[i] = 31 * i;
  }
  return parts;
}

}  // namespace detail

// One minimized, deterministic frame per FrameType — the checked-in fuzz
// corpus and the base set for the truncation/byte-flip sweeps. Keep this
// exhaustive: wire_lint.py fails the build when a FrameType is missing.
inline std::vector<SeedFrame> seed_frames() {
  std::vector<SeedFrame> out;
  const auto add = [&out](wire::FrameType type, std::vector<std::uint8_t> frame) {
    std::string name = wire::frame_type_name(type);
    std::string snake;
    for (std::size_t i = 0; i < name.size(); ++i) {
      const char c = name[i];
      if (std::isupper(static_cast<unsigned char>(c)) && i > 0) snake.push_back('_');
      snake.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    }
    out.push_back({type, std::move(snake), std::move(frame)});
  };

  const ParticleSet parts = detail::make_seed_particles(3, 11);

  add(wire::FrameType::kLet,
      wire::encode_let(1, detail::make_seed_let(make_plummer(48, 7))));
  add(wire::FrameType::kParticles, wire::encode_particles(2, parts, /*with_forces=*/true));
  add(wire::FrameType::kHello, wire::encode_hello(3, 40123));
  {
    domain::SimConfig cfg;
    cfg.nranks = 2;
    add(wire::FrameType::kConfig, wire::encode_config(cfg));
  }
  {
    wire::StepBegin sb;
    sb.step = 4;
    sb.mode = wire::StepMode::kSpmdBootstrap;
    sb.parts = parts;
    add(wire::FrameType::kStepBegin, wire::encode_step_begin(sb));
  }
  {
    wire::StepResult sr;
    sr.rank = 1;
    sr.local_count = 3;
    sr.kinetic = 0.5;
    sr.potential = -1.25;
    sr.let_sizes = {{5, 9, 128}};
    sr.boundaries = {0, sfc::kKeyEnd / 2, sfc::kKeyEnd};
    sr.traffic = {{0, 1, 1, 3, 512}};
    sr.recv_ns = 100;
    sr.send_ns = 250;
    sr.spans.push_back({"gravity.remote", 110, 240, 1, 1, 2, 0, 64});
    add(wire::FrameType::kStepResult, wire::encode_step_result(sr));
  }
  add(wire::FrameType::kShutdown, wire::encode_shutdown());
  add(wire::FrameType::kBoundaries,
      wire::encode_boundaries({0, 2, true, 64, AABB{{-1, -1, -1}, {1, 1, 1}}, 0.5}));
  add(wire::FrameType::kKeySamples, wire::encode_key_samples({1, 3, {7, 11, 13}}));
  add(wire::FrameType::kMigration, wire::encode_migration(0, 5, make_plummer(2, 3)));
  add(wire::FrameType::kPeerDirectory,
      wire::encode_peer_directory(std::vector<wire::PeerEndpoint>{
          {"127.0.0.1", 4001}, {"127.0.0.1", 4002}}));
  add(wire::FrameType::kPeerHello, wire::encode_peer_hello(1));
  {
    wire::JobSpec spec;
    spec.name = "fuzz";
    spec.n = 32;
    spec.steps = 2;
    spec.ranks = 1;
    spec.priority = 1;
    add(wire::FrameType::kJobSubmit, wire::encode_job_submit(spec));
  }
  {
    wire::JobStatusMsg st;
    st.job_id = 7;
    st.state = wire::JobState::kRunning;
    st.steps_done = 1;
    st.steps_total = 2;
    st.ranks = 1;
    st.n = 32;
    st.reason = "ok";
    add(wire::FrameType::kJobStatus, wire::encode_job_status(st));
  }
  {
    wire::JobResultMsg res;
    res.job_id = 7;
    res.state = wire::JobState::kCompleted;
    res.steps_done = 2;
    res.kinetic = 0.25;
    res.potential = -0.5;
    res.parts = parts;
    add(wire::FrameType::kJobResult, wire::encode_job_result(res));
  }
  add(wire::FrameType::kJobCancel, wire::encode_job_cancel(7));
  {
    wire::SnapshotMsg snap;
    snap.job_id = 7;
    snap.next_step = 3;
    snap.sets = {make_plummer(2, 5), make_plummer(3, 6)};
    add(wire::FrameType::kSnapshot, wire::encode_snapshot(snap));
  }
  add(wire::FrameType::kMetricsQuery, wire::encode_metrics_query());
  {
    metrics::Snapshot snap;
    snap.counters["server.jobs.completed"] = 2.0;
    snap.gauges["server.pool.slots_free"] = 3.0;
    snap.histograms["step.seconds"] = {{0.1}, {1, 2}, 3, 0.9};
    add(wire::FrameType::kMetricsReport, wire::encode_metrics_report(snap));
  }
  return out;
}

// Decode `frame` with the decoder matching its header type. Throws
// WireError on any malformed input — anything else is a fuzz finding.
inline void decode_any(std::span<const std::uint8_t> frame) {
  switch (wire::frame_type(frame)) {
    case wire::FrameType::kLet: wire::decode_let(frame); break;
    case wire::FrameType::kParticles: wire::decode_particles(frame); break;
    case wire::FrameType::kHello: wire::decode_hello(frame); break;
    case wire::FrameType::kConfig: wire::decode_config(frame); break;
    case wire::FrameType::kStepBegin: wire::decode_step_begin(frame); break;
    case wire::FrameType::kStepResult: wire::decode_step_result(frame); break;
    case wire::FrameType::kShutdown: break;  // header-only: frame_type() validated it
    case wire::FrameType::kBoundaries: wire::decode_boundaries(frame); break;
    case wire::FrameType::kKeySamples: wire::decode_key_samples(frame); break;
    case wire::FrameType::kMigration: wire::decode_migration(frame); break;
    case wire::FrameType::kPeerDirectory: wire::decode_peer_directory(frame); break;
    case wire::FrameType::kPeerHello: wire::decode_peer_hello(frame); break;
    case wire::FrameType::kJobSubmit: wire::decode_job_submit(frame); break;
    case wire::FrameType::kJobStatus: wire::decode_job_status(frame); break;
    case wire::FrameType::kJobResult: wire::decode_job_result(frame); break;
    case wire::FrameType::kJobCancel: wire::decode_job_cancel(frame); break;
    case wire::FrameType::kSnapshot: wire::decode_snapshot(frame); break;
    case wire::FrameType::kMetricsQuery: break;  // header-only
    case wire::FrameType::kMetricsReport: wire::decode_metrics_report(frame); break;
    default:
      throw wire::WireError("wire decode: unknown frame type");
  }
}

}  // namespace bonsai::fuzz
