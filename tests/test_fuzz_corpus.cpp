// Deterministic fuzz sweeps over the seed corpus: every FrameType gets the
// truncation and byte-flip treatment through the same decode_any() dispatch
// the libFuzzer harnesses use. This closes the gap the hand-rolled per-frame
// loops left (Particles/Hello/Config/StepBegin/StepResult had round-trips
// but no adversarial coverage) and is the "fuzz loop" site tools/wire_lint.py
// requires for each enum value.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "fuzz/wire_corpus.hpp"

namespace bonsai {
namespace {

namespace wire = domain::wire;

const std::vector<fuzz::SeedFrame>& seeds() {
  static const std::vector<fuzz::SeedFrame> frames = fuzz::seed_frames();
  return frames;
}

TEST(FuzzCorpus, SeedFramesCoverEveryFrameType) {
  std::set<std::uint16_t> seen;
  for (const fuzz::SeedFrame& seed : seeds()) {
    EXPECT_TRUE(seen.insert(static_cast<std::uint16_t>(seed.type)).second)
        << "duplicate seed for type " << wire::frame_type_name(seed.type);
    EXPECT_EQ(wire::frame_type(seed.frame), seed.type);
  }
  // Type 13, the retired Trace frame, stays unused.
  constexpr std::uint16_t kRetiredTrace = 13;
  EXPECT_FALSE(seen.count(kRetiredTrace));
  for (std::uint16_t t = 1; t <= static_cast<std::uint16_t>(wire::FrameType::kMetricsReport);
       ++t)
    if (t != kRetiredTrace) {
      EXPECT_TRUE(seen.count(t)) << "no seed frame for FrameType value " << t;
    }
}

TEST(FuzzCorpus, EverySeedFrameDecodes) {
  for (const fuzz::SeedFrame& seed : seeds()) {
    EXPECT_NO_THROW(fuzz::decode_any(seed.frame))
        << wire::frame_type_name(seed.type);
  }
}

TEST(FuzzCorpus, EveryTruncationIsRejected) {
  for (const fuzz::SeedFrame& seed : seeds()) {
    for (std::size_t len = 0; len < seed.frame.size(); ++len) {
      const std::span<const std::uint8_t> cut(seed.frame.data(), len);
      EXPECT_THROW(fuzz::decode_any(cut), wire::WireError)
          << wire::frame_type_name(seed.type) << " accepted a frame cut to " << len
          << " bytes";
    }
  }
}

TEST(FuzzCorpus, ByteFlipsNeverEscapeAsAnythingButWireError) {
  for (const fuzz::SeedFrame& seed : seeds()) {
    std::vector<std::uint8_t> bad = seed.frame;
    for (std::size_t i = 0; i < bad.size(); ++i) {
      bad[i] ^= 0xA5;
      try {
        fuzz::decode_any(bad);  // a still-valid mutant is fine
      } catch (const wire::WireError&) {
        // the expected rejection
      }
      // Anything else thrown propagates and fails the test.
      bad[i] ^= 0xA5;
    }
  }
}

}  // namespace
}  // namespace bonsai
