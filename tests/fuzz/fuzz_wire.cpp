// libFuzzer harness over every wire frame decoder, dispatched on the frame
// header. Seeded from tests/fuzz/corpora/wire (one minimized real frame per
// FrameType, see tools/corpus_dump.cpp). The contract under test: a decoder
// either returns a fully validated value or throws WireError — any other
// escape (crash, sanitizer report, std::bad_alloc from an unchecked count,
// out-of-bounds read) is a finding.
#include <cstdint>
#include <cstring>
#include <span>

#include "wire_corpus.hpp"

namespace {

namespace wire = bonsai::domain::wire;

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  try {
    bonsai::fuzz::decode_any({data, size});
  } catch (const wire::WireError&) {
    // Rejected malformed input: the expected outcome.
  }
  return 0;
}

#ifndef BONSAI_FUZZ_STANDALONE

extern "C" std::size_t LLVMFuzzerMutate(std::uint8_t* data, std::size_t size,
                                        std::size_t max_size);

// Structure-aware mutation: keep the magic and version intact (otherwise
// every mutant dies in frame_type() and the payload decoders never run),
// mutate the type and payload freely, and re-patch the length field so the
// header stays consistent with the buffer.
extern "C" std::size_t LLVMFuzzerCustomMutator(std::uint8_t* data, std::size_t size,
                                               std::size_t max_size, unsigned seed) {
  constexpr std::size_t kHeader = wire::kHeaderBytes;
  if (size < kHeader || max_size < kHeader) return LLVMFuzzerMutate(data, size, max_size);

  const std::size_t payload =
      LLVMFuzzerMutate(data + kHeader, size - kHeader, max_size - kHeader);
  const std::uint32_t magic = wire::kMagic;
  const std::uint16_t version = wire::kVersion;
  std::memcpy(data, &magic, 4);
  std::memcpy(data + 4, &version, 2);
  if (seed % 8 == 0) {  // occasionally retarget another decoder
    const std::uint16_t type = static_cast<std::uint16_t>(seed / 8 % 24);
    std::memcpy(data + 6, &type, 2);
  }
  const std::uint64_t len = payload;
  std::memcpy(data + 8, &len, 8);
  return kHeader + payload;
}

#else
#include "fuzz_main.hpp"
#endif
