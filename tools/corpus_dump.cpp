// Writes (or verifies) the checked-in fuzz seed corpus: one minimized,
// deterministic encoded frame per FrameType under corpora/wire/. Run after
// any wire format change and commit the result:
//
//   corpus_dump <repo>/tests/fuzz/corpora            # regenerate
//   corpus_dump --verify <repo>/tests/fuzz/corpora   # ctest: corpus fresh?
//
// --verify re-derives every frame in memory and byte-compares against the
// files on disk, so a wire change that forgets to refresh the corpus fails
// fast instead of letting the fuzzers start from stale (auto-rejected)
// inputs.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "../tests/fuzz/wire_corpus.hpp"

namespace fs = std::filesystem;

namespace {

struct CorpusFile {
  fs::path rel;
  std::vector<std::uint8_t> bytes;
};

std::vector<CorpusFile> derive_corpus() {
  std::vector<CorpusFile> files;
  for (auto& seed : bonsai::fuzz::seed_frames())
    files.push_back({fs::path("wire") / (seed.name + ".bin"), std::move(seed.frame)});
  return files;
}

std::vector<std::uint8_t> read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

}  // namespace

int main(int argc, char** argv) {
  bool verify = false;
  const char* dir = nullptr;
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--verify") == 0) {
      verify = true;
    } else {
      dir = argv[a];
    }
  }
  if (dir == nullptr) {
    std::fprintf(stderr, "usage: corpus_dump [--verify] <corpora-dir>\n");
    return 2;
  }

  const fs::path root(dir);
  int stale = 0;
  for (const CorpusFile& file : derive_corpus()) {
    const fs::path path = root / file.rel;
    if (verify) {
      if (!fs::exists(path) || read_file(path) != file.bytes) {
        std::fprintf(stderr, "stale or missing corpus input: %s\n", path.c_str());
        ++stale;
      }
      continue;
    }
    fs::create_directories(path.parent_path());
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(file.bytes.data()),
              static_cast<std::streamsize>(file.bytes.size()));
    std::printf("wrote %s (%zu bytes)\n", path.c_str(), file.bytes.size());
  }
  if (verify && stale > 0) {
    std::fprintf(stderr, "corpus out of date: regenerate with corpus_dump %s\n", dir);
    return 1;
  }
  if (verify) std::printf("corpus up to date\n");
  return 0;
}
