#include "serve/snapshot.hpp"

#include <fstream>
#include <stdexcept>
#include <vector>

namespace bonsai::serve {

void write_snapshot_file(const std::string& path, const domain::wire::SnapshotMsg& snap) {
  const std::vector<std::uint8_t> frame = domain::wire::encode_snapshot(snap);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("snapshot: cannot open for writing: " + path);
  out.write(reinterpret_cast<const char*>(frame.data()),
            static_cast<std::streamsize>(frame.size()));
  out.flush();
  if (!out) throw std::runtime_error("snapshot: write failed: " + path);
}

domain::wire::SnapshotMsg read_snapshot_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw std::runtime_error("snapshot: cannot open for reading: " + path);
  const std::streamsize size = in.tellg();
  in.seekg(0);
  std::vector<std::uint8_t> frame(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(frame.data()), size);
  if (!in) throw std::runtime_error("snapshot: read failed: " + path);
  return domain::wire::decode_snapshot(frame);
}

ParticleSet flatten_snapshot(const domain::wire::SnapshotMsg& snap) {
  ParticleSet out;
  std::size_t total = 0;
  for (const ParticleSet& s : snap.sets) total += s.size();
  out.reserve(total);
  for (const ParticleSet& s : snap.sets) out.append(s);
  return out;
}

}  // namespace bonsai::serve
