#include "domain/channel.hpp"

#include <algorithm>

#include "domain/transport.hpp"
#include "util/check.hpp"
#include "util/trace.hpp"

namespace bonsai::domain {

LetExchange::LetExchange(Transport& transport, const std::vector<std::uint8_t>& active,
                         LetChannelState*)
    : transport_(transport) {
  const std::size_t nranks = active.size();
  const auto num_active = static_cast<std::size_t>(
      std::count_if(active.begin(), active.end(), [](std::uint8_t a) { return a != 0; }));
  remaining_.reserve(nranks);
  for (std::size_t r = 0; r < nranks; ++r)
    remaining_.push_back(active[r] && num_active > 0 ? num_active - 1 : 0);
}

std::size_t LetExchange::remaining(int dst) const {
  return remaining_[static_cast<std::size_t>(dst)];
}

std::size_t LetExchange::post(int src, int dst, const LetTree& let, double) {
  BNS_CHECK(src != dst);
  std::vector<std::uint8_t> frame;
  {
    trace::ScopedSpan span("wire.encode.let", src, src);
    span.set_peer(dst);
    frame = wire::encode_let(src, let);
    span.set_bytes(static_cast<std::int64_t>(frame.size()));
  }
  const std::size_t bytes = frame.size();
  transport_.post(src, dst, std::move(frame));
  return bytes;
}

std::optional<wire::LetMessage> LetExchange::recv(int dst) {
  std::size_t& remaining = remaining_[static_cast<std::size_t>(dst)];
  if (remaining == 0) return std::nullopt;
  std::optional<std::vector<std::uint8_t>> frame;
  {
    trace::ScopedSpan wait("let.recv.wait", dst, dst);
    frame = transport_.recv(dst);
  }
  BNS_CHECK(frame.has_value(), "LET endpoint closed before all expected arrivals");
  trace::ScopedSpan span("wire.decode.let", dst, dst);
  span.set_bytes(static_cast<std::int64_t>(frame->size()));
  wire::LetMessage msg = wire::decode_let(*frame);
  span.set_peer(msg.src);
  --remaining;
  return msg;
}

void LetExchange::close(int dst) { transport_.close(dst); }

MigrationExchange::MigrationExchange(Transport& transport, int nranks)
    : transport_(transport) {
  BNS_CHECK(nranks >= 1);
  remaining_.assign(static_cast<std::size_t>(nranks),
                    static_cast<std::size_t>(nranks - 1));
}

std::size_t MigrationExchange::remaining(int dst) const {
  return remaining_[static_cast<std::size_t>(dst)];
}

std::size_t MigrationExchange::post(int src, int dst, const ParticleSet& parts, int step) {
  BNS_CHECK(src != dst);
  std::vector<std::uint8_t> frame;
  {
    trace::ScopedSpan span("wire.encode.migration", src, src, step);
    span.set_peer(dst);
    frame = wire::encode_migration(src, step, parts);
    span.set_bytes(static_cast<std::int64_t>(frame.size()));
  }
  const std::size_t bytes = frame.size();
  transport_.post(src, dst, std::move(frame));
  return bytes;
}

std::optional<wire::MigrationMsg> MigrationExchange::recv(int dst, int step) {
  std::size_t& remaining = remaining_[static_cast<std::size_t>(dst)];
  if (remaining == 0) return std::nullopt;
  std::optional<std::vector<std::uint8_t>> frame;
  {
    trace::ScopedSpan wait("migration.recv.wait", dst, dst, step);
    frame = transport_.recv(dst);
  }
  BNS_CHECK(frame.has_value(),
                   "migration endpoint closed before all expected batches");
  wire::MigrationMsg msg;
  {
    trace::ScopedSpan span("wire.decode.migration", dst, dst, step);
    span.set_bytes(static_cast<std::int64_t>(frame->size()));
    msg = wire::decode_migration(*frame);
    span.set_peer(msg.src);
  }
  BNS_CHECK(msg.step == step, "migration batch from a different step");
  --remaining;
  return msg;
}

}  // namespace bonsai::domain
