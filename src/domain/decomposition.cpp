#include "domain/decomposition.hpp"

#include <algorithm>

#include "domain/channel.hpp"
#include "domain/transport.hpp"
#include "util/check.hpp"

namespace bonsai::domain {

Decomposition Decomposition::uniform(int nranks) {
  BNS_CHECK(nranks >= 1);
  std::vector<sfc::Key> bounds;
  bounds.reserve(static_cast<std::size_t>(nranks) + 1);
  const sfc::Key span = sfc::kKeyEnd / static_cast<sfc::Key>(nranks);
  for (int r = 0; r < nranks; ++r) bounds.push_back(span * static_cast<sfc::Key>(r));
  bounds.push_back(sfc::kKeyEnd);
  return from_boundaries(std::move(bounds));
}

Decomposition Decomposition::from_boundaries(std::vector<sfc::Key> bounds) {
  BNS_CHECK(bounds.size() >= 2);
  BNS_CHECK(bounds.front() == 0 && bounds.back() == sfc::kKeyEnd);
  BNS_CHECK(std::is_sorted(bounds.begin(), bounds.end()),
                   "domain boundaries must be monotone");
  Decomposition d;
  d.bounds_ = std::move(bounds);
  return d;
}

Decomposition Decomposition::from_samples(std::vector<sfc::Key> samples, int nranks,
                                          int snap_level) {
  BNS_CHECK(nranks >= 1);
  BNS_CHECK(snap_level >= 0 && snap_level <= sfc::kMaxLevel);
  if (samples.empty() || nranks == 1) return uniform(nranks);

  std::sort(samples.begin(), samples.end());
  std::vector<sfc::Key> bounds;
  bounds.reserve(static_cast<std::size_t>(nranks) + 1);
  bounds.push_back(0);
  for (int r = 1; r < nranks; ++r) {
    const std::size_t idx = (static_cast<std::size_t>(r) * samples.size()) /
                            static_cast<std::size_t>(nranks);
    sfc::Key b = samples[idx];
    if (snap_level > 0) b = sfc::cell_first_key(b, snap_level);
    // Duplicate samples (or aggressive snapping) may produce non-monotone
    // cuts; clamping keeps the partition valid at the cost of empty ranks.
    b = std::max(b, bounds.back());
    bounds.push_back(b);
  }
  bounds.push_back(sfc::kKeyEnd);
  return from_boundaries(std::move(bounds));
}

Decomposition Decomposition::from_weighted_samples(std::vector<WeightedKey> samples,
                                                   int nranks, int snap_level) {
  BNS_CHECK(nranks >= 1);
  BNS_CHECK(snap_level >= 0 && snap_level <= sfc::kMaxLevel);
  double total = 0.0;
  for (const WeightedKey& s : samples) total += std::max(s.weight, 0.0);
  if (samples.empty() || nranks == 1 || !(total > 0.0)) {
    std::vector<sfc::Key> keys;
    keys.reserve(samples.size());
    for (const WeightedKey& s : samples) keys.push_back(s.key);
    return from_samples(std::move(keys), nranks, snap_level);
  }

  std::sort(samples.begin(), samples.end(),
            [](const WeightedKey& a, const WeightedKey& b) { return a.key < b.key; });
  std::vector<sfc::Key> bounds;
  bounds.reserve(static_cast<std::size_t>(nranks) + 1);
  bounds.push_back(0);
  double cum = 0.0;
  std::size_t i = 0;
  for (int r = 1; r < nranks; ++r) {
    // First sample whose cumulative weight reaches the r-th weight quantile
    // becomes the cut (the equal-count cut is the weight==1 special case).
    const double cut = total * static_cast<double>(r) / static_cast<double>(nranks);
    while (i + 1 < samples.size() && cum + std::max(samples[i].weight, 0.0) < cut)
      cum += std::max(samples[i++].weight, 0.0);
    sfc::Key b = samples[i].key;
    if (snap_level > 0) b = sfc::cell_first_key(b, snap_level);
    b = std::max(b, bounds.back());
    bounds.push_back(b);
  }
  bounds.push_back(sfc::kKeyEnd);
  return from_boundaries(std::move(bounds));
}

void Decomposition::check_invariants(int expected_ranks) const {
  BNS_CHECK(bounds_.size() >= 2);
  BNS_CHECK(expected_ranks < 0 || num_ranks() == expected_ranks,
            "partition has ", num_ranks(), " ranks, expected ", expected_ranks);
  BNS_CHECK(bounds_.front() == 0 && bounds_.back() == sfc::kKeyEnd,
            "partition must cover the whole key space");
  BNS_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()),
            "domain boundaries must be monotone");
}

int Decomposition::rank_of(sfc::Key key) const {
  BNS_DCHECK(key < sfc::kKeyEnd);
  // Count interior boundaries <= key; bounds_ = {0, b_1, ..., b_{n-1}, end}.
  const auto first = bounds_.begin() + 1;
  const auto last = bounds_.end() - 1;
  return static_cast<int>(std::upper_bound(first, last, key) - first);
}

std::vector<sfc::Key> sample_keys(const ParticleSet& parts, const sfc::KeySpace& space,
                                  std::size_t stride) {
  BNS_CHECK(stride >= 1);
  std::vector<sfc::Key> samples;
  const std::size_t n = parts.size();
  if (n == 0) return samples;
  samples.reserve((n + stride - 1) / stride);
  for (std::size_t i = 0; i < n; i += stride) samples.push_back(space.key(parts.pos(i)));
  return samples;
}

std::size_t sample_stride(std::size_t total, int nranks, std::size_t samples_per_rank) {
  const std::size_t target = samples_per_rank * static_cast<std::size_t>(nranks);
  return std::max<std::size_t>(1, total / std::max<std::size_t>(1, target));
}

void apply_cost_floor(std::span<double> weights) {
  double max_w = 0.0;
  for (const double w : weights) max_w = std::max(max_w, w);
  for (double& w : weights) w = std::max(w, 1e-3 * max_w);
}

DomainUpdate update_domain(std::span<const ParticleSet* const> rank_parts, int nranks,
                           sfc::CurveType curve, std::size_t samples_per_rank,
                           int snap_level, std::span<const double> weights) {
  BNS_CHECK(static_cast<int>(rank_parts.size()) == nranks);
  BNS_CHECK(weights.empty() || weights.size() == rank_parts.size());

  DomainUpdate out;
  std::size_t total = 0;
  for (const ParticleSet* parts : rank_parts) {
    if (!parts->empty()) out.bounds.expand(parts->bounds());
    total += parts->size();
  }
  out.bounds = domain_bounds_or_default(out.bounds);
  out.space = sfc::KeySpace(out.bounds, curve);

  // One global stride for every rank: pooled samples stay uniformly weighted
  // per particle, so quantile cuts keep tracking the population even when
  // rank sizes have drifted apart.
  const std::size_t stride = sample_stride(total, nranks, samples_per_rank);

  std::vector<Decomposition::WeightedKey> samples;
  for (std::size_t r = 0; r < rank_parts.size(); ++r) {
    const auto s = sample_keys(*rank_parts[r], out.space, stride);
    const double w = weights.empty() ? 1.0 : weights[r];
    for (const sfc::Key k : s) samples.push_back({k, w});
  }
  out.decomp = Decomposition::from_weighted_samples(std::move(samples), nranks, snap_level);
  if constexpr (kDcheckEnabled) out.decomp.check_invariants(nranks);
  return out;
}

ExchangeStats exchange(std::vector<ParticleSet>& rank_parts, const sfc::KeySpace& space,
                       const Decomposition& decomp, Transport& transport,
                       wire::WireStats* wire_stats) {
  BNS_CHECK(static_cast<int>(rank_parts.size()) == decomp.num_ranks());
  const auto nranks = static_cast<std::size_t>(decomp.num_ranks());
  wire::WireStats ws;

  // Counting pre-pass (the alltoallv handshake): compute each particle's key
  // and owner once, so destinations can reserve before any copy happens.
  ExchangeStats stats;
  std::vector<std::vector<int>> dest(nranks);
  std::vector<std::size_t> counts(nranks, 0);
  for (std::size_t r = 0; r < nranks; ++r) {
    ParticleSet& parts = rank_parts[r];
    dest[r].resize(parts.size());
    for (std::size_t i = 0; i < parts.size(); ++i) {
      parts.key[i] = space.key(parts.pos(i));
      const int d = decomp.rank_of(parts.key[i]);
      dest[r][i] = d;
      ++counts[static_cast<std::size_t>(d)];
      if (d != static_cast<int>(r)) ++stats.migrated;
    }
  }

  // Send side: every source posts one encoded emigrant batch per remote rank
  // (possibly empty — destinations count on exactly nranks-1 arrivals).
  // Stayers never touch the wire.
  for (std::size_t r = 0; r < nranks; ++r) {
    const ParticleSet& parts = rank_parts[r];
    std::vector<ParticleSet> batches(nranks);
    for (std::size_t i = 0; i < parts.size(); ++i) {
      const auto d = static_cast<std::size_t>(dest[r][i]);
      if (d == r) continue;
      batches[d].add(parts.get(i));
      batches[d].key.back() = parts.key[i];
    }
    for (std::size_t d = 0; d < nranks; ++d) {
      if (d == r) continue;
      std::vector<std::uint8_t> frame =
          wire::encode_particles(static_cast<int>(r), batches[d], /*with_forces=*/false);
      ws.frames += 1;
      ws.bytes += frame.size();
      transport.post(static_cast<int>(r), static_cast<int>(d), std::move(frame));
    }
  }

  // Receive side: decode the nranks-1 expected batches (any arrival order —
  // they are spliced by source rank afterwards) and interleave them with the
  // destination's own stayers, reproducing the historical (source rank,
  // source index) ordering exactly.
  std::vector<ParticleSet> incoming(nranks);
  for (std::size_t d = 0; d < nranks; ++d) {
    std::vector<ParticleSet> arrived(nranks);
    for (std::size_t k = 0; k + 1 < nranks; ++k) {
      std::optional<std::vector<std::uint8_t>> frame = transport.recv(static_cast<int>(d));
      BNS_CHECK(frame.has_value(),
                       "particle endpoint closed before all expected batches");
      wire::ParticleBatch batch = wire::decode_particles(*frame);
      BNS_CHECK(batch.src >= 0 && batch.src < static_cast<int>(nranks) &&
                           batch.src != static_cast<int>(d),
                       "particle batch from an impossible source rank");
      BNS_CHECK(!batch.with_forces, "migration batches must travel force-free");
      arrived[static_cast<std::size_t>(batch.src)] = std::move(batch.parts);
    }
    incoming[d].reserve(counts[d]);
    for (std::size_t src = 0; src < nranks; ++src) {
      if (src == d) {
        const ParticleSet& own = rank_parts[d];
        for (std::size_t i = 0; i < own.size(); ++i) {
          if (static_cast<std::size_t>(dest[d][i]) != d) continue;
          incoming[d].add(own.get(i));
          incoming[d].key.back() = own.key[i];
        }
      } else {
        incoming[d].append(arrived[src]);
      }
    }
  }
  for (const ParticleSet& in : incoming) stats.total += in.size();
  rank_parts.swap(incoming);
  if (wire_stats) *wire_stats += ws;
  return stats;
}

ExchangeStats exchange_resident(ParticleSet& mine, int self, const Decomposition& decomp,
                                MigrationExchange& mex, int step) {
  const auto nranks = static_cast<std::size_t>(decomp.num_ranks());
  const auto r = static_cast<std::size_t>(self);
  BNS_CHECK(r < nranks);

  // Local rows per owner rank, in local order, read off the step's keys.
  std::vector<std::vector<std::uint32_t>> rows(nranks);
  for (std::size_t i = 0; i < mine.size(); ++i)
    rows[static_cast<std::size_t>(decomp.rank_of(mine.key[i]))].push_back(
        static_cast<std::uint32_t>(i));
  ExchangeStats stats;
  stats.migrated = mine.size() - rows[r].size();

  // Send side: one emigrant batch per peer, empty batches included (peers
  // count on exactly nranks-1 arrivals).
  for (std::size_t d = 0; d < nranks; ++d) {
    if (d == r) continue;
    ParticleSet batch;
    batch.append(mine, rows[d]);
    mex.post(self, static_cast<int>(d), batch, step);
  }

  // Receive side: collect the nranks-1 inbound batches (any arrival order),
  // then splice them around the local stayers in source-rank order — the
  // ordering exchange() produces for this rank. When nothing left and
  // nothing arrived, the set is already that order.
  std::vector<ParticleSet> arrived(nranks);
  std::vector<std::uint8_t> seen(nranks, 0);
  std::size_t arrivals = 0;
  while (std::optional<wire::MigrationMsg> msg = mex.recv(self, step)) {
    BNS_CHECK(msg->src >= 0 && msg->src < static_cast<int>(nranks) &&
                         msg->src != self && !seen[static_cast<std::size_t>(msg->src)],
                     "migration batch from an impossible or duplicate source rank");
    seen[static_cast<std::size_t>(msg->src)] = 1;
    arrivals += msg->parts.size();
    arrived[static_cast<std::size_t>(msg->src)] = std::move(msg->parts);
  }
  if (stats.migrated > 0 || arrivals > 0) {
    ParticleSet out;
    out.reserve(rows[r].size() + arrivals);
    for (std::size_t src = 0; src < nranks; ++src) {
      if (src == r)
        out.append(mine, rows[r]);
      else
        out.append(arrived[src]);
    }
    mine = std::move(out);
  }
  stats.total = mine.size();
  return stats;
}

}  // namespace bonsai::domain
