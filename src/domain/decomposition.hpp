// Hilbert-key domain decomposition (§III-B1 of the paper).
//
// The global SFC key range [0, kKeyEnd) is cut into one contiguous interval
// per rank. Because keys order particles along the Peano-Hilbert curve, each
// interval is a geometrically compact region, and — when boundaries are
// snapped to octree-cell key boundaries — a union of branches of the global
// octree. Boundaries are chosen from *sampled* particle keys, the paper's
// low-cost alternative to a full parallel sort of all keys: every rank
// contributes a stride-sample of its keys, the samples are sorted, and the
// N-quantiles become the new boundaries.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "domain/wire.hpp"
#include "sfc/keys.hpp"
#include "tree/particle.hpp"

namespace bonsai::domain {

class Transport;
class MigrationExchange;

// A partition of the SFC key space into contiguous per-rank intervals.
// Rank r owns keys in [boundaries()[r], boundaries()[r+1]).
class Decomposition {
 public:
  // Snapping boundaries to level-8 cells keeps domains unions of octree
  // branches without visibly perturbing the sampled balance (2^24 cells).
  static constexpr int kDefaultSnapLevel = 8;

  // Single rank owning the whole key space.
  Decomposition() = default;

  // Equal key intervals (the load-oblivious baseline; poor balance for
  // clustered distributions, useful for bootstrapping and tests).
  static Decomposition uniform(int nranks);

  // Explicit interior boundaries; `bounds` must be the full monotone vector
  // {0, b_1, ..., b_{n-1}, kKeyEnd}.
  static Decomposition from_boundaries(std::vector<sfc::Key> bounds);

  // Equalized-count boundaries from sampled keys: sort the samples and cut at
  // the rank quantiles, optionally snapping each boundary down to the first
  // key of its level-`snap_level` cell. Falls back to uniform() when no
  // samples are available.
  static Decomposition from_samples(std::vector<sfc::Key> samples, int nranks,
                                    int snap_level = kDefaultSnapLevel);

  // A sampled key together with the relative cost it represents (the
  // owner rank's counted walk flops per particle).
  struct WeightedKey {
    sfc::Key key;
    double weight;
  };

  // Cost-weighted boundaries (the paper balances domains on tree-walk cost,
  // §III-B1): cut the sorted samples at equal cumulative *weight* rather
  // than equal count, so regions that were expensive last step shrink.
  // Non-positive weights count as zero; if no weight survives, falls back to
  // the equal-count cut over the same keys.
  static Decomposition from_weighted_samples(std::vector<WeightedKey> samples, int nranks,
                                             int snap_level = kDefaultSnapLevel);

  int num_ranks() const { return static_cast<int>(bounds_.size()) - 1; }

  // Owner rank of a key (keys are always < kKeyEnd).
  int rank_of(sfc::Key key) const;

  sfc::Key begin_key(int rank) const { return bounds_[static_cast<std::size_t>(rank)]; }
  sfc::Key end_key(int rank) const { return bounds_[static_cast<std::size_t>(rank) + 1]; }

  std::span<const sfc::Key> boundaries() const { return bounds_; }

  // Re-verify the partition: a full monotone boundary vector anchored at 0
  // and kKeyEnd, one interval per rank (pass -1 to skip the rank-count
  // check). Throws CheckError on violation; update_domain() runs this in
  // Debug and sanitizer builds.
  void check_invariants(int expected_ranks = -1) const;

 private:
  std::vector<sfc::Key> bounds_{0, sfc::kKeyEnd};
};

// Deterministic sample of every `stride`-th particle key, computed through
// `space` (does not require the set to be sorted or keyed already). The
// stride must be shared by all ranks: pooled samples are then uniformly
// weighted per *particle*, so sample quantiles estimate population quantiles
// even when rank sizes differ.
std::vector<sfc::Key> sample_keys(const ParticleSet& parts, const sfc::KeySpace& space,
                                  std::size_t stride);

// The pieces of the per-step domain update, exposed separately so the rank
// program (run_spmd_step, domain/simulation.hpp) and the centralized
// update_domain() below run the *same arithmetic* on the same inputs and
// therefore derive the identical KeySpace, stride and Decomposition:

// Fallback when no particle exists anywhere (keeps KeySpace constructible).
inline AABB domain_bounds_or_default(AABB bounds) {
  if (!bounds.valid()) bounds = {{0, 0, 0}, {1, 1, 1}};
  return bounds;
}

// The global sample stride for a population of `total` particles.
std::size_t sample_stride(std::size_t total, int nranks, std::size_t samples_per_rank);

// Cost-balancing floor: w = max(w, 1e-3 * max(w)) keeps a rank whose weight
// is (nearly) zero from collapsing its region to nothing.
void apply_cost_floor(std::span<double> weights);

// Result of one centralized "Domain update": the raw global particle bounds,
// the key space built from them, and the new partition.
struct DomainUpdate {
  AABB bounds;
  sfc::KeySpace space;
  Decomposition decomp;
};

// Centralized domain update over every rank's set at once: global bounds ->
// KeySpace, pooled stride-sampling of every rank's keys (one global stride,
// so pooled samples stay uniformly weighted per particle), and a weighted
// quantile cut. `weights` gives each rank's per-sample cost weight (empty =
// uniform). No driver runs it: it and exchange() below are the test oracle
// the rank program's allgathers and exchange_resident() are checked against,
// and the stage-by-stage replay of bench/bonsai_bench.cpp still calls both.
DomainUpdate update_domain(std::span<const ParticleSet* const> rank_parts, int nranks,
                           sfc::CurveType curve, std::size_t samples_per_rank,
                           int snap_level, std::span<const double> weights);

struct ExchangeStats {
  std::uint64_t total = 0;     // particles across all ranks after the exchange
  std::uint64_t migrated = 0;  // particles that changed owner rank
};

// Migrate every particle to its owner rank: the analogue of the MPI
// alltoallv of §III-B1, spoken in wire frames. Every source rank posts one
// encoded particle batch (its emigrants, possibly none) to every other rank
// through `transport`; each destination decodes its expected batches in
// source order and splices them around its own stayers, so the resulting
// populations and orderings are identical to the historical in-memory move.
// Positions, velocities, masses and ids travel bit-for-bit, forces are reset
// (they are recomputed each step), and each particle's `key` field is left
// holding its freshly computed SFC key. Like update_domain(): the test
// oracle and the bench replay's path, not a driver stage.
ExchangeStats exchange(std::vector<ParticleSet>& rank_parts, const sfc::KeySpace& space,
                       const Decomposition& decomp, Transport& transport);

// The decentralized alltoallv cell of one resident rank (the rank program's
// phase 3, in every mode): read each local particle's owner off its `key`
// (the step's key pass filled them; arrivals carry theirs on the wire),
// post one Migration frame per peer through `mex` (possibly empty — peers
// count on exactly nranks-1 arrivals), receive the inbound batches, and
// splice them around the local stayers in source-rank order — reproducing
// bit-for-bit the population, ordering and keys exchange() gives rank
// `self` when run over all ranks at once. When no particle leaves and none
// arrives, `mine` is left untouched. Stayers keep their force and work
// columns (the next force pass zeroes them); arrivals come force-free.
// Returns {total = resident population afterwards, migrated = emigrants
// posted}; summed over all ranks these match the centralized stats.
ExchangeStats exchange_resident(ParticleSet& mine, int self, const Decomposition& decomp,
                                MigrationExchange& mex, int step);

}  // namespace bonsai::domain
