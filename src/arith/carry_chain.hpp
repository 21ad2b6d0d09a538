#pragma once
// Carry-chain statistics used throughout Ch. 3 and Ch. 6 of the paper.
//
// Definition (documented because the literature varies): for one addition
// a + b with no external carry-in, a carry chain starts at every bit
// position i with generate g_i = a_i & b_i = 1.  The chain extends upward
// through the maximal run of propagate bits (p_j = a_j ^ b_j = 1 for
// j = i+1, i+2, ...) and its *length* is 1 + the length of that run — i.e.
// the number of bit positions whose carry value is determined by the
// generate at position i.  A chain of length L reaches L-1 positions above
// its origin before being absorbed.
//
// Two summary metrics are supported:
//  * kAllChains        — histogram over the lengths of *all* chains in all
//                        recorded additions (Figs 6.1–6.5 use this view);
//  * kLongestPerAdd    — histogram over the single longest chain of each
//                        addition (the classic O(log n) average result).

#include <cstdint>
#include <vector>

#include "arith/apint.hpp"
#include "arith/bitslice.hpp"

namespace vlcsa::arith {

enum class ChainMetric {
  kAllChains,
  kLongestPerAdd,
};

/// Extracts the lengths of all carry chains in one addition.
[[nodiscard]] std::vector<int> carry_chain_lengths(const ApInt& a, const ApInt& b);

/// Length of the longest carry chain in one addition (0 when no bit generates).
[[nodiscard]] int longest_carry_chain(const ApInt& a, const ApInt& b);

/// Streaming histogram of carry-chain lengths.
class CarryChainProfiler {
 public:
  explicit CarryChainProfiler(int width, ChainMetric metric = ChainMetric::kAllChains);

  /// Records the chains of one addition (the scalar oracle record_batch is
  /// held to).
  void record(const ApInt& a, const ApInt& b);

  /// Records the first `valid` lanes of a bit-sliced batch, lane by lane as
  /// record() would (planeops::chain_histogram): lanes at or past `valid`
  /// count nothing, so a shard's masked last batch adds only its live
  /// samples.  Throws std::invalid_argument on a width mismatch or `valid`
  /// above batch.lanes().
  void record_batch(const BitSlicedBatch& batch, std::uint64_t valid);

  /// Records a pre-extracted list of chain lengths (used by instrumented
  /// workloads that already walked the operands).
  void record_lengths(const std::vector<int>& lengths);

  /// Merges another profiler's counts (the parallel engine's shard-merge
  /// operation).  Throws std::invalid_argument on width/metric mismatch.
  CarryChainProfiler& operator+=(const CarryChainProfiler& other);

  [[nodiscard]] int width() const { return width_; }
  [[nodiscard]] ChainMetric metric() const { return metric_; }

  /// counts()[L] = number of observed chains of length L (index 0 counts
  /// additions with no chain under kLongestPerAdd and is unused otherwise).
  [[nodiscard]] const std::vector<std::uint64_t>& counts() const { return counts_; }

  /// Total number of recorded chains (kAllChains) or additions (kLongestPerAdd).
  [[nodiscard]] std::uint64_t total() const { return total_; }

  /// Number of recorded additions (record() calls plus record_batch()'s
  /// valid lanes).
  [[nodiscard]] std::uint64_t additions() const { return additions_; }

  /// Fraction of chains with length L (0 when nothing recorded).
  [[nodiscard]] double fraction(int length) const;

  /// Fraction of chains with length >= L.
  [[nodiscard]] double fraction_at_least(int length) const;

  /// Mean chain length under the active metric.
  [[nodiscard]] double mean_length() const;

 private:
  int width_;
  ChainMetric metric_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
  std::uint64_t additions_ = 0;
};

}  // namespace vlcsa::arith
