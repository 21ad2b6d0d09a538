#pragma once
// Block-generating RNG subsystem: a repo-owned MT19937-64 whose output is
// bit-identical to std::mt19937_64 — same seeding (both the single-value
// recurrence and std::seed_seq construction), same twist, same tempering,
// same draw order — so swapping it into every draw site changes no counter
// anywhere (tests/arith/rng_test.cpp pins the first 10^6 draws per seed).
//
// What the std engine cannot do, and this one exists for: the 312-word state
// is regenerated as one *block* (planeops::mt_regenerate / mt_twist, so the
// planeops backend dispatch — VLCSA_FORCE_BACKEND, planeops::set_backend —
// picks their bodies), and consumers can pull whole blocks with
// generate_block() instead of one word per call.
//
// Contracts:
//  * operator() is sequence-identical to std::mt19937_64 under the same
//    construction.  generate_block(dst, n) writes exactly the next n
//    operator() values (and consumes the stream identically), so bulk and
//    per-call consumption interleave freely.
//  * Every planeops backend produces the identical stream (the scalar twist
//    is the oracle; rng_test pins the others to it).
//  * The engine's reproducibility contract: make_stream_rng (and
//    harness::make_shard_rng on top of it) feed all 128 bits of
//    (seed, stream) through std::seed_seq.

#include <cstddef>
#include <cstdint>
#include <random>
#include <type_traits>

#include "arith/planeops.hpp"

namespace vlcsa::arith {

/// Drop-in MT19937-64 with block regeneration.  Satisfies
/// uniform_random_bit_generator, so std::normal_distribution and friends
/// consume it exactly like the std engine.
class BlockRng {
 public:
  using result_type = std::uint64_t;

  /// MT19937-64 state size (the block granularity of regeneration).
  static constexpr std::size_t kStateWords = planeops::kMtStateWords;

  /// Same default seed as std::mt19937_64.
  static constexpr result_type default_seed = 5489u;

  BlockRng() { seed(default_seed); }
  explicit BlockRng(result_type value) { seed(value); }

  /// std::seed_seq (or any seed-sequence) construction, bit-identical to
  /// std::mt19937_64's — this is what make_stream_rng / make_shard_rng use.
  /// (BlockRng itself is excluded so copy construction from a non-const
  /// generator resolves to the copy constructor, as it does for the std
  /// engine, instead of instantiating seed<BlockRng>.)
  template <typename SeedSeq,
            typename = std::enable_if_t<
                !std::is_convertible_v<SeedSeq, result_type> &&
                !std::is_same_v<std::remove_cvref_t<SeedSeq>, BlockRng>>>
  explicit BlockRng(SeedSeq& seq) {
    seed(seq);
  }

  /// The std single-value seeding recurrence (mt[i] from mt[i-1]).
  void seed(result_type value);

  /// The std seed-sequence seeding: 624 32-bit words -> 312 state words,
  /// with the all-zero fixup ([rand.eng.mers]).
  template <typename SeedSeq>
  void seed(SeedSeq& seq) {
    std::uint32_t words[2 * kStateWords];
    seq.generate(words, words + 2 * kStateWords);
    bool zero = true;
    for (std::size_t i = 0; i < kStateWords; ++i) {
      state_[i] = static_cast<std::uint64_t>(words[2 * i]) |
                  (static_cast<std::uint64_t>(words[2 * i + 1]) << 32);
      if (i == 0 ? (state_[0] & kUpperMask) != 0 : state_[i] != 0) zero = false;
    }
    // Degenerate all-zero state (undetectable by the low r bits of word 0)
    // would make the twist a fixed point; the standard pins it to 2^63.
    if (zero) state_[0] = std::uint64_t{1} << 63;
    index_ = kStateWords;
    twists_ = 0;
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  /// The next draw — value-identical to std::mt19937_64::operator().
  result_type operator()() {
    if (index_ == kStateWords) refill();
    return out_[index_++];
  }

  /// Writes the next `n` draws to `dst` — exactly the values (and stream
  /// consumption) of n operator() calls, but full 312-word blocks are
  /// twisted and tempered straight into `dst`, skipping the per-call path.
  /// This is the API the bulk operand-fill paths are built on.
  void generate_block(std::uint64_t* dst, std::size_t n);

  /// Skips `z` draws (std::mt19937_64::discard equivalent) without
  /// tempering the skipped blocks.
  void discard(unsigned long long z);

  /// Total stream words consumed since seeding — operator(), generate_block
  /// and discard all count.  Maintained with one increment per 312-word
  /// block regeneration (every consumed word belongs to exactly one twisted
  /// block, minus the unread tail of the current one), so the per-draw hot
  /// path is untouched; the engine's RunProfile reads this per shard.
  [[nodiscard]] std::uint64_t words_drawn() const {
    return twists_ * kStateWords - (kStateWords - index_);
  }

 private:
  static constexpr std::uint64_t kUpperMask = ~std::uint64_t{0} << 31;  // high w-r bits

  void refill();  // twist state_, temper into out_, reset index_

  // Cache-line aligned: the twist/temper kernels stream these arrays with
  // full-width vector loads and stores, and a BlockRng usually lives on the
  // stack, whose offset modulo 64 changes from run to run.  Unaligned, the
  // fill's speed would follow that offset (up to ~10% on the uniform
  // stream).  state_ is the untempered MT state, out_ the tempered draws of
  // the current block.
  alignas(planeops::kPlaneAlignment) std::uint64_t state_[kStateWords];
  alignas(planeops::kPlaneAlignment) std::uint64_t out_[kStateWords];
  std::size_t index_ = kStateWords;   // next unread slot in out_
  std::uint64_t twists_ = 0;          // blocks twisted since seeding
};

/// Block-batched standard-normal sampler: a 256-layer ziggurat whose raw
/// uniform words come from BlockRng::generate_block in whole-block refills,
/// replacing the per-call std::normal_distribution draws that dominated the
/// Gaussian operand paths.  One word usually yields one variate (the classic
/// ~1.3% of draws fall through to the wedge/tail slow path), and the word
/// supplies a 55-bit signed mantissa so the variate granularity stays far
/// below one integer unit even at the paper's sigma = 2^32 — a 32-bit
/// ziggurat would quantize samples in steps of ~2^8 there and corrupt
/// low-bit carry statistics.
///
/// fill() walks the word buffer in bulk: the fast-path layer test runs as
/// planeops::zig_accept up to the first rejected word, which goes through
/// operator()'s wedge/tail slow path before the walk resumes.
///
/// Contracts:
///  * operator() and fill() consume the underlying BlockRng from one shared
///    internal word buffer, so per-variate and bulk consumption interleave
///    freely and produce the same variate stream — this is what keeps the
///    scalar and batched Gaussian Monte Carlo paths bit-identical.
///  * The variate stream is a pure function of the BlockRng stream (and
///    therefore backend-invariant; tests/arith/rng_test.cpp pins fill()
///    against operator() per backend).  It is NOT the std::normal_distribution
///    stream: swapping this sampler in was the gauss-rng-v2 golden-counter
///    migration (see tests/harness/registry_pin_test.cpp and
///    docs/OPERATIONS.md).
///  * A default-constructed sampler is pristine (no buffered words); operand
///    sources clone() with a fresh sampler per shard.
class GaussianBlockSampler {
 public:
  GaussianBlockSampler() = default;

  /// The next standard-normal variate.
  [[nodiscard]] double operator()(BlockRng& rng);

  /// Writes the next `n` variates — exactly the values (and BlockRng
  /// consumption) of n operator() calls.
  void fill(BlockRng& rng, double* dst, std::size_t n);

 private:
  [[nodiscard]] std::uint64_t next_word(BlockRng& rng) {
    if (pos_ == kBufferWords) refill(rng);
    return buffer_[pos_++];
  }

  void refill(BlockRng& rng);  // the next kBufferWords draws into buffer_

  /// Raw-draw buffer size: two full BlockRng blocks per refill.
  static constexpr std::size_t kBufferWords = 2 * BlockRng::kStateWords;

  alignas(planeops::kPlaneAlignment) std::uint64_t buffer_[kBufferWords];  // as BlockRng::state_
  std::size_t pos_ = kBufferWords;  // next unread slot; kBufferWords = empty
};

/// The one shared seeding discipline for standalone (non-sharded) runs:
/// all 128 bits of (seed, stream) through std::seed_seq — the same
/// construction as the engine's per-shard streams, so ad-hoc `rng(seed)`
/// call sites stop bypassing it.  harness::make_shard_rng delegates here
/// with stream = shard index.
[[nodiscard]] BlockRng make_stream_rng(std::uint64_t seed, std::uint64_t stream = 0);

}  // namespace vlcsa::arith
