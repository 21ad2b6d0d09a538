#pragma once
// Operand-pair sources for the four input classes studied in the paper
// (Ch. 3 and Ch. 6): unsigned uniform, two's-complement uniform, unsigned
// Gaussian and two's-complement Gaussian (the practical-input proxy), plus a
// common interface so the Monte Carlo harness can run any of them.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "arith/apint.hpp"
#include "arith/bitslice.hpp"
#include "arith/rng.hpp"

namespace vlcsa::arith {

/// A stream of operand pairs for an n-bit adder.
class OperandSource {
 public:
  explicit OperandSource(int width) : width_(width) {}
  virtual ~OperandSource() = default;

  OperandSource(const OperandSource&) = delete;
  OperandSource& operator=(const OperandSource&) = delete;

  [[nodiscard]] int width() const { return width_; }

  /// Draws the next operand pair.
  virtual std::pair<ApInt, ApInt> next(BlockRng& rng) = 0;

  /// Draws the next out.lanes() (= 64 * lane_words) operand pairs into
  /// bit-planes, lane word w holding the w-th 64-sample group.  CONTRACT:
  /// a source's stream is a sequence of draw units of whole 64-sample groups
  /// (one group by default; the uniform source draws 512-sample
  /// superblocks), and fill_batch consumes the RNG exactly like
  /// out.lanes() successive next() calls started on a group boundary,
  /// producing the same samples (lane j = the j-th pair).  That is what
  /// keeps the batched Monte Carlo path bit-identical to the scalar one at
  /// every lane width and shard size: a shard of `count` samples draws the
  /// units covering ceil(count / 64) groups on either path (for the uniform
  /// source, ceil(count / 512) superblocks).  Sources generate straight
  /// into the planes; next() is the oracle tests hold each fill to.
  virtual void fill_batch(BlockRng& rng, BitSlicedBatch& out) = 0;

  /// Fresh source of the same distribution with pristine stream state (any
  /// cached variates are discarded).  Must be safe to call concurrently from
  /// multiple threads — the parallel engine clones one source per shard.
  [[nodiscard]] virtual std::unique_ptr<OperandSource> clone() const = 0;

 private:
  int width_;
};

/// Uniformly random n-bit patterns ("unsigned random inputs", Ch. 3).
///
/// The stream is plane-major in 512-sample superblocks (stream_version
/// uniform-plane-v2): a superblock is 8 groups of 64 samples drawn as 16n
/// raw generate_block words — a's bit-plane row 0 for groups 0..7, then
/// row 1, ... row n-1, then b's rows the same way — where bit j of row
/// `bit`, group g is sample 64g + j's operand bit `bit`.  Uniform i.i.d.
/// bits are uniform i.i.d. in either orientation, and at 8 lane words that
/// order is exactly BitSlicedBatch's layout, so the batched path generates
/// straight into the planes and only the scalar oracle pays for a
/// transpose.
class UniformUnsignedSource final : public OperandSource {
 public:
  /// 64-sample groups per superblock: one 512-bit vector of lane words.
  static constexpr std::size_t kSuperblockGroups = 8;

  explicit UniformUnsignedSource(int width) : OperandSource(width) {}
  /// Scalar oracle: takes the buffered superblock's next group (drawing a
  /// superblock when none is left), gathers its 2n plane words and
  /// inverse-transposes them (2 * ceil(n / 64) 64x64 blocks) once per 64
  /// samples; each pair is then built from whole limbs.
  std::pair<ApInt, ApInt> next(BlockRng& rng) override;
  /// Fast path: at 8 lane words on a superblock boundary, two
  /// generate_block() calls write the superblock straight into out.a() and
  /// out.b() — no buffer, no copy, no transpose.  Any other width (or a
  /// partly consumed superblock) copies contiguous runs of up to 8 lane
  /// words per plane row out of the buffered superblock.  Starts a fresh
  /// group: a group next() had begun is dropped.
  void fill_batch(BlockRng& rng, BitSlicedBatch& out) override;
  [[nodiscard]] std::unique_ptr<OperandSource> clone() const override {
    return std::make_unique<UniformUnsignedSource>(width());
  }

 private:
  /// Index of the buffered superblock's next unconsumed group, drawing a
  /// fresh superblock first when every group has been consumed.
  std::size_t next_group(BlockRng& rng);

  std::vector<std::uint64_t> superblock_;  // buffered superblock, 16n words in stream order
  std::size_t taken_ = kSuperblockGroups;  // groups of superblock_ already consumed
  std::vector<std::uint64_t> group_;       // next(): the current group, sample-major limbs
  int cursor_ = kBatchLanes;               // next(): samples of group_ already returned
};

/// Two's-complement uniform inputs (Fig 6.3): a uniformly random magnitude
/// in [0, 2^(n-1)) with a random sign, encoded in two's complement.  This
/// differs from a uniform bit pattern in that negative values carry explicit
/// sign-extension structure, matching the paper's separate treatment of the
/// two cases.
class UniformTwosSource final : public OperandSource {
 public:
  explicit UniformTwosSource(int width) : OperandSource(width) {}
  std::pair<ApInt, ApInt> next(BlockRng& rng) override;
  /// Fast path: one generate_block() per 64-sample group in next()'s draw
  /// order (a's magnitude limbs and sign word, then b's, per pair), encoded
  /// in place on whole limbs and transposed into the planes.
  void fill_batch(BlockRng& rng, BitSlicedBatch& out) override;
  [[nodiscard]] std::unique_ptr<OperandSource> clone() const override {
    return std::make_unique<UniformTwosSource>(width());
  }
};

/// Parameters of the Gaussian operand model (Ch. 7 uses mu = 0, sigma = 2^32).
struct GaussianParams {
  double mean = 0.0;
  double sigma = 4294967296.0;  // 2^32
};

/// Gaussian operands: |round(N(mu, sigma))| encoded as an unsigned n-bit
/// value (Fig 6.4), or, with `twos`, round(N(mu, sigma)) in n-bit two's
/// complement (Fig 6.5, Ch. 7), whose small-magnitude negatives produce the
/// long sign-extension carry chains that motivate VLCSA 2.  Variates come
/// from the block ziggurat (GaussianBlockSampler); next() and fill_batch()
/// share the sampler state, so the scalar and batched Monte Carlo paths
/// consume one identical stream.
class GaussianSource final : public OperandSource {
 public:
  GaussianSource(int width, GaussianParams params, bool twos)
      : OperandSource(width), params_(params), twos_(twos) {}
  std::pair<ApInt, ApInt> next(BlockRng& rng) override;
  /// Fast path: one bulk ziggurat fill per batch, encoded and transposed
  /// into the limb-0 planes by one planeops::gaussian_to_planes call.
  /// Samples are at most 64 bits of magnitude, so every higher bit-plane is
  /// a copy of plane 63, the lane-wise sign mask (two's complement), or
  /// zero.
  void fill_batch(BlockRng& rng, BitSlicedBatch& out) override;
  [[nodiscard]] std::unique_ptr<OperandSource> clone() const override {
    return std::make_unique<GaussianSource>(width(), params_, twos_);
  }

 private:
  GaussianParams params_;
  bool twos_;
  GaussianBlockSampler sampler_;
};

enum class InputDistribution {
  kUniformUnsigned,
  kUniformTwos,
  kGaussianUnsigned,
  kGaussianTwos,
};

[[nodiscard]] std::string to_string(InputDistribution dist);

/// Factory used by the harness and benches.
[[nodiscard]] std::unique_ptr<OperandSource> make_source(InputDistribution dist, int width,
                                                         GaussianParams params = {});

/// Clamps a double sample to the representable signed range of `width` bits
/// and encodes it in two's complement.  Exposed for testing.
[[nodiscard]] ApInt encode_signed_sample(int width, double sample);

/// Clamps |sample| to the representable unsigned range of `width` bits.
/// Exposed for testing.
[[nodiscard]] ApInt encode_unsigned_sample(int width, double sample);

}  // namespace vlcsa::arith
