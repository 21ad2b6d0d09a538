#pragma once
// Operand-pair sources for the four input classes studied in the paper
// (Ch. 3 and Ch. 6): unsigned uniform, two's-complement uniform, unsigned
// Gaussian and two's-complement Gaussian (the practical-input proxy), plus a
// common interface so the Monte Carlo harness can run any of them.

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
  [[nodiscard]] virtual std::string name() const = 0;

  /// Draws the next operand pair.
  virtual std::pair<ApInt, ApInt> next(BlockRng& rng) = 0;

  /// Draws the next out.lanes() (= 64 * lane_words) operand pairs into
  /// bit-planes, lane word w holding the w-th 64-sample group.  CONTRACT:
  /// a source's stream is a sequence of 64-sample groups, and fill_batch
  /// consumes the RNG exactly like out.lanes() successive next() calls
  /// started on a group boundary, producing the same samples (lane j = the
  /// j-th pair).  That is what keeps the batched Monte Carlo path
  /// bit-identical to the scalar one at every lane width and shard size:
  /// a shard of `count` samples draws ceil(count / 64) groups on either
  /// path.  The default implementation literally calls next(); overrides
  /// may generate straight into the planes as long as the stream is
  /// preserved.
  virtual void fill_batch(BlockRng& rng, BitSlicedBatch& out);

  /// Fresh source of the same distribution with pristine stream state (any
  /// cached variates are discarded).  Must be safe to call concurrently from
  /// multiple threads — the parallel engine clones one source per shard.
  [[nodiscard]] virtual std::unique_ptr<OperandSource> clone() const = 0;

 private:
  int width_;
};

/// Uniformly random n-bit patterns ("unsigned random inputs", Ch. 3).
///
/// The stream is plane-major (stream_version uniform-plane-v1): each
/// 64-sample group is 2n raw generate_block words, a's bit-planes 0..n-1
/// then b's, where bit j of plane word `bit` is sample j's operand bit
/// `bit`.  Uniform i.i.d. bits are uniform i.i.d. in either orientation,
/// so the batched path copies words straight into the planes and only the
/// scalar oracle pays for a transpose.
class UniformUnsignedSource final : public OperandSource {
 public:
  explicit UniformUnsignedSource(int width) : OperandSource(width) {}
  [[nodiscard]] std::string name() const override { return "uniform-unsigned"; }
  /// Scalar oracle: draws one group when the buffered one runs out and
  /// inverse-transposes it (2 * ceil(n / 64) 64x64 blocks) once per 64
  /// samples; each pair is then built from whole limbs.
  std::pair<ApInt, ApInt> next(BlockRng& rng) override;
  /// Fast path: one generate_block() for all of the batch's groups, copied
  /// word for word into the bit-planes — no transpose, no mask, no
  /// per-sample work.  Starts a fresh group: a group next() had begun is
  /// dropped.
  void fill_batch(BlockRng& rng, BitSlicedBatch& out) override;
  [[nodiscard]] std::unique_ptr<OperandSource> clone() const override {
    return std::make_unique<UniformUnsignedSource>(width());
  }

 private:
  std::vector<std::uint64_t> stream_;  // fill_batch raw block-RNG draw scratch
  std::vector<std::uint64_t> group_;   // next(): the current group, sample-major limbs
  int cursor_ = kBatchLanes;           // next(): samples of group_ already returned
};

/// Two's-complement uniform inputs (Fig 6.3): a uniformly random magnitude
/// in [0, 2^(n-1)) with a random sign, encoded in two's complement.  This
/// differs from a uniform bit pattern in that negative values carry explicit
/// sign-extension structure, matching the paper's separate treatment of the
/// two cases.
class UniformTwosSource final : public OperandSource {
 public:
  explicit UniformTwosSource(int width) : OperandSource(width) {}
  [[nodiscard]] std::string name() const override { return "uniform-twos-complement"; }
  std::pair<ApInt, ApInt> next(BlockRng& rng) override;
  [[nodiscard]] std::unique_ptr<OperandSource> clone() const override {
    return std::make_unique<UniformTwosSource>(width());
  }
};

/// Parameters of the Gaussian operand model (Ch. 7 uses mu = 0, sigma = 2^32).
struct GaussianParams {
  double mean = 0.0;
  double sigma = 4294967296.0;  // 2^32
};

/// |round(N(mu, sigma))| encoded as an unsigned n-bit value (Fig 6.4).
/// Variates come from the block ziggurat (GaussianBlockSampler); next() and
/// fill_batch() share the sampler state, so the scalar and batched Monte
/// Carlo paths consume one identical stream.
class GaussianUnsignedSource final : public OperandSource {
 public:
  GaussianUnsignedSource(int width, GaussianParams params)
      : OperandSource(width), params_(params) {}
  [[nodiscard]] std::string name() const override { return "gaussian-unsigned"; }
  std::pair<ApInt, ApInt> next(BlockRng& rng) override;
  /// Fast path (shared with GaussianTwosSource): bulk ziggurat variates,
  /// one vector encode per 64-sample group straight into the limb-0
  /// transpose blocks (avx512 backend; the scalar encode elsewhere) —
  /// samples are at most 64 bits of magnitude, so only the limb-0 block is
  /// transposed and every higher bit-plane is zero.
  void fill_batch(BlockRng& rng, BitSlicedBatch& out) override;
  [[nodiscard]] std::unique_ptr<OperandSource> clone() const override {
    return std::make_unique<GaussianUnsignedSource>(width(), params_);
  }

 private:
  GaussianParams params_;
  GaussianBlockSampler sampler_;
};

/// round(N(mu, sigma)) encoded in n-bit two's complement (Fig 6.5, Ch. 7).
/// Small-magnitude negatives produce the long sign-extension carry chains
/// that motivate VLCSA 2.  Same block-ziggurat sampling discipline as
/// GaussianUnsignedSource.
class GaussianTwosSource final : public OperandSource {
 public:
  GaussianTwosSource(int width, GaussianParams params)
      : OperandSource(width), params_(params) {}
  [[nodiscard]] std::string name() const override { return "gaussian-twos-complement"; }
  std::pair<ApInt, ApInt> next(BlockRng& rng) override;
  /// Fast path: GaussianUnsignedSource::fill_batch's body with the two's
  /// complement encode, plus sign extension — every bit-plane above limb 0
  /// is the lane-wise sign mask the encode produces, written directly with
  /// no extra transposes.
  void fill_batch(BlockRng& rng, BitSlicedBatch& out) override;
  [[nodiscard]] std::unique_ptr<OperandSource> clone() const override {
    return std::make_unique<GaussianTwosSource>(width(), params_);
  }

 private:
  GaussianParams params_;
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
