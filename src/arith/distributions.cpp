#include "arith/distributions.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "arith/planeops.hpp"

namespace vlcsa::arith {

void OperandSource::fill_batch(BlockRng& rng, BitSlicedBatch& out) {
  if (out.width() != width()) {
    throw std::invalid_argument("OperandSource::fill_batch: batch width mismatch");
  }
  // One 64-sample group per lane word, in sample order, so the RNG stream is
  // exactly out.lanes() next() calls.
  ApInt a[kBatchLanes], b[kBatchLanes];
  for (int w = 0; w < out.lane_words(); ++w) {
    for (int j = 0; j < kBatchLanes; ++j) {
      auto [aj, bj] = next(rng);
      a[j] = std::move(aj);
      b[j] = std::move(bj);
    }
    transpose_to_planes(a, kBatchLanes, width(), out.a(), out.lane_words(), w);
    transpose_to_planes(b, kBatchLanes, width(), out.b(), out.lane_words(), w);
  }
}

std::pair<ApInt, ApInt> UniformUnsignedSource::next(BlockRng& rng) {
  const int n = width();
  const std::size_t limbs = static_cast<std::size_t>((n + ApInt::kLimbBits - 1) / ApInt::kLimbBits);
  if (cursor_ == kBatchLanes) {
    // Draw the next group in stream order (a's planes 0..n-1, then b's),
    // one 64-plane block per limb with rows past n left zero; transposing a
    // block turns row j into sample j's limb, stored sample-major so each
    // operand is one contiguous limb run.
    group_.resize(2 * limbs * kBatchLanes);
    for (std::size_t op = 0; op < 2; ++op) {
      for (std::size_t limb = 0; limb < limbs; ++limb) {
        std::uint64_t block[kBatchLanes] = {};
        rng.generate_block(block, std::min<std::size_t>(kBatchLanes, n - limb * ApInt::kLimbBits));
        planeops::transpose_64x64(block);
        for (std::size_t j = 0; j < kBatchLanes; ++j) {
          group_[(j * 2 + op) * limbs + limb] = block[j];
        }
      }
    }
    cursor_ = 0;
  }
  const std::uint64_t* sample = group_.data() + static_cast<std::size_t>(cursor_++) * 2 * limbs;
  return {ApInt::from_limbs(n, {sample, limbs}), ApInt::from_limbs(n, {sample + limbs, limbs})};
}

void UniformUnsignedSource::fill_batch(BlockRng& rng, BitSlicedBatch& out) {
  if (out.width() != width()) {
    throw std::invalid_argument("UniformUnsignedSource::fill_batch: batch width mismatch");
  }
  // All of the batch's groups in one generate_block() call: group w is
  // stream_[w * 2n ..], a's planes then b's.  The copy runs bit-outer, so
  // each plane group's lane words are written contiguously.
  const std::size_t n = static_cast<std::size_t>(width());
  const std::size_t lane_words = static_cast<std::size_t>(out.lane_words());
  const std::size_t group_words = 2 * n;
  stream_.resize(group_words * lane_words);
  rng.generate_block(stream_.data(), stream_.size());
  cursor_ = kBatchLanes;
  for (std::size_t op = 0; op < 2; ++op) {
    std::uint64_t* planes = op == 0 ? out.a() : out.b();
    const std::uint64_t* group = stream_.data() + op * n;
    for (std::size_t bit = 0; bit < n; ++bit) {
      // Unrolled: a one-word-per-iteration copy keeps its one-cycle pace
      // only while the loop fits one 32-byte fetch window, so its speed
      // (~20% of the uniform fill) would swing with unrelated code moving
      // in this file.
#pragma GCC unroll 8
      for (std::size_t w = 0; w < lane_words; ++w) {
        planes[bit * lane_words + w] = group[w * group_words + bit];
      }
    }
  }
}

namespace {

ApInt random_signed_magnitude(int width, BlockRng& rng) {
  // Uniform magnitude in [0, 2^(width-1)) with a random sign bit.
  ApInt mag = ApInt::random(width, rng);
  mag.set_bit(width - 1, false);
  const bool negative = (rng() & 1) != 0;
  return negative ? mag.negated() : mag;
}

}  // namespace

std::pair<ApInt, ApInt> UniformTwosSource::next(BlockRng& rng) {
  return {random_signed_magnitude(width(), rng), random_signed_magnitude(width(), rng)};
}

ApInt encode_signed_sample(int width, double sample) {
  return ApInt::from_i64(width, planeops::signed_sample_to_i64(width, sample));
}

ApInt encode_unsigned_sample(int width, double sample) {
  return ApInt::from_u64(width, planeops::unsigned_sample_to_u64(width, sample));
}

std::pair<ApInt, ApInt> GaussianUnsignedSource::next(BlockRng& rng) {
  const double a = params_.mean + params_.sigma * sampler_(rng);
  const double b = params_.mean + params_.sigma * sampler_(rng);
  return {encode_unsigned_sample(width(), a), encode_unsigned_sample(width(), b)};
}

std::pair<ApInt, ApInt> GaussianTwosSource::next(BlockRng& rng) {
  const double a = params_.mean + params_.sigma * sampler_(rng);
  const double b = params_.mean + params_.sigma * sampler_(rng);
  return {encode_signed_sample(width(), a), encode_signed_sample(width(), b)};
}

namespace {

/// The one Gaussian fill body behind both sources' fill_batch: mirror of
/// out.lanes() x next() — one 128-variate sampler fill per lane word (so
/// the RNG stream is exactly next()'s), encoded to limb-0 rows
/// (planeops::encode_gaussian_group), one 64x64 transpose per operand, and
/// every bit-plane >= 64 set to the sign mask (two's-complement sign
/// extension; zero for magnitudes, which never exceed 64 bits).
void fill_gaussian_batch(const planeops::GaussianEncode& e, GaussianBlockSampler& sampler,
                         BlockRng& rng, BitSlicedBatch& out) {
  if (out.width() != e.width) {
    throw std::invalid_argument("Gaussian fill_batch: batch width mismatch");
  }
  const int n = e.width;
  const int lane_words = out.lane_words();
  alignas(planeops::kPlaneAlignment) double variates[2 * kBatchLanes];
  alignas(planeops::kPlaneAlignment) std::uint64_t rows[2 * kBatchLanes];
  for (int w = 0; w < lane_words; ++w) {
    sampler.fill(rng, variates, 2 * kBatchLanes);
    std::uint64_t sign[2];
    planeops::encode_gaussian_group(e, variates, rows, sign);
    for (int op = 0; op < 2; ++op) {
      std::uint64_t* planes = op == 0 ? out.a() : out.b();
      std::uint64_t* block = rows + op * kBatchLanes;
      planeops::transpose_64x64(block);
      block_to_planes(block, 0, n, planes, lane_words, w);
      for (int bit = 64; bit < n; ++bit) {
        planes[static_cast<std::size_t>(bit) * lane_words + w] = sign[op];
      }
    }
  }
}

}  // namespace

void GaussianUnsignedSource::fill_batch(BlockRng& rng, BitSlicedBatch& out) {
  fill_gaussian_batch({width(), false, params_.mean, params_.sigma}, sampler_, rng, out);
}

void GaussianTwosSource::fill_batch(BlockRng& rng, BitSlicedBatch& out) {
  fill_gaussian_batch({width(), true, params_.mean, params_.sigma}, sampler_, rng, out);
}

std::string to_string(InputDistribution dist) {
  switch (dist) {
    case InputDistribution::kUniformUnsigned:
      return "uniform-unsigned";
    case InputDistribution::kUniformTwos:
      return "uniform-twos-complement";
    case InputDistribution::kGaussianUnsigned:
      return "gaussian-unsigned";
    case InputDistribution::kGaussianTwos:
      return "gaussian-twos-complement";
  }
  throw std::logic_error("unknown InputDistribution");
}

std::unique_ptr<OperandSource> make_source(InputDistribution dist, int width,
                                           GaussianParams params) {
  switch (dist) {
    case InputDistribution::kUniformUnsigned:
      return std::make_unique<UniformUnsignedSource>(width);
    case InputDistribution::kUniformTwos:
      return std::make_unique<UniformTwosSource>(width);
    case InputDistribution::kGaussianUnsigned:
      return std::make_unique<GaussianUnsignedSource>(width, params);
    case InputDistribution::kGaussianTwos:
      return std::make_unique<GaussianTwosSource>(width, params);
  }
  throw std::logic_error("unknown InputDistribution");
}

}  // namespace vlcsa::arith
