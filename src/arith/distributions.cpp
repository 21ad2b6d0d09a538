#include "arith/distributions.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "arith/planeops.hpp"

namespace vlcsa::arith {

std::size_t UniformUnsignedSource::next_group(BlockRng& rng) {
  if (taken_ == kSuperblockGroups) {
    superblock_.resize(2 * kSuperblockGroups * static_cast<std::size_t>(width()));
    rng.generate_block(superblock_.data(), superblock_.size());
    taken_ = 0;
  }
  return taken_++;
}

std::pair<ApInt, ApInt> UniformUnsignedSource::next(BlockRng& rng) {
  const int n = width();
  const std::size_t limbs = static_cast<std::size_t>((n + ApInt::kLimbBits - 1) / ApInt::kLimbBits);
  if (cursor_ == kBatchLanes) {
    // Gather the group's plane words (a's rows 0..n-1, then b's), one
    // 64-plane block per limb with rows past n left zero; transposing a
    // block turns row j into sample j's limb, stored sample-major so each
    // operand is one contiguous limb run.
    const std::size_t g = next_group(rng);
    group_.resize(2 * limbs * kBatchLanes);
    for (std::size_t op = 0; op < 2; ++op) {
      const std::uint64_t* rows = superblock_.data() + op * kSuperblockGroups * n + g;
      for (std::size_t limb = 0; limb < limbs; ++limb) {
        std::uint64_t block[kBatchLanes] = {};
        const std::size_t base = limb * ApInt::kLimbBits;
        for (std::size_t r = 0; r < std::min<std::size_t>(kBatchLanes, n - base); ++r) {
          block[r] = rows[(base + r) * kSuperblockGroups];
        }
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

namespace {

/// Copies `Run` contiguous words of each of n superblock rows (stride
/// kSuperblockGroups) to the matching plane rows (stride lane_words).  The
/// run length is a template argument so each row is a fixed-size copy, not
/// a memmove call; unrolled so its pace does not depend on code placement.
template <std::size_t Run>
void copy_run(const std::uint64_t* rows, std::uint64_t* planes, std::size_t n,
              std::size_t lane_words) {
#pragma GCC unroll 8
  for (std::size_t bit = 0; bit < n; ++bit) {
    std::memcpy(planes + bit * lane_words, rows + bit * UniformUnsignedSource::kSuperblockGroups,
                Run * sizeof(std::uint64_t));
  }
}

template <std::size_t... Run>
constexpr auto copy_run_table(std::index_sequence<Run...>) {
  return std::array{&copy_run<Run + 1>...};
}

/// kCopyRun[run - 1] copies a run of `run` lane words.
constexpr auto kCopyRun =
    copy_run_table(std::make_index_sequence<UniformUnsignedSource::kSuperblockGroups>());

}  // namespace

void UniformUnsignedSource::fill_batch(BlockRng& rng, BitSlicedBatch& out) {
  if (out.width() != width()) {
    throw std::invalid_argument("UniformUnsignedSource::fill_batch: batch width mismatch");
  }
  const std::size_t n = static_cast<std::size_t>(width());
  const std::size_t lane_words = static_cast<std::size_t>(out.lane_words());
  cursor_ = kBatchLanes;
  if (lane_words == kSuperblockGroups && taken_ == kSuperblockGroups) {
    // One whole superblock in the planes' own layout: a's rows, then b's.
    rng.generate_block(out.a(), kSuperblockGroups * n);
    rng.generate_block(out.b(), kSuperblockGroups * n);
    return;
  }
  // Lane words [w, w + run) come from groups [g, g + run) of one buffered
  // superblock: per plane row, `run` contiguous words on both sides.
  for (std::size_t w = 0; w < lane_words;) {
    const std::size_t g = next_group(rng);
    const std::size_t run = std::min(lane_words - w, kSuperblockGroups - g);
    taken_ = g + run;
    for (std::size_t op = 0; op < 2; ++op) {
      kCopyRun[run - 1](superblock_.data() + op * kSuperblockGroups * n + g,
                        (op == 0 ? out.a() : out.b()) + w, n, lane_words);
    }
    w += run;
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

void UniformTwosSource::fill_batch(BlockRng& rng, BitSlicedBatch& out) {
  if (out.width() != width()) {
    throw std::invalid_argument("UniformTwosSource::fill_batch: batch width mismatch");
  }
  const int n = width();
  const std::size_t limbs = static_cast<std::size_t>((n + ApInt::kLimbBits - 1) / ApInt::kLimbBits);
  const std::size_t top = limbs - 1;
  // random_signed_magnitude's encode: the sign bit cleared, then a
  // two's-complement negation for an odd sign word.  Bits above the width
  // need no mask: block_to_planes drops those rows.
  const std::uint64_t sign_bit = std::uint64_t{1} << ((n - 1) % ApInt::kLimbBits);
  // One operand is `limbs` magnitude words and its sign word, a then b per
  // pair: the group's 128 operands in next()'s order.
  const std::size_t operand_words = limbs + 1;
  std::vector<std::uint64_t> words(2 * kBatchLanes * operand_words);
  std::uint64_t block[kBatchLanes];
  for (int w = 0; w < out.lane_words(); ++w) {
    rng.generate_block(words.data(), words.size());
    for (std::size_t k = 0; k < 2 * kBatchLanes; ++k) {
      std::uint64_t* value = words.data() + k * operand_words;
      value[top] &= ~sign_bit;
      if ((value[limbs] & 1) != 0) {
        std::uint64_t carry = 1;
        for (std::size_t limb = 0; limb < limbs; ++limb) {
          value[limb] = ~value[limb] + carry;
          carry &= value[limb] == 0 ? 1 : 0;
        }
      }
    }
    for (std::size_t op = 0; op < 2; ++op) {
      for (std::size_t limb = 0; limb < limbs; ++limb) {
        for (std::size_t j = 0; j < kBatchLanes; ++j) {
          block[j] = words[(2 * j + op) * operand_words + limb];
        }
        planeops::transpose_64x64(block);
        block_to_planes(block, static_cast<int>(limb), n, op == 0 ? out.a() : out.b(),
                        out.lane_words(), w);
      }
    }
  }
}

ApInt encode_signed_sample(int width, double sample) {
  return ApInt::from_i64(width, planeops::signed_sample_to_i64(width, sample));
}

ApInt encode_unsigned_sample(int width, double sample) {
  return ApInt::from_u64(width, planeops::unsigned_sample_to_u64(width, sample));
}

std::pair<ApInt, ApInt> GaussianSource::next(BlockRng& rng) {
  const double a = params_.mean + params_.sigma * sampler_(rng);
  const double b = params_.mean + params_.sigma * sampler_(rng);
  if (twos_) return {encode_signed_sample(width(), a), encode_signed_sample(width(), b)};
  return {encode_unsigned_sample(width(), a), encode_unsigned_sample(width(), b)};
}

// Mirror of out.lanes() x next(): one sampler fill for the whole batch (so
// the RNG stream is exactly next()'s), encoded and transposed into the
// limb-0 planes by planeops::gaussian_to_planes, and every bit-plane >= 64
// a copy of plane 63 (two's-complement sign extension) or zero.
void GaussianSource::fill_batch(BlockRng& rng, BitSlicedBatch& out) {
  if (out.width() != width()) {
    throw std::invalid_argument("GaussianSource::fill_batch: batch width mismatch");
  }
  const std::size_t n = static_cast<std::size_t>(width());
  const std::size_t lane_words = static_cast<std::size_t>(out.lane_words());
  alignas(planeops::kPlaneAlignment) double variates[2 * kBatchLanes * kMaxLaneWords];
  sampler_.fill(rng, variates, 2 * kBatchLanes * lane_words);
  planeops::gaussian_to_planes({width(), twos_, params_.mean, params_.sigma}, variates,
                               out.lane_words(), out.a(), out.b());
  // Narrower batches have no rows from 64 up, and plane 63's address would
  // lie past their plane arrays.
  if (n <= 64) return;
  for (std::uint64_t* planes : {out.a(), out.b()}) {
    const std::uint64_t* sign = planes + 63 * lane_words;
    for (std::size_t bit = 64; bit < n; ++bit) {
      std::uint64_t* row = planes + bit * lane_words;
      if (twos_) {
        std::copy(sign, sign + lane_words, row);
      } else {
        std::fill(row, row + lane_words, 0);
      }
    }
  }
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
      return std::make_unique<GaussianSource>(width, params, false);
    case InputDistribution::kGaussianTwos:
      return std::make_unique<GaussianSource>(width, params, true);
  }
  throw std::logic_error("unknown InputDistribution");
}

}  // namespace vlcsa::arith
