#include "arith/distributions.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#endif

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

namespace {

// Raw-word encode bodies shared by the ApInt wrappers below and the
// direct-to-plane Gaussian fill paths (which build transpose blocks from
// these words without touching the heap).

std::int64_t signed_sample_to_i64(int width, double sample) {
  const double rounded = std::nearbyint(sample);
  if (width >= 64) {
    // sigma = 2^32 keeps samples far inside int64 range (8 sigma < 2^36).
    return static_cast<std::int64_t>(rounded);
  }
  const double lo = -std::ldexp(1.0, width - 1);
  const double hi = std::ldexp(1.0, width - 1) - 1.0;
  return static_cast<std::int64_t>(std::fmin(std::fmax(rounded, lo), hi));
}

std::uint64_t unsigned_sample_to_u64(int width, double sample) {
  const double mag = std::fabs(std::nearbyint(sample));
  if (width >= 64) return static_cast<std::uint64_t>(mag);
  const double hi = std::ldexp(1.0, width) - 1.0;
  return static_cast<std::uint64_t>(std::fmin(mag, hi));
}

}  // namespace

ApInt encode_signed_sample(int width, double sample) {
  return ApInt::from_i64(width, signed_sample_to_i64(width, sample));
}

ApInt encode_unsigned_sample(int width, double sample) {
  return ApInt::from_u64(width, unsigned_sample_to_u64(width, sample));
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

// ---- Gaussian group encode ---------------------------------------------------
//
// One 64-sample group of variates a0 b0 a1 b1 ... (next()'s draw order)
// becomes the limb-0 rows of both operands — a's in rows[0, 64), b's in
// rows[64, 128), row j = sample j, masked to the width — plus the lane-wise
// sign masks of a and b (zero for the unsigned encode).  The scalar body is
// the oracle: it is next()'s encode word for word.

struct GaussianEncode {
  int width;
  bool twos;  // two's complement (GaussianTwosSource) or magnitude
  GaussianParams params;
};

inline std::uint64_t width_mask(int width) {
  return width >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << width) - 1);
}

void encode_group_scalar(const GaussianEncode& e, const double* variates,
                         std::uint64_t* rows, std::uint64_t sign[2]) {
  const int width = e.width;
  const std::uint64_t top_mask = width_mask(width);
  std::uint64_t negative_a = 0;
  std::uint64_t negative_b = 0;
  for (int j = 0; j < kBatchLanes; ++j) {
    const double a = e.params.mean + e.params.sigma * variates[2 * j];
    const double b = e.params.mean + e.params.sigma * variates[2 * j + 1];
    if (e.twos) {
      const std::int64_t av = signed_sample_to_i64(width, a);
      const std::int64_t bv = signed_sample_to_i64(width, b);
      negative_a |= static_cast<std::uint64_t>(av < 0) << j;
      negative_b |= static_cast<std::uint64_t>(bv < 0) << j;
      rows[j] = static_cast<std::uint64_t>(av) & top_mask;
      rows[kBatchLanes + j] = static_cast<std::uint64_t>(bv) & top_mask;
    } else {
      rows[j] = unsigned_sample_to_u64(width, a) & top_mask;
      rows[kBatchLanes + j] = unsigned_sample_to_u64(width, b) & top_mask;
    }
  }
  sign[0] = negative_a;
  sign[1] = negative_b;
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define VLCSA_HAVE_AVX512_ENCODE 1

// Same GCC avx512fintrin.h -Wmaybe-uninitialized false positive as
// planeops.cpp (GCC bug 105593); silenced for this section only.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

// Eight samples per step, bit-identical to the scalar body: a/b
// deinterleaved by permutex2var; mean + sigma * x as a separate multiply and
// add (the _round forms are builtins, so no FMA contraction can fuse them,
// and the build passes -ffp-contract=off so the scalar side never fuses
// either);
// roundscale to nearest-even for nearbyint; min/max for the clamp, whose
// NaN handling matches fmin/fmax on the second operand; truncating
// conversions, exact on integral values in range (out-of-range samples are
// undefined in the scalar oracle too); and the sign mask straight from the
// int64 sign bits.
__attribute__((target("avx512f,avx512bw,avx512dq"))) void encode_group_avx512(
    const GaussianEncode& e, const double* variates, std::uint64_t* rows,
    std::uint64_t sign[2]) {
  constexpr int kRound = _MM_FROUND_CUR_DIRECTION;
  const __m512i pick[2] = {_mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14),
                           _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15)};
  const __m512d mean = _mm512_set1_pd(e.params.mean);
  const __m512d sigma = _mm512_set1_pd(e.params.sigma);
  const bool clamp = e.width < 64;  // the bounds below are used only then
  const __m512d lo = _mm512_set1_pd(-std::ldexp(1.0, e.width - 1));
  const __m512d hi = _mm512_set1_pd(std::ldexp(1.0, e.twos ? e.width - 1 : e.width) - 1.0);
  const __m512i top_mask = _mm512_set1_epi64(static_cast<long long>(width_mask(e.width)));
  sign[0] = sign[1] = 0;
  for (int g = 0; g < kBatchLanes / 8; ++g) {
    const __m512d v0 = _mm512_loadu_pd(variates + 16 * g);
    const __m512d v1 = _mm512_loadu_pd(variates + 16 * g + 8);
    for (int op = 0; op < 2; ++op) {
      const __m512d x = _mm512_permutex2var_pd(v0, pick[op], v1);
      __m512d y = _mm512_add_round_pd(mean, _mm512_mul_round_pd(sigma, x, kRound), kRound);
      y = _mm512_roundscale_pd(y, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
      __m512i word;
      if (e.twos) {
        if (clamp) y = _mm512_min_pd(_mm512_max_pd(y, lo), hi);
        word = _mm512_cvttpd_epi64(y);
        sign[op] |= static_cast<std::uint64_t>(_mm512_movepi64_mask(word)) << (8 * g);
      } else {
        y = _mm512_abs_pd(y);
        if (clamp) y = _mm512_min_pd(y, hi);
        word = _mm512_cvttpd_epu64(y);
      }
      _mm512_storeu_si512(rows + op * kBatchLanes + 8 * g, _mm512_and_si512(word, top_mask));
    }
  }
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#endif  // VLCSA_HAVE_AVX512_ENCODE

/// The one Gaussian fill body behind both sources' fill_batch: mirror of
/// out.lanes() x next() — one 128-variate sampler fill per lane word (so
/// the RNG stream is exactly next()'s), encoded to limb-0 rows, one 64x64
/// transpose per operand, and every bit-plane >= 64 set to the sign mask
/// (two's-complement sign extension; zero for magnitudes, which never
/// exceed 64 bits).
void fill_gaussian_batch(const GaussianEncode& e, GaussianBlockSampler& sampler,
                         BlockRng& rng, BitSlicedBatch& out) {
  if (out.width() != e.width) {
    throw std::invalid_argument("Gaussian fill_batch: batch width mismatch");
  }
  auto* encode = encode_group_scalar;
#if VLCSA_HAVE_AVX512_ENCODE
  if (planeops::active_backend() == planeops::Backend::kAvx512) encode = encode_group_avx512;
#endif
  const int n = e.width;
  const int lane_words = out.lane_words();
  alignas(planeops::kPlaneAlignment) double variates[2 * kBatchLanes];
  alignas(planeops::kPlaneAlignment) std::uint64_t rows[2 * kBatchLanes];
  for (int w = 0; w < lane_words; ++w) {
    sampler.fill(rng, variates, 2 * kBatchLanes);
    std::uint64_t sign[2];
    encode(e, variates, rows, sign);
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
  fill_gaussian_batch({width(), false, params_}, sampler_, rng, out);
}

void GaussianTwosSource::fill_batch(BlockRng& rng, BitSlicedBatch& out) {
  fill_gaussian_batch({width(), true, params_}, sampler_, rng, out);
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
