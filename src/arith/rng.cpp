#include "arith/rng.hpp"

#include <algorithm>
#include <cmath>

#include "arith/planeops.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define VLCSA_HAVE_AVX2_RNG 1
#include <immintrin.h>
#endif

namespace vlcsa::arith {

namespace {

// MT19937-64 constants ([rand.eng.mers] mersenne_twister_engine<uint64, 64,
// 312, 156, 31, A, 29, D, 17, B, 37, C, 43, F>).
constexpr std::size_t kN = BlockRng::kStateWords;  // 312
constexpr std::size_t kM = 156;
constexpr std::uint64_t kMatrixA = 0xB5026F5AA96619E9ULL;
constexpr std::uint64_t kLowerMask = 0x7FFFFFFFULL;        // low r = 31 bits
constexpr std::uint64_t kUpperMask = ~kLowerMask;          // high w - r bits
constexpr std::uint64_t kTemperD = 0x5555555555555555ULL;  // u = 29
constexpr std::uint64_t kTemperB = 0x71D67FFFEDA60000ULL;  // s = 17
constexpr std::uint64_t kTemperC = 0xFFF7EEE000000000ULL;  // t = 37
constexpr std::uint64_t kSeedF = 6364136223846793005ULL;

// ---- scalar backend (the oracle the SIMD twist is pinned to) ---------------

inline std::uint64_t twist_word(std::uint64_t hi, std::uint64_t lo) {
  const std::uint64_t y = (hi & kUpperMask) | (lo & kLowerMask);
  return (y >> 1) ^ ((y & 1) ? kMatrixA : 0);
}

void twist_scalar(std::uint64_t* mt) {
  for (std::size_t i = 0; i < kN - kM; ++i) {
    mt[i] = mt[i + kM] ^ twist_word(mt[i], mt[i + 1]);
  }
  for (std::size_t i = kN - kM; i < kN - 1; ++i) {
    mt[i] = mt[i + kM - kN] ^ twist_word(mt[i], mt[i + 1]);
  }
  mt[kN - 1] = mt[kM - 1] ^ twist_word(mt[kN - 1], mt[0]);
}

inline std::uint64_t temper_word(std::uint64_t z) {
  z ^= (z >> 29) & kTemperD;
  z ^= (z << 17) & kTemperB;
  z ^= (z << 37) & kTemperC;
  z ^= z >> 43;
  return z;
}

void temper_scalar(const std::uint64_t* mt, std::uint64_t* dst) {
  for (std::size_t i = 0; i < kN; ++i) dst[i] = temper_word(mt[i]);
}

// 256-layer ziggurat for the standard normal (Marsaglia & Tsang 2000,
// widened from the classic 32-bit draw to one 64-bit word per attempt):
// the low 8 bits pick the layer, the top 55 bits form a signed mantissa hz
// with |hz| < 2^54, and the fast path accepts when |hz| < kn[iz], returning
// x = hz * wn[iz].  Layer boundaries x_i solve the standard recurrence with
// strip area V and base boundary R; kn/wn are pre-scaled by m = 2^54 so the
// fast path is one integer compare and one multiply.

struct ZigguratTables {
  std::uint64_t kn[256];  // acceptance thresholds, in hz units
  double wn[256];         // hz -> x scale per layer
  double fn[256];         // exp(-x_i^2 / 2) at the layer boundaries
};

/// The ziggurat fast path for one raw word: x = hz * wn[iz] always, and
/// whether the layer test accepts it.
inline bool zig_fast(std::uint64_t w, const ZigguratTables& t, double& x) {
  const std::size_t iz = w & 0xFF;
  const std::int64_t hz = static_cast<std::int64_t>(w) >> 9;
  const std::uint64_t mag = static_cast<std::uint64_t>(hz < 0 ? -hz : hz);
  x = static_cast<double>(hz) * t.wn[iz];
  return mag < t.kn[iz];
}

/// Fast-path variates of the longest accepted prefix of words[0, m): writes
/// dst[0, k) and returns k, stopping at the first word the layer test
/// rejects (k < m), which the caller hands to the slow path.
std::size_t zig_accept_scalar(const std::uint64_t* words, std::size_t m,
                              const ZigguratTables& t, double* dst) {
  for (std::size_t i = 0; i < m; ++i) {
    double x;
    if (!zig_fast(words[i], t, x)) return i;
    dst[i] = x;
  }
  return m;
}

// ---- AVX2 backend ----------------------------------------------------------
//
// Same per-function target attributes as planeops.cpp: the stock build
// carries the AVX2 bodies and runtime dispatch picks them on capable hosts.
// The twist recurrence x[i] = x[i+m] ^ f(x[i], x[i+1]) only feeds back at
// distances m = 156 and 1 (through the *old* value of x[i+1]), so 4-wide
// chunks that load both operand vectors before storing never observe a
// value the chunk itself wrote — the exact pre-round-read reasoning of the
// planeops kogge/ssand kernels.

#if VLCSA_HAVE_AVX2_RNG

__attribute__((target("avx2"))) inline __m256i twist_vec(__m256i hi, __m256i lo,
                                                         __m256i feed) {
  const __m256i upper = _mm256_set1_epi64x(static_cast<long long>(kUpperMask));
  const __m256i lower = _mm256_set1_epi64x(static_cast<long long>(kLowerMask));
  const __m256i a = _mm256_set1_epi64x(static_cast<long long>(kMatrixA));
  const __m256i one = _mm256_set1_epi64x(1);
  const __m256i y =
      _mm256_or_si256(_mm256_and_si256(hi, upper), _mm256_and_si256(lo, lower));
  // (y & 1) ? A : 0 without a compare: 0 - (y & 1) is all-ones or zero.
  const __m256i odd_mask =
      _mm256_sub_epi64(_mm256_setzero_si256(), _mm256_and_si256(y, one));
  return _mm256_xor_si256(
      feed, _mm256_xor_si256(_mm256_srli_epi64(y, 1), _mm256_and_si256(odd_mask, a)));
}

__attribute__((target("avx2"))) void twist_avx2(std::uint64_t* mt) {
  // First stretch: i in [0, n-m) reads old mt[i..i+1] and old mt[i+m].
  // 156 is a multiple of 4, so no scalar tail here.
  for (std::size_t i = 0; i < kN - kM; i += 4) {
    const __m256i hi = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(mt + i));
    const __m256i lo = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(mt + i + 1));
    const __m256i feed =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(mt + i + kM));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(mt + i), twist_vec(hi, lo, feed));
  }
  // Second stretch: i in [n-m, n-1) feeds back the *new* mt[i+m-n] (written
  // 156 slots earlier) while still reading old mt[i..i+1]; a 4-chunk writes
  // mt[i..i+3] only after loading mt[i..i+4], so the lo vector's overlap
  // with the chunk's own stores is safe.  155 iterations -> 3 scalar tail.
  std::size_t i = kN - kM;
  for (; i + 4 <= kN - 1; i += 4) {
    const __m256i hi = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(mt + i));
    const __m256i lo = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(mt + i + 1));
    const __m256i feed =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(mt + i + kM - kN));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(mt + i), twist_vec(hi, lo, feed));
  }
  for (; i < kN - 1; ++i) mt[i] = mt[i + kM - kN] ^ twist_word(mt[i], mt[i + 1]);
  mt[kN - 1] = mt[kM - 1] ^ twist_word(mt[kN - 1], mt[0]);
}

__attribute__((target("avx2"))) void temper_avx2(const std::uint64_t* mt,
                                                 std::uint64_t* dst) {
  const __m256i d = _mm256_set1_epi64x(static_cast<long long>(kTemperD));
  const __m256i b = _mm256_set1_epi64x(static_cast<long long>(kTemperB));
  const __m256i c = _mm256_set1_epi64x(static_cast<long long>(kTemperC));
  for (std::size_t i = 0; i < kN; i += 4) {  // 312 is a multiple of 4
    __m256i z = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(mt + i));
    z = _mm256_xor_si256(z, _mm256_and_si256(_mm256_srli_epi64(z, 29), d));
    z = _mm256_xor_si256(z, _mm256_and_si256(_mm256_slli_epi64(z, 17), b));
    z = _mm256_xor_si256(z, _mm256_and_si256(_mm256_slli_epi64(z, 37), c));
    z = _mm256_xor_si256(z, _mm256_srli_epi64(z, 43));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), z);
  }
}

#endif  // VLCSA_HAVE_AVX2_RNG

// ---- AVX-512 backend -------------------------------------------------------
//
// The 8-wide analogue of the AVX2 twist/temper.  The same pre-round-read
// argument holds — a chunk loads mt[i..i+8] (and the feed vector) before it
// stores mt[i..i+7] — but the chunk counts change: the first stretch spans
// 156 words (19 chunks of 8 + 4 tail) and the second spans 155.  The
// ziggurat fast path also runs 8 words per step here; it needs avx512dq for
// the int64 -> double conversion, which is why the AVX2 row keeps the
// scalar body.

#if VLCSA_HAVE_AVX2_RNG
#define VLCSA_HAVE_AVX512_RNG 1

// Same GCC avx512fintrin.h -Wmaybe-uninitialized false positive as
// planeops.cpp (GCC bug 105593); silenced for this section only.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

__attribute__((target("avx512f,avx512bw"))) inline __m512i twist_vec512(__m512i hi,
                                                                        __m512i lo,
                                                                        __m512i feed) {
  const __m512i upper = _mm512_set1_epi64(static_cast<long long>(kUpperMask));
  const __m512i lower = _mm512_set1_epi64(static_cast<long long>(kLowerMask));
  const __m512i a = _mm512_set1_epi64(static_cast<long long>(kMatrixA));
  const __m512i one = _mm512_set1_epi64(1);
  const __m512i y =
      _mm512_or_si512(_mm512_and_si512(hi, upper), _mm512_and_si512(lo, lower));
  // (y & 1) ? A : 0 without a compare: 0 - (y & 1) is all-ones or zero.
  const __m512i odd_mask =
      _mm512_sub_epi64(_mm512_setzero_si512(), _mm512_and_si512(y, one));
  return _mm512_xor_si512(
      feed, _mm512_xor_si512(_mm512_srli_epi64(y, 1), _mm512_and_si512(odd_mask, a)));
}

__attribute__((target("avx512f,avx512bw"))) void twist_avx512(std::uint64_t* mt) {
  // First stretch: i in [0, n-m) reads old mt[i..i+1] and old mt[i+m].
  // 156 = 19*8 + 4, so a 4-word scalar tail remains.
  std::size_t i = 0;
  for (; i + 8 <= kN - kM; i += 8) {
    const __m512i hi = _mm512_loadu_si512(mt + i);
    const __m512i lo = _mm512_loadu_si512(mt + i + 1);
    const __m512i feed = _mm512_loadu_si512(mt + i + kM);
    _mm512_storeu_si512(mt + i, twist_vec512(hi, lo, feed));
  }
  for (; i < kN - kM; ++i) mt[i] = mt[i + kM] ^ twist_word(mt[i], mt[i + 1]);
  // Second stretch: i in [n-m, n-1) feeds back the *new* mt[i+m-n] (written
  // 156 slots earlier) while still reading old mt[i..i+1]; an 8-chunk writes
  // mt[i..i+7] only after loading mt[i..i+8].  155 iterations -> 3 tail.
  for (; i + 8 <= kN - 1; i += 8) {
    const __m512i hi = _mm512_loadu_si512(mt + i);
    const __m512i lo = _mm512_loadu_si512(mt + i + 1);
    const __m512i feed = _mm512_loadu_si512(mt + i + kM - kN);
    _mm512_storeu_si512(mt + i, twist_vec512(hi, lo, feed));
  }
  for (; i < kN - 1; ++i) mt[i] = mt[i + kM - kN] ^ twist_word(mt[i], mt[i + 1]);
  mt[kN - 1] = mt[kM - 1] ^ twist_word(mt[kN - 1], mt[0]);
}

__attribute__((target("avx512f,avx512bw"))) void temper_avx512(const std::uint64_t* mt,
                                                               std::uint64_t* dst) {
  const __m512i d = _mm512_set1_epi64(static_cast<long long>(kTemperD));
  const __m512i b = _mm512_set1_epi64(static_cast<long long>(kTemperB));
  const __m512i c = _mm512_set1_epi64(static_cast<long long>(kTemperC));
  for (std::size_t i = 0; i < kN; i += 8) {  // 312 is a multiple of 8
    __m512i z = _mm512_loadu_si512(mt + i);
    z = _mm512_xor_si512(z, _mm512_and_si512(_mm512_srli_epi64(z, 29), d));
    z = _mm512_xor_si512(z, _mm512_and_si512(_mm512_slli_epi64(z, 17), b));
    z = _mm512_xor_si512(z, _mm512_and_si512(_mm512_slli_epi64(z, 37), c));
    z = _mm512_xor_si512(z, _mm512_srli_epi64(z, 43));
    _mm512_storeu_si512(dst + i, z);
  }
}

// Eight words per step: the same integer layer test and multiply as
// zig_fast (cvtepi64_pd and the scalar int64 -> double cast both round in
// the current rounding mode), with kn/wn gathered per lane.  A chunk
// holding a rejected word stores only the lanes below it.
__attribute__((target("avx512f,avx512bw,avx512dq"))) std::size_t zig_accept_avx512(
    const std::uint64_t* words, std::size_t m, const ZigguratTables& t, double* dst) {
  const __m512i layer_bits = _mm512_set1_epi64(0xFF);
  std::size_t i = 0;
  for (; i + 8 <= m; i += 8) {
    const __m512i w = _mm512_loadu_si512(words + i);
    const __m512i iz = _mm512_and_si512(w, layer_bits);
    const __m512i hz = _mm512_srai_epi64(w, 9);
    const __mmask8 accept = _mm512_cmplt_epu64_mask(_mm512_abs_epi64(hz),
                                                    _mm512_i64gather_epi64(iz, t.kn, 8));
    const __m512d x =
        _mm512_mul_pd(_mm512_cvtepi64_pd(hz), _mm512_i64gather_pd(iz, t.wn, 8));
    if (accept != 0xFF) {
      const unsigned taken = static_cast<unsigned>(__builtin_ctz(~accept & 0xFFu));
      _mm512_mask_storeu_pd(dst + i, static_cast<__mmask8>((1u << taken) - 1), x);
      return i + taken;
    }
    _mm512_storeu_pd(dst + i, x);
  }
  return i + zig_accept_scalar(words + i, m - i, t, dst + i);
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#endif  // VLCSA_HAVE_AVX512_RNG

// ---- dispatch --------------------------------------------------------------
//
// The RNG rides the planeops dispatch state rather than keeping its own:
// VLCSA_FORCE_BACKEND and planeops::set_backend select the twist/temper
// implementation too, so one switch covers the whole bit-parallel stack.

struct RngKernels {
  void (*twist)(std::uint64_t*);
  void (*temper)(const std::uint64_t*, std::uint64_t*);
  std::size_t (*zig_accept)(const std::uint64_t*, std::size_t, const ZigguratTables&,
                            double*);
};

RngKernels active_kernels() {
#if VLCSA_HAVE_AVX512_RNG
  if (planeops::active_backend() == planeops::Backend::kAvx512) {
    return {twist_avx512, temper_avx512, zig_accept_avx512};
  }
#endif
#if VLCSA_HAVE_AVX2_RNG
  if (planeops::active_backend() == planeops::Backend::kAvx2) {
    return {twist_avx2, temper_avx2, zig_accept_scalar};
  }
#endif
  return {twist_scalar, temper_scalar, zig_accept_scalar};
}

}  // namespace

void BlockRng::seed(result_type value) {
  state_[0] = value;
  for (std::size_t i = 1; i < kStateWords; ++i) {
    state_[i] = kSeedF * (state_[i - 1] ^ (state_[i - 1] >> 62)) + i;
  }
  index_ = kStateWords;
  twists_ = 0;
}

void BlockRng::refill() {
  const RngKernels k = active_kernels();
  k.twist(state_);
  k.temper(state_, out_);
  index_ = 0;
  ++twists_;
}

void BlockRng::generate_block(std::uint64_t* dst, std::size_t n) {
  std::size_t produced = 0;
  // Drain whatever the per-call path left buffered, preserving draw order.
  if (index_ < kStateWords) {
    const std::size_t take = std::min(kStateWords - index_, n);
    std::copy(out_ + index_, out_ + index_ + take, dst);
    index_ += take;
    produced = take;
  }
  const RngKernels k = active_kernels();
  // Full blocks: twist and temper straight into the destination, never
  // touching the out_ buffer.
  while (n - produced >= kStateWords) {
    k.twist(state_);
    k.temper(state_, dst + produced);
    produced += kStateWords;
    ++twists_;
  }
  // Partial trailing block: regenerate out_ and hand out its head, leaving
  // the rest buffered for subsequent draws.
  if (produced < n) {
    k.twist(state_);
    k.temper(state_, out_);
    const std::size_t take = n - produced;
    std::copy(out_, out_ + take, dst + produced);
    index_ = take;
    ++twists_;
  }
}

void BlockRng::discard(unsigned long long z) {
  // Drain what the current block has buffered, then twist (without
  // tempering) any block skipped in full — tempering is a pure per-word
  // map, so dropping it cannot desynchronize the stream.
  const std::size_t buffered = kStateWords - index_;
  if (z <= buffered) {
    index_ += static_cast<std::size_t>(z);
    return;
  }
  z -= buffered;
  const RngKernels k = active_kernels();
  while (z >= kStateWords) {
    k.twist(state_);
    z -= kStateWords;
    ++twists_;
  }
  k.twist(state_);
  k.temper(state_, out_);
  index_ = static_cast<std::size_t>(z);
  ++twists_;
}

// ---- GaussianBlockSampler ---------------------------------------------------
//
// The ziggurat of the scalar backend section above: fill() runs the
// dispatched fast path over the word buffer in bulk and hands each rejected
// word to operator(), which re-reads it and runs the wedge/tail slow path.

namespace {

constexpr double kZigR = 3.6541528853610088;   // base strip boundary
constexpr double kZigV = 4.92867323399e-3;     // per-strip area
constexpr double kZigM = 18014398509481984.0;  // 2^54, the |hz| scale

const ZigguratTables& ziggurat_tables() {
  static const ZigguratTables tables = [] {
    ZigguratTables t{};
    double dn = kZigR;
    double tn = kZigR;
    const double q = kZigV / std::exp(-0.5 * dn * dn);
    t.kn[0] = static_cast<std::uint64_t>((dn / q) * kZigM);
    t.kn[1] = 0;
    t.wn[0] = q / kZigM;
    t.wn[255] = dn / kZigM;
    t.fn[0] = 1.0;
    t.fn[255] = std::exp(-0.5 * dn * dn);
    for (int i = 254; i >= 1; --i) {
      dn = std::sqrt(-2.0 * std::log(kZigV / dn + std::exp(-0.5 * dn * dn)));
      t.kn[i + 1] = static_cast<std::uint64_t>((dn / tn) * kZigM);
      tn = dn;
      t.fn[i] = std::exp(-0.5 * dn * dn);
      t.wn[i] = dn / kZigM;
    }
    return t;
  }();
  return tables;
}

// (0, 1] uniform from a raw word: 53 high bits, offset so log() never sees 0.
inline double u01_from_word(std::uint64_t w) {
  return (static_cast<double>(w >> 11) + 1.0) * 0x1p-53;
}

}  // namespace

double GaussianBlockSampler::operator()(BlockRng& rng) {
  const ZigguratTables& t = ziggurat_tables();
  for (;;) {
    const std::uint64_t w = next_word(rng);
    double x;
    if (zig_fast(w, t, x)) return x;
    const std::size_t iz = w & 0xFF;
    if (iz == 0) {
      // Tail beyond R, Marsaglia's exponential-majorant rejection; the
      // sign is hz's, i.e. w's top bit.
      double tx;
      double ty;
      do {
        tx = -std::log(u01_from_word(next_word(rng))) * (1.0 / kZigR);
        ty = -std::log(u01_from_word(next_word(rng)));
      } while (ty + ty < tx * tx);
      return static_cast<std::int64_t>(w) < 0 ? -(kZigR + tx) : kZigR + tx;
    }
    // Wedge between layer iz and iz-1.
    if (t.fn[iz] + u01_from_word(next_word(rng)) * (t.fn[iz - 1] - t.fn[iz]) <
        std::exp(-0.5 * x * x)) {
      return x;
    }
  }
}

void GaussianBlockSampler::fill(BlockRng& rng, double* dst, std::size_t n) {
  const ZigguratTables& t = ziggurat_tables();
  const auto accept = active_kernels().zig_accept;
  std::size_t i = 0;
  while (i < n) {
    if (pos_ == kBufferWords) refill(rng);
    const std::size_t m = std::min(n - i, kBufferWords - pos_);
    const std::size_t taken = accept(buffer_ + pos_, m, t, dst + i);
    pos_ += taken;
    i += taken;
    // buffer_[pos_] failed the layer test: operator() re-reads it and takes
    // the slow path, then the bulk walk resumes after whatever it consumed.
    if (taken < m) dst[i++] = (*this)(rng);
  }
}

void GaussianBlockSampler::refill(BlockRng& rng) {
  rng.generate_block(buffer_, kBufferWords);
  pos_ = 0;
}

BlockRng make_stream_rng(std::uint64_t seed, std::uint64_t stream) {
  // Identical construction to the engine's historical make_shard_rng: all
  // 128 bits of (seed, stream) feed the seed_seq, so distinct streams and
  // distinct seeds never collide.
  std::seed_seq sequence{
      static_cast<std::uint32_t>(seed), static_cast<std::uint32_t>(seed >> 32),
      static_cast<std::uint32_t>(stream), static_cast<std::uint32_t>(stream >> 32)};
  return BlockRng(sequence);
}

}  // namespace vlcsa::arith
