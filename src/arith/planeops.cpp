#include "arith/planeops.hpp"

#include <atomic>
#include <bit>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>

// The one toolchain gate for the x86 backends: gcc/clang on x86-64 carry the
// AVX2 and AVX-512 bodies through per-function target attributes, so a
// stock (non -march=native) build still dispatches to them at runtime.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define VLCSA_HAVE_X86_BACKENDS 1
#include <immintrin.h>
#endif

namespace vlcsa::arith::planeops {

namespace {

inline bool aligned64(const void* p) {
  return (reinterpret_cast<std::uintptr_t>(p) % kPlaneAlignment) == 0;
}

// MT19937-64 constants ([rand.eng.mers] mersenne_twister_engine<uint64, 64,
// 312, 156, 31, A, 29, D, 17, B, 37, C, 43, F>).
constexpr std::size_t kN = kMtStateWords;  // 312
constexpr std::size_t kM = 156;
constexpr std::uint64_t kMatrixA = 0xB5026F5AA96619E9ULL;
constexpr std::uint64_t kLowerMask = 0x7FFFFFFFULL;        // low r = 31 bits
constexpr std::uint64_t kUpperMask = ~kLowerMask;          // high w - r bits
constexpr std::uint64_t kTemperD = 0x5555555555555555ULL;  // u = 29
constexpr std::uint64_t kTemperB = 0x71D67FFFEDA60000ULL;  // s = 17
constexpr std::uint64_t kTemperC = 0xFFF7EEE000000000ULL;  // t = 37

/// Samples per Gaussian encode group (one transpose block).
constexpr int kGroupLanes = 64;

inline std::uint64_t width_mask(int width) {
  return width >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << width) - 1);
}

// ---- scalar backend (the oracle every other backend is pinned to) ----------

void transpose_scalar(std::uint64_t block[64]) {
  // Recursive block swap (Hacker's Delight 7-3 style, oriented for a true
  // main-diagonal transpose): at each level, swap the high-column half of
  // the upper row group with the low-column half of the lower row group,
  // for sub-block sizes 32, 16, ..., 1.
  std::uint64_t m = 0x00000000FFFFFFFFULL;
  for (int j = 32; j != 0; j >>= 1, m ^= m << j) {
    for (int k = 0; k < 64; k = (k + j + 1) & ~j) {
      const std::uint64_t t = ((block[k] >> j) ^ block[k | j]) & m;
      block[k] ^= t << j;
      block[k | j] ^= t;
    }
  }
}

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

std::size_t zig_accept_scalar(const std::uint64_t* words, std::size_t m,
                              const std::uint64_t* kn, const double* wn, double* dst) {
  for (std::size_t i = 0; i < m; ++i) {
    double x;
    if (!zig_fast(words[i], kn, wn, x)) return i;
    dst[i] = x;
  }
  return m;
}

void encode_scalar(const GaussianEncode& e, const double* variates, std::uint64_t* rows,
                   std::uint64_t sign[2]) {
  const std::uint64_t top_mask = width_mask(e.width);
  std::uint64_t negative_a = 0;
  std::uint64_t negative_b = 0;
  for (int j = 0; j < kGroupLanes; ++j) {
    const double a = e.mean + e.sigma * variates[2 * j];
    const double b = e.mean + e.sigma * variates[2 * j + 1];
    if (e.twos) {
      const std::int64_t av = signed_sample_to_i64(e.width, a);
      const std::int64_t bv = signed_sample_to_i64(e.width, b);
      negative_a |= static_cast<std::uint64_t>(av < 0) << j;
      negative_b |= static_cast<std::uint64_t>(bv < 0) << j;
      rows[j] = static_cast<std::uint64_t>(av) & top_mask;
      rows[kGroupLanes + j] = static_cast<std::uint64_t>(bv) & top_mask;
    } else {
      rows[j] = unsigned_sample_to_u64(e.width, a) & top_mask;
      rows[kGroupLanes + j] = unsigned_sample_to_u64(e.width, b) & top_mask;
    }
  }
  sign[0] = negative_a;
  sign[1] = negative_b;
}

// ---- streaming kernels, one body for every width ---------------------------
//
// The carry-chain sweeps, twist and temper are plain bitwise/shift chains,
// so each is written once over a word type V — a GCC vector type of W words
// for the AVX2 (W = 4) and AVX-512 (W = 8) rows below, whose target
// attributes decide the registers (GCC fuses the and/or/xor chains into
// vpternlogq on its own), and std::uint64_t for the sweeps' scalar row.
// Vectors move through memcpy and references only: a by-value vector
// parameter or return would change the ABI per target (-Wpsabi).  All
// loads/stores are unaligned-safe.

typedef std::uint64_t U64x4 __attribute__((vector_size(32)));
typedef std::uint64_t U64x8 __attribute__((vector_size(64)));

template <class V>
constexpr std::size_t kWords = sizeof(V) / sizeof(std::uint64_t);

template <class V>
[[gnu::always_inline]] inline void load(V& v, const std::uint64_t* p) {
  std::memcpy(&v, p, sizeof v);
}

template <class V>
[[gnu::always_inline]] inline void store(std::uint64_t* p, const V& v) {
  std::memcpy(p, &v, sizeof v);
}

// The carry-chain sweeps run column chunks: lane words [col, col + W) of
// every plane, bottom bit first, with the whole sweep state in V registers
// (each chunk loads every plane word of its columns once).  Each *_chunks
// function sweeps every whole W-wide chunk from `col` on and returns where
// it stopped; a backend row runs its own width and hands the columns left
// over to the next narrower row (avx512 -> avx2 -> scalar), so any
// lane_words is covered and each chunk width is compiled once.

// SCSA (scsa_window_sweep's equations): per window, G/P from the per-bit
// generate/propagate on the fly, then the select checks against the exact
// carry threaded through the window chain — nine live signals.
template <class V>
[[gnu::always_inline]] inline std::size_t scsa_chunks(const std::uint64_t* a,
                                                      const std::uint64_t* b, std::size_t lw,
                                                      const int* sizes, int m,
                                                      const ScsaLaneMasks& out,
                                                      std::size_t col) {
  for (; col + kWords<V> <= lw; col += kWords<V>) {
    V carry{}, prev_g{}, prev_p{}, spec0{}, spec1{}, err0{}, err1{};
    const std::uint64_t* pa = a + col;
    const std::uint64_t* pb = b + col;
    for (int i = 0; i < m; ++i) {
      V g{}, p = ~V{};
      for (int bit = 0; bit < sizes[i]; ++bit, pa += lw, pb += lw) {
        V va, vb;
        load(va, pa);
        load(vb, pb);
        g = (va & vb) | ((va ^ vb) & g);
        p &= va ^ vb;
      }
      if (i > 0) {
        const V sel1 = i == 1 ? prev_g : V(prev_g | prev_p);
        spec0 |= prev_g ^ carry;
        spec1 |= sel1 ^ carry;
        err0 |= prev_g & p;
        if (i > 1) err1 |= prev_p & ~p;
      }
      carry = g | (p & carry);
      prev_g = g;
      prev_p = p;
    }
    store(out.spec0_wrong + col, spec0);
    store(out.spec1_wrong + col, spec1);
    store(out.err0 + col, err0);
    store(out.err1 + col, err1);
  }
  return col;
}

// VLSA (vlsa_run_sweep's state machine) with a kBits-plane run counter,
// kBits = bit_width(chain); count[k] is plane k, and the increment's carry
// out of the top plane (the counter was all ones) is what saturates it.
template <class V, int kBits>
[[gnu::always_inline]] inline std::size_t vlsa_chunks(const std::uint64_t* a,
                                                      const std::uint64_t* b, int n,
                                                      std::size_t lw, int chain,
                                                      std::uint64_t* spec_wrong,
                                                      std::uint64_t* err, std::size_t col) {
  // reached = AND over planes of (count[k] ^ differs[k]): all ones iff
  // count == chain.
  std::uint64_t differs[kBits];
  for (int k = 0; k < kBits; ++k) differs[k] = ((chain >> k) & 1) != 0 ? 0 : ~std::uint64_t{0};
  for (; col + kWords<V> <= lw; col += kWords<V>) {
    V count[kBits] = {};
    V c{}, wrong{}, any{};
    const std::uint64_t* pa = a + col;
    const std::uint64_t* pb = b + col;
    for (int j = 0; j < n; ++j, pa += lw, pb += lw) {
      V va, vb;
      load(va, pa);
      load(vb, pb);
      const V p = va ^ vb;
      c = (va & vb) | (p & c);
      V inc = ~V{};
#pragma GCC unroll 16
      for (int k = 0; k < kBits; ++k) {
        const V old = count[k];
        count[k] = old ^ inc;
        inc &= old;
      }
      V reached = ~V{};
#pragma GCC unroll 16
      for (int k = 0; k < kBits; ++k) {
        count[k] = (count[k] | inc) & p;
        reached &= count[k] ^ differs[k];
      }
      any |= reached;
      wrong |= reached & c;
    }
    store(spec_wrong + col, wrong);
    store(err + col, any);
  }
  return col;
}

/// Most counter planes vlsa_run_sweep needs: bit_width(kMaxRunChain).
constexpr int kMaxRunBits = std::bit_width(static_cast<unsigned>(kMaxRunChain));

// vlsa_chunks with kBits = bit_width(chain), found by walking up from 1.
template <class V, int kBits = 1>
[[gnu::always_inline]] inline std::size_t vlsa_chunks_for(const std::uint64_t* a,
                                                          const std::uint64_t* b, int n,
                                                          std::size_t lw, int chain,
                                                          std::uint64_t* spec_wrong,
                                                          std::uint64_t* err, std::size_t col) {
  if constexpr (kBits < kMaxRunBits) {
    if ((chain >> kBits) != 0) {
      return vlsa_chunks_for<V, kBits + 1>(a, b, n, lw, chain, spec_wrong, err, col);
    }
  }
  return vlsa_chunks<V, kBits>(a, b, n, lw, chain, spec_wrong, err, col);
}

// mt[i] = mt[feed] ^ twist(mt[i], mt[i + 1]) for W consecutive i, loading
// mt[i .. i + W] and the feed words before storing.
template <class V>
[[gnu::always_inline]] inline void twist_chunk(std::uint64_t* mt, std::size_t i,
                                               std::size_t feed) {
  V hi, lo, f;
  load(hi, mt + i);
  load(lo, mt + i + 1);
  load(f, mt + feed);
  const V y = (hi & kUpperMask) | (lo & kLowerMask);
  // (y & 1) ? A : 0 without a compare: 0 - (y & 1) is all-ones or zero.
  const V odd = V{} - (y & 1);
  store(mt + i, V(f ^ (y >> 1) ^ (odd & kMatrixA)));
}

// The twist recurrence x[i] = x[i+m] ^ f(x[i], x[i+1]) only feeds back at
// distances m = 156 and 1 (through the *old* value of x[i+1]), so W-word
// chunks that load both operand vectors before storing never observe a
// value the chunk itself wrote: every read sees the pre-chunk value.
template <class V>
[[gnu::always_inline]] inline void twist_body(std::uint64_t* mt) {
  constexpr std::size_t w = kWords<V>;
  // First stretch: i in [0, n-m) reads old mt[i..i+1] and old mt[i+m].
  // 156 words: no tail at W = 4, a 4-word tail at W = 8 (the guard keeps
  // GCC from warning about the empty W = 4 loop).
  std::size_t i = 0;
  for (; i + w <= kN - kM; i += w) twist_chunk<V>(mt, i, i + kM);
  if constexpr ((kN - kM) % w != 0) {
    for (; i < kN - kM; ++i) mt[i] = mt[i + kM] ^ twist_word(mt[i], mt[i + 1]);
  }
  // Second stretch: i in [n-m, n-1) feeds back the *new* mt[i+m-n] (written
  // 156 slots earlier) while still reading old mt[i..i+1].  155 words ->
  // a 3-word tail at both widths.
  for (; i + w <= kN - 1; i += w) twist_chunk<V>(mt, i, i + kM - kN);
  for (; i < kN - 1; ++i) mt[i] = mt[i + kM - kN] ^ twist_word(mt[i], mt[i + 1]);
  mt[kN - 1] = mt[kM - 1] ^ twist_word(mt[kN - 1], mt[0]);
}

template <class V>
[[gnu::always_inline]] inline void temper_body(const std::uint64_t* mt, std::uint64_t* dst) {
  static_assert(kN % kWords<V> == 0);
  for (std::size_t i = 0; i < kN; i += kWords<V>) {
    V z;
    load(z, mt + i);
    z ^= (z >> 29) & kTemperD;
    z ^= (z << 17) & kTemperB;
    z ^= (z << 37) & kTemperC;
    z ^= z >> 43;
    store(dst + i, z);
  }
}

// The sweep rows take the first column to sweep (0 from the entry points).
[[gnu::noinline]] void scsa_sweep_scalar(const std::uint64_t* a, const std::uint64_t* b,
                                         std::size_t lw, const int* sizes, int m,
                                         const ScsaLaneMasks& out, std::size_t col) {
  scsa_chunks<std::uint64_t>(a, b, lw, sizes, m, out, col);
}
[[gnu::noinline]] void vlsa_sweep_scalar(const std::uint64_t* a, const std::uint64_t* b, int n,
                                         std::size_t lw, int chain, std::uint64_t* spec_wrong,
                                         std::uint64_t* err, std::size_t col) {
  vlsa_chunks_for<std::uint64_t>(a, b, n, lw, chain, spec_wrong, err, col);
}

#if VLCSA_HAVE_X86_BACKENDS

// ---- AVX2 backend ----------------------------------------------------------

#define VLCSA_AVX2 __attribute__((target("avx2")))

[[gnu::noinline]] VLCSA_AVX2 void scsa_sweep_avx2(const std::uint64_t* a, const std::uint64_t* b,
                                                 std::size_t lw, const int* sizes, int m,
                                                 const ScsaLaneMasks& out, std::size_t col) {
  col = scsa_chunks<U64x4>(a, b, lw, sizes, m, out, col);
  if (col < lw) scsa_sweep_scalar(a, b, lw, sizes, m, out, col);
}
[[gnu::noinline]] VLCSA_AVX2 void vlsa_sweep_avx2(const std::uint64_t* a, const std::uint64_t* b,
                                                 int n, std::size_t lw, int chain,
                                                 std::uint64_t* spec_wrong, std::uint64_t* err,
                                                 std::size_t col) {
  col = vlsa_chunks_for<U64x4>(a, b, n, lw, chain, spec_wrong, err, col);
  if (col < lw) vlsa_sweep_scalar(a, b, n, lw, chain, spec_wrong, err, col);
}
VLCSA_AVX2 void twist_avx2(std::uint64_t* mt) { twist_body<U64x4>(mt); }
VLCSA_AVX2 void temper_avx2(const std::uint64_t* mt, std::uint64_t* dst) {
  temper_body<U64x4>(mt, dst);
}

// Same recursive block swap as the scalar transpose; sub-block sizes >= 4
// handle four rows per vector op (runs of consecutive k with bit j clear have
// length j, a multiple of 4 there), sizes 2 and 1 finish scalar.
VLCSA_AVX2 void transpose_avx2(std::uint64_t block[64]) {
  std::uint64_t m = 0x00000000FFFFFFFFULL;
  int j = 32;
  for (; j >= 4; m ^= m << (j >>= 1)) {
    const __m256i vm = _mm256_set1_epi64x(static_cast<long long>(m));
    for (int base = 0; base < 64; base += 2 * j) {
      for (int k = base; k < base + j; k += 4) {
        const __m256i lo = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(block + k));
        const __m256i hi =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(block + k + j));
        const __m256i t =
            _mm256_and_si256(_mm256_xor_si256(_mm256_srli_epi64(lo, j), hi), vm);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(block + k),
                            _mm256_xor_si256(lo, _mm256_slli_epi64(t, j)));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(block + k + j),
                            _mm256_xor_si256(hi, t));
      }
    }
  }
  for (; j != 0; j >>= 1, m ^= m << j) {
    for (int k = 0; k < 64; k = (k + j + 1) & ~j) {
      const std::uint64_t t = ((block[k] >> j) ^ block[k | j]) & m;
      block[k] ^= t << j;
      block[k | j] ^= t;
    }
  }
}

#undef VLCSA_AVX2

// ---- AVX-512 backend -------------------------------------------------------
//
// Twice the AVX2 width: 8 words per vector.  The backend requires
// avx512f + avx512bw + avx512dq; the dq int64 <-> double conversions are
// used by zig_accept and the Gaussian encode, so every row of this table
// carries the full target list.

// GCC's avx512fintrin.h expands the unmasked intrinsics through their masked
// forms with an undefined pass-through operand, which -Wmaybe-uninitialized
// flags at every inline site (GCC bug 105593).  The operand is dead under a
// full mask, so silence the false positive for this section only.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

#define VLCSA_AVX512 __attribute__((target("avx512f,avx512bw,avx512dq")))

VLCSA_AVX512 void scsa_sweep_avx512(const std::uint64_t* a, const std::uint64_t* b,
                                    std::size_t lw, const int* sizes, int m,
                                    const ScsaLaneMasks& out, std::size_t col) {
  col = scsa_chunks<U64x8>(a, b, lw, sizes, m, out, col);
  if (col < lw) scsa_sweep_avx2(a, b, lw, sizes, m, out, col);
}
VLCSA_AVX512 void vlsa_sweep_avx512(const std::uint64_t* a, const std::uint64_t* b, int n,
                                    std::size_t lw, int chain, std::uint64_t* spec_wrong,
                                    std::uint64_t* err, std::size_t col) {
  col = vlsa_chunks_for<U64x8>(a, b, n, lw, chain, spec_wrong, err, col);
  if (col < lw) vlsa_sweep_avx2(a, b, n, lw, chain, spec_wrong, err, col);
}
VLCSA_AVX512 void twist_avx512(std::uint64_t* mt) { twist_body<U64x8>(mt); }
VLCSA_AVX512 void temper_avx512(const std::uint64_t* mt, std::uint64_t* dst) {
  temper_body<U64x8>(mt, dst);
}

// Same recursive block swap as the scalar transpose, with the whole block
// held in eight registers (register r = rows 8r..8r+7).  Each level moves
// the partner row's bits in with one bitwise select: for a row pair
// (lo, hi) at distance j with column mask m, lo keeps its bits outside
// m << j and takes (hi << j) inside it, hi keeps its bits outside m and
// takes (lo >> j) inside it.  Levels 32/16/8 pair whole registers; levels
// 4/2/1 pair lanes of one register, the partner rows brought alongside by
// a permutexvar and the shift direction and select mask chosen per lane
// (lanes with bit j clear hold the lo rows).

/// Column mask of the transpose level with row distance j (32 -> low
/// halves, ..., 1 -> 0x5555...), as the scalar loop derives it.
constexpr std::uint64_t transpose_mask(unsigned j) {
  std::uint64_t m = 0x00000000FFFFFFFFULL;
  for (unsigned k = 32; k != j; k >>= 1) m ^= m << (k >> 1);
  return m;
}

// vpternlog 0xCA = a ? b : c, bitwise.
constexpr int kSelectBits = 0xCA;

template <unsigned J>  // J = 32, 16, 8: register i pairs with i + J / 8
VLCSA_AVX512 inline void transpose_level_regs(__m512i (&r)[8]) {
  constexpr std::uint64_t m = transpose_mask(J);
  constexpr int d = J / 8;
  const __m512i lo_sel = _mm512_set1_epi64(static_cast<long long>(m << J));
  const __m512i hi_sel = _mm512_set1_epi64(static_cast<long long>(m));
#pragma GCC unroll 8
  for (int i = 0; i < 8; ++i) {
    if ((i & d) != 0) continue;
    const __m512i lo = r[i];
    const __m512i hi = r[i + d];
    r[i] = _mm512_ternarylogic_epi64(lo_sel, _mm512_slli_epi64(hi, J), lo, kSelectBits);
    r[i + d] = _mm512_ternarylogic_epi64(hi_sel, _mm512_srli_epi64(lo, J), hi, kSelectBits);
  }
}

template <unsigned J>  // J = 4, 2, 1: lane k pairs with lane k ^ J
VLCSA_AVX512 inline void transpose_level_lanes(__m512i (&r)[8]) {
  constexpr std::uint64_t m = transpose_mask(J);
  constexpr long long j = J;
  constexpr __mmask8 hi_lanes = J == 4 ? 0xF0 : J == 2 ? 0xCC : 0xAA;
  const __m512i partner =
      _mm512_setr_epi64(0 ^ j, 1 ^ j, 2 ^ j, 3 ^ j, 4 ^ j, 5 ^ j, 6 ^ j, 7 ^ j);
  const __m512i sel =
      _mm512_mask_blend_epi64(hi_lanes, _mm512_set1_epi64(static_cast<long long>(m << J)),
                              _mm512_set1_epi64(static_cast<long long>(m)));
#pragma GCC unroll 8
  for (int i = 0; i < 8; ++i) {
    const __m512i other = _mm512_permutexvar_epi64(partner, r[i]);
    const __m512i moved =
        _mm512_mask_srli_epi64(_mm512_slli_epi64(other, J), hi_lanes, other, J);
    r[i] = _mm512_ternarylogic_epi64(sel, moved, r[i], kSelectBits);
  }
}

VLCSA_AVX512 void transpose_avx512(std::uint64_t block[64]) {
  __m512i r[8];
  for (int i = 0; i < 8; ++i) r[i] = _mm512_loadu_si512(block + 8 * i);
  transpose_level_regs<32>(r);
  transpose_level_regs<16>(r);
  transpose_level_regs<8>(r);
  transpose_level_lanes<4>(r);
  transpose_level_lanes<2>(r);
  transpose_level_lanes<1>(r);
  for (int i = 0; i < 8; ++i) _mm512_storeu_si512(block + 8 * i, r[i]);
}

// Eight words per step: the same integer layer test and multiply as
// zig_fast (cvtepi64_pd and the scalar int64 -> double cast both round in
// the current rounding mode), with kn/wn gathered per lane.  A chunk
// holding a rejected word stores only the lanes below it.
VLCSA_AVX512 std::size_t zig_accept_avx512(const std::uint64_t* words, std::size_t m,
                                           const std::uint64_t* kn, const double* wn,
                                           double* dst) {
  const __m512i layer_bits = _mm512_set1_epi64(0xFF);
  std::size_t i = 0;
  for (; i + 8 <= m; i += 8) {
    const __m512i w = _mm512_loadu_si512(words + i);
    const __m512i iz = _mm512_and_si512(w, layer_bits);
    const __m512i hz = _mm512_srai_epi64(w, 9);
    const __mmask8 accept =
        _mm512_cmplt_epu64_mask(_mm512_abs_epi64(hz), _mm512_i64gather_epi64(iz, kn, 8));
    const __m512d x = _mm512_mul_pd(_mm512_cvtepi64_pd(hz), _mm512_i64gather_pd(iz, wn, 8));
    if (accept != 0xFF) {
      const unsigned taken = static_cast<unsigned>(__builtin_ctz(~accept & 0xFFu));
      _mm512_mask_storeu_pd(dst + i, static_cast<__mmask8>((1u << taken) - 1), x);
      return i + taken;
    }
    _mm512_storeu_pd(dst + i, x);
  }
  return i + zig_accept_scalar(words + i, m - i, kn, wn, dst + i);
}

// Eight samples per step, bit-identical to the scalar body: a/b
// deinterleaved by permutex2var; mean + sigma * x as a separate multiply and
// add (the _round forms are builtins, so no FMA contraction can fuse them,
// and the build passes -ffp-contract=off so the scalar side never fuses
// either); roundscale to nearest-even for nearbyint; min/max for the clamp,
// whose NaN handling matches fmin/fmax on the second operand; truncating
// conversions, exact on integral values in range (out-of-range samples are
// undefined in the scalar oracle too); and the sign mask straight from the
// int64 sign bits.
VLCSA_AVX512 void encode_avx512(const GaussianEncode& e, const double* variates,
                                std::uint64_t* rows, std::uint64_t sign[2]) {
  constexpr int kRound = _MM_FROUND_CUR_DIRECTION;
  const __m512i pick[2] = {_mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14),
                           _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15)};
  const __m512d mean = _mm512_set1_pd(e.mean);
  const __m512d sigma = _mm512_set1_pd(e.sigma);
  const bool clamp = e.width < 64;  // the bounds below are used only then
  const __m512d lo = _mm512_set1_pd(-std::ldexp(1.0, e.width - 1));
  const __m512d hi = _mm512_set1_pd(std::ldexp(1.0, e.twos ? e.width - 1 : e.width) - 1.0);
  const __m512i top_mask = _mm512_set1_epi64(static_cast<long long>(width_mask(e.width)));
  sign[0] = sign[1] = 0;
  for (int g = 0; g < kGroupLanes / 8; ++g) {
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
      _mm512_storeu_si512(rows + op * kGroupLanes + 8 * g, _mm512_and_si512(word, top_mask));
    }
  }
}

#undef VLCSA_AVX512

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#endif  // VLCSA_HAVE_X86_BACKENDS

// ---- dispatch --------------------------------------------------------------

struct Kernels {
  Backend backend;
  void (*scsa_sweep)(const std::uint64_t*, const std::uint64_t*, std::size_t, const int*, int,
                     const ScsaLaneMasks&, std::size_t);
  void (*vlsa_sweep)(const std::uint64_t*, const std::uint64_t*, int, std::size_t, int,
                     std::uint64_t*, std::uint64_t*, std::size_t);
  void (*transpose)(std::uint64_t*);
  void (*twist)(std::uint64_t*);
  void (*temper)(const std::uint64_t*, std::uint64_t*);
  std::size_t (*zig_accept)(const std::uint64_t*, std::size_t, const std::uint64_t*,
                            const double*, double*);
  void (*encode)(const GaussianEncode&, const double*, std::uint64_t*, std::uint64_t*);
};

constexpr Kernels kScalarKernels = {
    Backend::kScalar, scsa_sweep_scalar, vlsa_sweep_scalar, transpose_scalar,
    twist_scalar,     temper_scalar,     zig_accept_scalar, encode_scalar,
};

#if VLCSA_HAVE_X86_BACKENDS
// The ziggurat fast path and the encode need avx512dq; the AVX2 row runs
// their scalar bodies.
constexpr Kernels kAvx2Kernels = {
    Backend::kAvx2, scsa_sweep_avx2, vlsa_sweep_avx2,   transpose_avx2,
    twist_avx2,     temper_avx2,     zig_accept_scalar, encode_scalar,
};

constexpr Kernels kAvx512Kernels = {
    Backend::kAvx512, scsa_sweep_avx512, vlsa_sweep_avx512, transpose_avx512,
    twist_avx512,     temper_avx512,     zig_accept_avx512, encode_avx512,
};
#endif

const Kernels* kernels_for(Backend backend) {
  switch (backend) {
    case Backend::kScalar:
      return &kScalarKernels;
    case Backend::kAvx2:
#if VLCSA_HAVE_X86_BACKENDS
      if (__builtin_cpu_supports("avx2")) return &kAvx2Kernels;
#endif
      return nullptr;
    case Backend::kAvx512:
#if VLCSA_HAVE_X86_BACKENDS
      if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw") &&
          __builtin_cpu_supports("avx512dq")) {
        return &kAvx512Kernels;
      }
#endif
      return nullptr;
  }
  return nullptr;
}

const Kernels* best_kernels() {
  if (const Kernels* k = kernels_for(Backend::kAvx512)) return k;
  if (const Kernels* k = kernels_for(Backend::kAvx2)) return k;
  return &kScalarKernels;
}

/// The backend whose to_string name is `name`, or nullopt ("auto" is not a
/// backend; callers handle it first).
std::optional<Backend> parse_backend(std::string_view name) {
  for (const Backend b : {Backend::kScalar, Backend::kAvx2, Backend::kAvx512}) {
    if (name == to_string(b)) return b;
  }
  return std::nullopt;
}

const Kernels* resolve_initial() {
  const char* forced = std::getenv("VLCSA_FORCE_BACKEND");
  if (forced == nullptr || std::string_view(forced) == "auto") return best_kernels();
  const std::optional<Backend> backend = parse_backend(forced);
  if (!backend) {
    std::fprintf(stderr,
                 "vlcsa: VLCSA_FORCE_BACKEND=%s is not scalar/avx2/avx512/auto; "
                 "using auto dispatch\n",
                 forced);
    return best_kernels();
  }
  if (const Kernels* k = kernels_for(*backend)) return k;
  std::fprintf(stderr,
               "vlcsa: VLCSA_FORCE_BACKEND=%s is unsupported on this CPU/build; "
               "falling back to scalar\n",
               forced);
  return &kScalarKernels;
}

// The dispatch table in use; null until first use.  Constant-initialized,
// so a kernel called from another file's static initializer still finds it.
constinit std::atomic<const Kernels*> active_table{nullptr};

// First use: resolves the env override exactly once (a function-local
// static, whatever the static-initialization order).  Out of line and cold,
// so every kernel entry point stays a load, a test and a tail jump — with
// the resolution inlined, GCC saved six registers on every kernel call.
[[gnu::cold, gnu::noinline]] const Kernels& resolve_active() {
  static const bool resolved = [] {
    const Kernels* unset = nullptr;
    active_table.compare_exchange_strong(unset, resolve_initial(),
                                         std::memory_order_relaxed);
    return true;
  }();
  (void)resolved;
  return *active_table.load(std::memory_order_relaxed);
}

inline const Kernels& active() {
  const Kernels* k = active_table.load(std::memory_order_relaxed);
  return k != nullptr ? *k : resolve_active();
}

}  // namespace

const char* to_string(Backend backend) {
  switch (backend) {
    case Backend::kScalar: return "scalar";
    case Backend::kAvx2: return "avx2";
    case Backend::kAvx512: return "avx512";
  }
  return "?";
}

Backend active_backend() { return active().backend; }

bool backend_available(Backend backend) { return kernels_for(backend) != nullptr; }

bool set_backend(Backend backend) {
  const Kernels* k = kernels_for(backend);
  if (k == nullptr) return false;
  (void)active();  // the env override still resolves (and reports) first
  active_table.store(k, std::memory_order_relaxed);
  return true;
}

bool set_backend(std::string_view name) {
  if (name == "auto") {
    (void)active();
    active_table.store(best_kernels(), std::memory_order_relaxed);
    return true;
  }
  const std::optional<Backend> backend = parse_backend(name);
  return backend && set_backend(*backend);
}

void scsa_window_sweep(const std::uint64_t* a, const std::uint64_t* b, int lane_words,
                       const int* window_sizes, int m, const ScsaLaneMasks& masks) {
  assert(lane_words >= 1 && m >= 1);
  // Whole-plane kernel: bases must sit on the PlaneVec alignment contract.
  assert(aligned64(a) && aligned64(b));
  active().scsa_sweep(a, b, static_cast<std::size_t>(lane_words), window_sizes, m, masks, 0);
}

void vlsa_run_sweep(const std::uint64_t* a, const std::uint64_t* b, int n, int lane_words,
                    int chain, std::uint64_t* spec_wrong, std::uint64_t* err) {
  assert(n >= 1 && lane_words >= 1 && chain >= 1 && chain <= n && chain <= kMaxRunChain);
  assert(aligned64(a) && aligned64(b));
  (void)aligned64;
  active().vlsa_sweep(a, b, n, static_cast<std::size_t>(lane_words), chain, spec_wrong, err, 0);
}

void transpose_64x64(std::uint64_t block[64]) { active().transpose(block); }

void mt_twist(std::uint64_t state[kMtStateWords]) { active().twist(state); }

void mt_regenerate(std::uint64_t state[kMtStateWords], std::uint64_t* out, std::size_t blocks) {
  const Kernels& k = active();
  for (std::size_t b = 0; b < blocks; ++b) {
    k.twist(state);
    k.temper(state, out + b * kMtStateWords);
  }
}

std::size_t zig_accept(const std::uint64_t* words, std::size_t m, const std::uint64_t* kn,
                       const double* wn, double* dst) {
  return active().zig_accept(words, m, kn, wn, dst);
}

void encode_gaussian_group(const GaussianEncode& e, const double* variates,
                           std::uint64_t* rows, std::uint64_t sign[2]) {
  active().encode(e, variates, rows, sign);
}

}  // namespace vlcsa::arith::planeops
