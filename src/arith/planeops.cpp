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

// next()'s encode of one operand of a 64-sample group: rows[j] = sample j
// of operand `op` (0 = a, 1 = b) from variates a0 b0 a1 b1 ..., masked to
// the width.
void encode_scalar(const GaussianEncode& e, const double* variates, int op,
                   std::uint64_t rows[kGroupLanes]) {
  const std::uint64_t top_mask = width_mask(e.width);
  for (int j = 0; j < kGroupLanes; ++j) {
    const double x = e.mean + e.sigma * variates[2 * j + op];
    const std::uint64_t word = e.twos
                                   ? static_cast<std::uint64_t>(signed_sample_to_i64(e.width, x))
                                   : unsigned_sample_to_u64(e.width, x);
    rows[j] = word & top_mask;
  }
}

/// Plane rows the Gaussian fill writes: limb 0's, capped at the width.
inline std::size_t limb0_rows(int width) {
  return static_cast<std::size_t>(width < kGroupLanes ? width : kGroupLanes);
}

// ---- streaming kernels, one body for every width ---------------------------
//
// The carry-chain sweeps, twist, temper and the 64x64 transpose are plain
// bitwise/shift chains, so each is written once over a word type V — a GCC
// vector type of W words for the AVX2 (W = 4) and AVX-512 (W = 8) rows
// below, whose target attributes decide the registers (GCC fuses the
// and/or/xor chains into vpternlogq on its own), and std::uint64_t for the
// sweeps' scalar rows (SCSA's sweeps U64x2 chunks first) and for
// transpose_64x64, which runs on every backend.
// Vectors move through memcpy and references only: a by-value vector
// parameter or return would change the ABI per target (-Wpsabi).  All
// loads/stores are unaligned-safe.

typedef std::uint64_t U64x2 __attribute__((vector_size(16)));
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

/// Column mask of the transpose level with row distance j: the columns
/// whose bit j is clear (32 -> low halves, ..., 1 -> 0x5555...).
constexpr std::uint64_t transpose_mask(unsigned j) {
  std::uint64_t m = 0x00000000FFFFFFFFULL;
  for (unsigned k = 32; k != j; k >>= 1) m ^= m << (k >> 1);
  return m;
}

// The 64x64 transpose's level with row distance J between two registers
// of rows: lane k of `lo` is row i, lane k of `hi` row i + J, for a row i
// with bit J clear.  The pair swaps lo's high columns (mask m << J) with
// hi's low columns (mask m).  Levels 32, 16, ..., 1 make the transpose
// (Hacker's Delight 7-3's recursive block swap).
template <class V, unsigned J>
[[gnu::always_inline]] inline void transpose_pair(V& lo, V& hi) {
  constexpr std::uint64_t m = transpose_mask(J);
  const V new_lo = lo ^ ((lo ^ (hi << J)) & (m << J));
  hi ^= (hi ^ (lo >> J)) & m;
  lo = new_lo;
}

// Levels J = kTop, kTop / 2, ..., kLast over kCount registers that hold
// kRows consecutive rows each (row distance J = register distance
// J / kRows).  Fully unrolled up to transpose_64x64's 64 registers, so the
// pair test is resolved at compile time and no level branches.
template <class V, std::size_t kCount, std::size_t kRows, unsigned kTop, unsigned kLast>
[[gnu::always_inline]] inline void transpose_levels(V* r) {
  constexpr std::size_t d = kTop / kRows;
#pragma GCC unroll 64
  for (std::size_t q = 0; q < kCount; ++q) {
    if ((q & d) == 0) transpose_pair<V, kTop>(r[q], r[q + d]);
  }
  if constexpr (kTop > kLast) transpose_levels<V, kCount, kRows, kTop / 2, kLast>(r);
}

// The W x W word transpose of x[0, W), level by level (word distance D):
// afterwards lane g of x[k] holds what lane k of x[g] held.
template <class V, std::size_t D>
[[gnu::always_inline]] inline void transpose_words(V* x) {
  constexpr std::size_t w = kWords<V>;
  V lo_pick, hi_pick;
  for (std::size_t k = 0; k < w; ++k) {
    lo_pick[k] = (k & D) != 0 ? w + k - D : k;
    hi_pick[k] = (k & D) != 0 ? w + k : k + D;
  }
#pragma GCC unroll 8
  for (std::size_t i = 0; i < w; ++i) {
    if ((i & D) != 0) continue;
    const V lo = x[i];
    const V hi = x[i + D];
    x[i] = __builtin_shuffle(lo, hi, lo_pick);
    x[i + D] = __builtin_shuffle(lo, hi, hi_pick);
  }
  if constexpr (D > 1) transpose_words<V, D / 2>(x);
}

// The Gaussian fill in W-column chunks (W = kWords<V>, lane words
// [col, col + W) per chunk).  Stage 1: each group's operand rows, encoded
// straight into R = 64 / W registers (register q = rows qW .. qW + W-1),
// take the transpose levels 32 .. W, which pair whole registers.  Stage 2:
// register q of the chunk's W groups goes through a W x W word transpose,
// so that register k holds row qW + k of every group, and the levels
// below W pair registers again; each register is then W words of one plane
// row, stored once.  kEncode(e, group_variates, op, r) writes the R
// registers of one operand.
template <class V, auto kEncode>
[[gnu::always_inline]] inline std::size_t gauss_chunks(const GaussianEncode& e,
                                                       const double* variates, std::size_t lw,
                                                       std::uint64_t* const planes[2],
                                                       std::size_t col) {
  constexpr std::size_t w = kWords<V>;
  constexpr std::size_t regs = kGroupLanes / w;
  static_assert(w >= 2, "one column at a time is gauss_planes_scalar");
  const std::size_t top = limb0_rows(e.width);
  for (; col + w <= lw; col += w) {
    V stage[2][w][regs];  // [op][group][register] after stage 1
    for (std::size_t g = 0; g < w; ++g) {
      for (int op = 0; op < 2; ++op) {
        V* r = stage[op][g];
        kEncode(e, variates + (col + g) * 2 * kGroupLanes, op, r);
        transpose_levels<V, regs, w, 32, w>(r);
      }
    }
    for (int op = 0; op < 2; ++op) {
      for (std::size_t q = 0; q * w < top; ++q) {
        V row[w];
        for (std::size_t g = 0; g < w; ++g) row[g] = stage[op][g][q];
        transpose_words<V, w / 2>(row);
        transpose_levels<V, w, 1, w / 2, 1>(row);
        for (std::size_t k = 0; k < w && q * w + k < top; ++k) {
          store(planes[op] + (q * w + k) * lw + col, row[k]);
        }
      }
    }
  }
  return col;
}

// The Gaussian fill rows take the two operands' plane arrays and the first
// lane word to fill (0 from the entry point), like the sweep rows.
[[gnu::noinline]] void gauss_planes_scalar(const GaussianEncode& e, const double* variates,
                                           std::size_t lw, std::uint64_t* const planes[2],
                                           std::size_t col) {
  const std::size_t top = limb0_rows(e.width);
  std::uint64_t block[kGroupLanes];
  for (; col < lw; ++col) {
    for (int op = 0; op < 2; ++op) {
      encode_scalar(e, variates + col * 2 * kGroupLanes, op, block);
      transpose_64x64(block);
#pragma GCC unroll 8
      for (std::size_t bit = 0; bit < top; ++bit) planes[op][bit * lw + col] = block[bit];
    }
  }
}

// The sweep rows take the first column to sweep (0 from the entry points).
// The scalar row sweeps two columns at a time in the baseline ISA's
// 128-bit vectors (SSE2 on x86-64, NEON on aarch64), then a last odd one.
[[gnu::noinline]] void scsa_sweep_scalar(const std::uint64_t* a, const std::uint64_t* b,
                                         std::size_t lw, const int* sizes, int m,
                                         const ScsaLaneMasks& out, std::size_t col) {
  col = scsa_chunks<U64x2>(a, b, lw, sizes, m, out, col);
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

// next()'s scalar encode into the registers' storage: without avx512dq
// there is no int64 <-> double conversion to vectorize it with.
template <class V>
[[gnu::always_inline]] inline void encode_rows(const GaussianEncode& e, const double* variates,
                                               int op, V* r) {
  std::uint64_t rows[kGroupLanes];
  encode_scalar(e, variates, op, rows);
  std::memcpy(r, rows, sizeof rows);
}

[[gnu::noinline]] VLCSA_AVX2 void gauss_planes_avx2(const GaussianEncode& e,
                                                   const double* variates, std::size_t lw,
                                                   std::uint64_t* const planes[2],
                                                   std::size_t col) {
  col = gauss_chunks<U64x4, encode_rows<U64x4>>(e, variates, lw, planes, col);
  if (col < lw) gauss_planes_scalar(e, variates, lw, planes, col);
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

// One operand of a group, eight samples per step, bit-identical to
// encode_scalar: the operand's lanes picked out of a0 b0 a1 b1 ... by
// permutex2var; mean + sigma * x as a separate multiply and add (the _round
// forms are builtins, so no FMA contraction can fuse them, and the build
// passes -ffp-contract=off so the scalar side never fuses either); min/max
// for the clamp, whose NaN handling matches fmin/fmax on the second operand
// (the bounds are integers, so clamping before the rounding equals
// clamping after it, and |x| rounds like x); and a conversion rounding to
// nearest-even for nearbyint (out-of-range samples are undefined in the
// scalar oracle too).  Each step's eight rows go straight into the
// registers gauss_chunks transposes.
template <class V>
VLCSA_AVX512 inline void encode_avx512(const GaussianEncode& e, const double* variates, int op,
                                       V* r) {
  constexpr int kRound = _MM_FROUND_CUR_DIRECTION;
  constexpr int kNearest = _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC;
  const __m512i pick = op == 0 ? _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14)
                               : _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15);
  const __m512d mean = _mm512_set1_pd(e.mean);
  const __m512d sigma = _mm512_set1_pd(e.sigma);
  const bool clamp = e.width < 64;  // the bounds and the mask are used only then
  const __m512d lo = _mm512_set1_pd(-std::ldexp(1.0, e.width - 1));
  const __m512d hi = _mm512_set1_pd(std::ldexp(1.0, e.twos ? e.width - 1 : e.width) - 1.0);
  const __m512i top_mask = _mm512_set1_epi64(static_cast<long long>(width_mask(e.width)));
  for (int g = 0; g < kGroupLanes / 8; ++g) {
    const __m512d x = _mm512_permutex2var_pd(_mm512_loadu_pd(variates + 16 * g), pick,
                                             _mm512_loadu_pd(variates + 16 * g + 8));
    __m512d y = _mm512_add_round_pd(mean, _mm512_mul_round_pd(sigma, x, kRound), kRound);
    __m512i word;
    if (e.twos) {
      if (clamp) y = _mm512_min_pd(_mm512_max_pd(y, lo), hi);
      word = _mm512_cvt_roundpd_epi64(y, kNearest);
    } else {
      y = _mm512_abs_pd(y);
      if (clamp) y = _mm512_min_pd(y, hi);
      word = _mm512_cvt_roundpd_epu64(y, kNearest);
    }
    if (clamp) word = _mm512_and_si512(word, top_mask);
    std::memcpy(reinterpret_cast<char*>(r) + sizeof word * g, &word, sizeof word);
  }
}

// Eight-column chunks, then a four-column one with the same encode, then
// one column at a time.
VLCSA_AVX512 void gauss_planes_avx512(const GaussianEncode& e, const double* variates,
                                      std::size_t lw, std::uint64_t* const planes[2],
                                      std::size_t col) {
  col = gauss_chunks<U64x8, encode_avx512<U64x8>>(e, variates, lw, planes, col);
  col = gauss_chunks<U64x4, encode_avx512<U64x4>>(e, variates, lw, planes, col);
  if (col < lw) gauss_planes_scalar(e, variates, lw, planes, col);
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
  void (*twist)(std::uint64_t*);
  void (*temper)(const std::uint64_t*, std::uint64_t*);
  std::size_t (*zig_accept)(const std::uint64_t*, std::size_t, const std::uint64_t*,
                            const double*, double*);
  void (*gauss_planes)(const GaussianEncode&, const double*, std::size_t, std::uint64_t* const*,
                       std::size_t);
};

constexpr Kernels kScalarKernels = {
    Backend::kScalar, scsa_sweep_scalar, vlsa_sweep_scalar, twist_scalar,
    temper_scalar,    zig_accept_scalar, gauss_planes_scalar,
};

#if VLCSA_HAVE_X86_BACKENDS
// The ziggurat fast path needs avx512dq; the AVX2 row runs its scalar body
// (and the Gaussian fill the scalar encode).
constexpr Kernels kAvx2Kernels = {
    Backend::kAvx2, scsa_sweep_avx2,   vlsa_sweep_avx2, twist_avx2,
    temper_avx2,    zig_accept_scalar, gauss_planes_avx2,
};

constexpr Kernels kAvx512Kernels = {
    Backend::kAvx512, scsa_sweep_avx512, vlsa_sweep_avx512, twist_avx512,
    temper_avx512,    zig_accept_avx512, gauss_planes_avx512,
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

void transpose_64x64(std::uint64_t block[64]) {
  transpose_levels<std::uint64_t, 64, 1, 32, 1>(block);
}

std::uint64_t chain_histogram(const std::uint64_t* a, const std::uint64_t* b, int n,
                              int lane_words, std::uint64_t valid, bool longest,
                              std::uint64_t* runs, std::uint64_t* counts) {
  assert(n >= 1 && lane_words >= 1);
  const std::size_t stride = static_cast<std::size_t>(lane_words);
  const std::size_t rows = static_cast<std::size_t>(n);
  std::uint64_t added = 0;
  // Lanes are independent, so each lane word runs its own AND to zero.
  // Live lanes are a prefix: every word past the one `valid` ends in is dead.
  for (std::size_t w = 0; w < stride && valid > w * 64; ++w) {
    const std::uint64_t live =
        valid - w * 64 >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << (valid - w * 64)) - 1;
    // level(len) = chains (or lanes) of length >= len; runs[i] holds the
    // lanes whose chain from bit i reaches len, for i + len <= n.
    std::uint64_t chains = 0;
    std::uint64_t reach = 0;
    for (std::size_t i = 0; i < rows; ++i) {
      runs[i] = a[i * stride + w] & b[i * stride + w] & live;
      chains += static_cast<std::uint64_t>(std::popcount(runs[i]));
      reach |= runs[i];
    }
    std::uint64_t level = longest ? static_cast<std::uint64_t>(std::popcount(reach)) : chains;
    if (longest) {
      const auto lanes = static_cast<std::uint64_t>(std::popcount(live));
      counts[0] += lanes - level;
      added += lanes;
    } else {
      added += level;
    }
    for (std::size_t len = 1; level != 0; ++len) {
      chains = 0;
      reach = 0;
      for (std::size_t i = 0; i + len < rows; ++i) {
        const std::size_t top = (i + len) * stride + w;
        runs[i] &= a[top] ^ b[top];
        chains += static_cast<std::uint64_t>(std::popcount(runs[i]));
        reach |= runs[i];
      }
      const std::uint64_t next =
          longest ? static_cast<std::uint64_t>(std::popcount(reach)) : chains;
      counts[len] += level - next;
      level = next;
    }
  }
  return added;
}

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

void gaussian_to_planes(const GaussianEncode& e, const double* variates, int lane_words,
                        std::uint64_t* a, std::uint64_t* b) {
  assert(lane_words >= 1);
  std::uint64_t* const planes[2] = {a, b};
  active().gauss_planes(e, variates, static_cast<std::size_t>(lane_words), planes, 0);
}

}  // namespace vlcsa::arith::planeops
