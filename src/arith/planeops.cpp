#include "arith/planeops.hpp"

#include <atomic>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define VLCSA_HAVE_AVX2_BACKEND 1
#include <immintrin.h>
#endif

namespace vlcsa::arith::planeops {

namespace {

inline bool aligned64(const void* p) {
  return (reinterpret_cast<std::uintptr_t>(p) % kPlaneAlignment) == 0;
}

// ---- scalar backend (the oracle every other backend is pinned to) ----------

void gp_scalar(const std::uint64_t* a, const std::uint64_t* b, std::uint64_t* g,
               std::uint64_t* p, std::size_t m) {
  for (std::size_t i = 0; i < m; ++i) {
    g[i] = a[i] & b[i];
    p[i] = a[i] ^ b[i];
  }
}

// One doubling round of the prefix: carry'[i] = carry[i] | (pp[i] & carry[i-off]),
// pp'[i] = pp[i] & pp[i-off], all reads pre-round.  Processing the flat array
// top-down with loads before stores realizes exactly that for any off.
void kogge_scalar(const std::uint64_t* g, const std::uint64_t* p, int n, int lane_words,
                  std::uint64_t* carry, std::uint64_t* pp) {
  const std::size_t m = static_cast<std::size_t>(n) * static_cast<std::size_t>(lane_words);
  std::memcpy(carry, g, m * sizeof(std::uint64_t));
  std::memcpy(pp, p, m * sizeof(std::uint64_t));
  for (int d = 1; d < n; d <<= 1) {
    const std::size_t off =
        static_cast<std::size_t>(d) * static_cast<std::size_t>(lane_words);
    for (std::size_t i = m; i-- > off;) {
      carry[i] |= pp[i] & carry[i - off];
      pp[i] &= pp[i - off];
    }
  }
}

void ssand_scalar(std::uint64_t* x, int n, int lane_words, int step) {
  const std::size_t m = static_cast<std::size_t>(n) * static_cast<std::size_t>(lane_words);
  const std::size_t off =
      static_cast<std::size_t>(step) * static_cast<std::size_t>(lane_words);
  for (std::size_t i = m; i-- > off;) x[i] &= x[i - off];
  std::memset(x, 0, off * sizeof(std::uint64_t));
}

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

// ---- AVX2 backend ----------------------------------------------------------
//
// Built with per-function target attributes so the stock (non -march=native)
// build still carries the AVX2 code paths and runtime dispatch picks them on
// capable hosts.  All memory accesses are unaligned-safe loadu/storeu.

#if VLCSA_HAVE_AVX2_BACKEND

__attribute__((target("avx2"))) void gp_avx2(const std::uint64_t* a, const std::uint64_t* b,
                                             std::uint64_t* g, std::uint64_t* p,
                                             std::size_t m) {
  std::size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    const __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(g + i), _mm256_and_si256(va, vb));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p + i), _mm256_xor_si256(va, vb));
  }
  for (; i < m; ++i) {
    g[i] = a[i] & b[i];
    p[i] = a[i] ^ b[i];
  }
}

// Top-down chunked doubling rounds; within one 4-word chunk all loads happen
// before the stores, and chunks run from the top of the array downward, so
// every read observes the pre-round value for any offset — the same
// pre-round-read semantics as the scalar loop (see kogge_scalar).
__attribute__((target("avx2"))) void kogge_avx2(const std::uint64_t* g, const std::uint64_t* p,
                                                int n, int lane_words, std::uint64_t* carry,
                                                std::uint64_t* pp) {
  const std::size_t m = static_cast<std::size_t>(n) * static_cast<std::size_t>(lane_words);
  std::memcpy(carry, g, m * sizeof(std::uint64_t));
  std::memcpy(pp, p, m * sizeof(std::uint64_t));
  for (int d = 1; d < n; d <<= 1) {
    const std::size_t off =
        static_cast<std::size_t>(d) * static_cast<std::size_t>(lane_words);
    std::size_t i = m;
    while (i - off >= 4 && i >= 4) {
      i -= 4;
      const __m256i c = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(carry + i));
      const __m256i q = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pp + i));
      const __m256i cl =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(carry + i - off));
      const __m256i ql = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pp + i - off));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(carry + i),
                          _mm256_or_si256(c, _mm256_and_si256(q, cl)));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(pp + i), _mm256_and_si256(q, ql));
    }
    while (i > off) {
      --i;
      carry[i] |= pp[i] & carry[i - off];
      pp[i] &= pp[i - off];
    }
  }
}

__attribute__((target("avx2"))) void ssand_avx2(std::uint64_t* x, int n, int lane_words,
                                                int step) {
  const std::size_t m = static_cast<std::size_t>(n) * static_cast<std::size_t>(lane_words);
  const std::size_t off =
      static_cast<std::size_t>(step) * static_cast<std::size_t>(lane_words);
  std::size_t i = m;
  while (i - off >= 4 && i >= 4) {
    i -= 4;
    const __m256i hi = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i));
    const __m256i lo = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i - off));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(x + i), _mm256_and_si256(hi, lo));
  }
  while (i > off) {
    --i;
    x[i] &= x[i - off];
  }
  std::memset(x, 0, off * sizeof(std::uint64_t));
}

// Same recursive block swap as the scalar transpose; sub-block sizes >= 4
// handle four rows per vector op (runs of consecutive k with bit j clear have
// length j, a multiple of 4 there), sizes 2 and 1 finish scalar.
__attribute__((target("avx2"))) void transpose_avx2(std::uint64_t block[64]) {
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

#endif  // VLCSA_HAVE_AVX2_BACKEND

// ---- AVX-512 backend -------------------------------------------------------
//
// Same per-function target-attribute scheme as AVX2 (stock builds carry the
// bodies, runtime cpuid picks them), at twice the width: 8 plane words per
// vector.  The backend requires avx512f+avx512bw+avx512dq: the kernels here
// need only f/bw, but the RNG's ziggurat fast path and the Gaussian encode
// that ride this backend's dispatch use the dq int64 <-> double conversions.

#if VLCSA_HAVE_AVX2_BACKEND  // same toolchain gate: x86-64 gcc/clang
#define VLCSA_HAVE_AVX512_BACKEND 1

// GCC's avx512fintrin.h expands the unmasked intrinsics through their masked
// forms with an undefined pass-through operand, which -Wmaybe-uninitialized
// flags at every inline site (GCC bug 105593).  The operand is dead under a
// full mask, so silence the false positive for this section only.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

__attribute__((target("avx512f,avx512bw"))) void gp_avx512(const std::uint64_t* a,
                                                           const std::uint64_t* b,
                                                           std::uint64_t* g, std::uint64_t* p,
                                                           std::size_t m) {
  std::size_t i = 0;
  for (; i + 8 <= m; i += 8) {
    const __m512i va = _mm512_loadu_si512(a + i);
    const __m512i vb = _mm512_loadu_si512(b + i);
    _mm512_storeu_si512(g + i, _mm512_and_si512(va, vb));
    _mm512_storeu_si512(p + i, _mm512_xor_si512(va, vb));
  }
  for (; i < m; ++i) {
    g[i] = a[i] & b[i];
    p[i] = a[i] ^ b[i];
  }
}

// Top-down chunked doubling rounds, same pre-round-read argument as
// kogge_avx2: within one 8-word chunk all loads precede the stores, and
// chunks run from the top of the array downward.
__attribute__((target("avx512f,avx512bw"))) void kogge_avx512(const std::uint64_t* g,
                                                              const std::uint64_t* p, int n,
                                                              int lane_words,
                                                              std::uint64_t* carry,
                                                              std::uint64_t* pp) {
  const std::size_t m = static_cast<std::size_t>(n) * static_cast<std::size_t>(lane_words);
  std::memcpy(carry, g, m * sizeof(std::uint64_t));
  std::memcpy(pp, p, m * sizeof(std::uint64_t));
  for (int d = 1; d < n; d <<= 1) {
    const std::size_t off =
        static_cast<std::size_t>(d) * static_cast<std::size_t>(lane_words);
    std::size_t i = m;
    while (i - off >= 8 && i >= 8) {
      i -= 8;
      const __m512i c = _mm512_loadu_si512(carry + i);
      const __m512i q = _mm512_loadu_si512(pp + i);
      const __m512i cl = _mm512_loadu_si512(carry + i - off);
      const __m512i ql = _mm512_loadu_si512(pp + i - off);
      // vpternlog 0xF8 = c | (q & cl).
      _mm512_storeu_si512(carry + i, _mm512_ternarylogic_epi64(c, q, cl, 0xF8));
      _mm512_storeu_si512(pp + i, _mm512_and_si512(q, ql));
    }
    while (i > off) {
      --i;
      carry[i] |= pp[i] & carry[i - off];
      pp[i] &= pp[i - off];
    }
  }
}

__attribute__((target("avx512f,avx512bw"))) void ssand_avx512(std::uint64_t* x, int n,
                                                              int lane_words, int step) {
  const std::size_t m = static_cast<std::size_t>(n) * static_cast<std::size_t>(lane_words);
  const std::size_t off =
      static_cast<std::size_t>(step) * static_cast<std::size_t>(lane_words);
  std::size_t i = m;
  while (i - off >= 8 && i >= 8) {
    i -= 8;
    const __m512i hi = _mm512_loadu_si512(x + i);
    const __m512i lo = _mm512_loadu_si512(x + i - off);
    _mm512_storeu_si512(x + i, _mm512_and_si512(hi, lo));
  }
  while (i > off) {
    --i;
    x[i] &= x[i - off];
  }
  std::memset(x, 0, off * sizeof(std::uint64_t));
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
__attribute__((target("avx512f,avx512bw"))) inline void transpose_level_regs(__m512i (&r)[8]) {
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
__attribute__((target("avx512f,avx512bw"))) inline void transpose_level_lanes(__m512i (&r)[8]) {
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

__attribute__((target("avx512f,avx512bw"))) void transpose_avx512(std::uint64_t block[64]) {
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

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#endif  // VLCSA_HAVE_AVX512_BACKEND

// ---- dispatch --------------------------------------------------------------

struct Kernels {
  Backend backend;
  void (*gp)(const std::uint64_t*, const std::uint64_t*, std::uint64_t*, std::uint64_t*,
             std::size_t);
  void (*kogge)(const std::uint64_t*, const std::uint64_t*, int, int, std::uint64_t*,
                std::uint64_t*);
  void (*ssand)(std::uint64_t*, int, int, int);
  void (*transpose)(std::uint64_t*);
};

constexpr Kernels kScalarKernels = {
    Backend::kScalar, gp_scalar, kogge_scalar, ssand_scalar, transpose_scalar,
};

#if VLCSA_HAVE_AVX2_BACKEND
constexpr Kernels kAvx2Kernels = {
    Backend::kAvx2, gp_avx2, kogge_avx2, ssand_avx2, transpose_avx2,
};
#endif

#if VLCSA_HAVE_AVX512_BACKEND
constexpr Kernels kAvx512Kernels = {
    Backend::kAvx512, gp_avx512, kogge_avx512, ssand_avx512, transpose_avx512,
};
#endif

const Kernels* kernels_for(Backend backend) {
  switch (backend) {
    case Backend::kScalar:
      return &kScalarKernels;
    case Backend::kAvx2:
#if VLCSA_HAVE_AVX2_BACKEND
      if (__builtin_cpu_supports("avx2")) return &kAvx2Kernels;
#endif
      return nullptr;
    case Backend::kAvx512:
#if VLCSA_HAVE_AVX512_BACKEND
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

std::atomic<const Kernels*>& active_slot() {
  // Function-local so the env override resolves exactly once, on first use,
  // regardless of static-initialization order.
  static std::atomic<const Kernels*> slot{resolve_initial()};
  return slot;
}

inline const Kernels& active() {
  return *active_slot().load(std::memory_order_relaxed);
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
  active_slot().store(k, std::memory_order_relaxed);
  return true;
}

bool set_backend(std::string_view name) {
  if (name == "auto") {
    active_slot().store(best_kernels(), std::memory_order_relaxed);
    return true;
  }
  const std::optional<Backend> backend = parse_backend(name);
  return backend && set_backend(*backend);
}

void bulk_gp(const std::uint64_t* a, const std::uint64_t* b, std::uint64_t* g,
             std::uint64_t* p, std::size_t m) {
  active().gp(a, b, g, p, m);
}

void kogge_stone(const std::uint64_t* g, const std::uint64_t* p, int n, int lane_words,
                 std::uint64_t* carry, std::uint64_t* pp) {
  assert(n >= 1 && lane_words >= 1);
  // Whole-plane kernel: bases must sit on the PlaneVec alignment contract.
  assert(aligned64(g) && aligned64(p) && aligned64(carry) && aligned64(pp));
  (void)aligned64;
  active().kogge(g, p, n, lane_words, carry, pp);
}

void shifted_self_and(std::uint64_t* x, int n, int lane_words, int step) {
  assert(n >= 1 && lane_words >= 1 && step >= 1 && step <= n);
  assert(aligned64(x));
  active().ssand(x, n, lane_words, step);
}

void transpose_64x64(std::uint64_t block[64]) { active().transpose(block); }

}  // namespace vlcsa::arith::planeops
