#pragma once
// Plane-kernel layer: every word-parallel kernel the Monte Carlo path runs,
// and the one module that knows which ISA backs which kernel.  It owns:
//  * the VLSA baseline's generate/propagate fill (bulk_gp), Kogge-Stone
//    prefix (kogge_stone) and propagate-run sweep (shifted_self_and);
//  * the 64x64 bit transpose behind the operand streams (transpose_64x64);
//  * the MT19937-64 block twist and tempering under BlockRng (mt_twist,
//    mt_regenerate);
//  * the ziggurat fast path under GaussianBlockSampler::fill (zig_accept);
//  * the Gaussian operand encode of one 64-sample group
//    (encode_gaussian_group).
// Each has a scalar backend and (on x86-64 gcc/clang) AVX2 (avx2) and
// AVX-512 (avx512f + avx512bw + avx512dq) backends, selected once at startup
// by runtime CPU dispatch.  Other targets (aarch64 included) run the scalar
// oracle.
//
// A "plane array" is a flat sequence of 64-bit words; callers lay their
// planes out bit-major with `lane_words` words per bit (bitslice.hpp).
// bulk_gp just streams over `m` words; the Kogge-Stone prefix and the
// shifted self-and take the (n, lane_words) shape explicitly.
//
// Contracts:
//  * Every backend computes bit-identical results — the scalar backend is
//    the oracle and tests/arith/planeops_test.cpp pins the others to it.
//  * Backend selection: VLCSA_FORCE_BACKEND=scalar|avx2|avx512|auto in the
//    environment wins (an unknown name uses auto dispatch; a backend this
//    CPU/build lacks falls back to scalar; both with a one-time stderr
//    note); otherwise the best supported backend is used.
//    set_backend() switches at runtime for tests/benches; it must not race
//    in-flight kernels (switch between runs, not during).
//  * Plane storage should be 64-byte aligned (PlaneVec below guarantees it);
//    kernels that receive whole plane arrays assert the base alignment so a
//    stray unaligned buffer is caught in debug builds.  Loads/stores inside
//    the SIMD backends are unaligned-safe, so alignment is a performance
//    contract, not a correctness one.

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <new>
#include <string_view>
#include <vector>

namespace vlcsa::arith::planeops {

/// Alignment of plane storage: one cache line (and ≥ any SIMD vector we use).
inline constexpr std::size_t kPlaneAlignment = 64;

/// Minimal aligned allocator so plane arrays (and scratch buffers) start on
/// a cache-line boundary without a custom container.
template <typename T>
struct AlignedAllocator {
  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{kPlaneAlignment}));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{kPlaneAlignment});
  }

  template <typename U>
  [[nodiscard]] bool operator==(const AlignedAllocator<U>&) const noexcept {
    return true;
  }
};

/// The standard container for plane arrays and lane-mask groups: a
/// uint64_t vector whose data() is 64-byte aligned.
using PlaneVec = std::vector<std::uint64_t, AlignedAllocator<std::uint64_t>>;

enum class Backend {
  kScalar,
  kAvx2,
  kAvx512,  // needs avx512f + avx512bw + avx512dq
};

[[nodiscard]] const char* to_string(Backend backend);

/// The backend the kernels below currently dispatch to.
[[nodiscard]] Backend active_backend();

/// True when this CPU/build can run `backend`.
[[nodiscard]] bool backend_available(Backend backend);

/// Switches the dispatch table; returns false (and leaves the active backend
/// unchanged) when the backend is not available.  Not safe to call while
/// kernels are executing on other threads.
bool set_backend(Backend backend);

/// Parses a to_string name or "auto" (= best available) and switches;
/// returns false on unknown names and unavailable backends (an avx512
/// request on a CPU without the ISA fails, it does not degrade to auto).
bool set_backend(std::string_view name);

/// g = a & b, p = a ^ b in one pass (the generate/propagate plane fill).
/// g and p must NOT alias a, b, or each other — the two outputs are
/// interleaved per element, so an aliased input would be clobbered mid-pass
/// (and differently per backend).  Pointers may be interior.
void bulk_gp(const std::uint64_t* a, const std::uint64_t* b, std::uint64_t* g,
             std::uint64_t* p, std::size_t m);

/// Word-level Kogge-Stone carry prefix over bit-major plane arrays with
/// `lane_words` words per bit: carry[i] = carry out of bit i with carry-in 0,
/// independently in each of the n*lane_words*64 lanes.  `carry` and `pp`
/// must each hold n*lane_words words, be 64-byte aligned, and not alias
/// g/p/each other.  `pp` is clobbered scratch.
void kogge_stone(const std::uint64_t* g, const std::uint64_t* p, int n, int lane_words,
                 std::uint64_t* carry, std::uint64_t* pp);

/// In-place groupwise x[i] &= x[i - step] for i = n-1 .. step, then zeroes
/// groups [0, step) — one doubling step of a sliding all-ones window (the
/// VLSA propagate-run sweep).  Group = lane_words words.
void shifted_self_and(std::uint64_t* x, int n, int lane_words, int step);

/// In-place transpose of a 64x64 bit matrix; block[i] is row i, and bit j
/// of row i moves to bit i of row j.
void transpose_64x64(std::uint64_t block[64]);

// ---- MT19937-64 block kernels ----------------------------------------------

/// MT19937-64 state size in words (BlockRng::kStateWords).
inline constexpr std::size_t kMtStateWords = 312;

/// One MT19937-64 twist of the whole state, in place — the std engine's
/// regeneration of the next kMtStateWords untempered words.
void mt_twist(std::uint64_t state[kMtStateWords]);

/// `blocks` consecutive MT19937-64 blocks: each twists the state and writes
/// its kMtStateWords tempered words to the next stretch of `out` (which
/// must not alias the state).  One dispatch for the whole run.
void mt_regenerate(std::uint64_t state[kMtStateWords], std::uint64_t* out,
                   std::size_t blocks = 1);

// ---- ziggurat fast path ----------------------------------------------------
//
// One raw 64-bit word per attempt of a 256-layer ziggurat: the low 8 bits
// pick the layer iz, the top 55 bits form a signed mantissa hz with
// |hz| < 2^54, and the layer test accepts when |hz| < kn[iz], giving
// x = hz * wn[iz].  The tables (256 entries each) belong to the caller
// (rng.cpp's GaussianBlockSampler).

/// The fast path for one word: x = hz * wn[iz] always, and whether the
/// layer test accepts it.
inline bool zig_fast(std::uint64_t w, const std::uint64_t* kn, const double* wn, double& x) {
  const std::size_t iz = w & 0xFF;
  const std::int64_t hz = static_cast<std::int64_t>(w) >> 9;
  const std::uint64_t mag = static_cast<std::uint64_t>(hz < 0 ? -hz : hz);
  x = static_cast<double>(hz) * wn[iz];
  return mag < kn[iz];
}

/// Fast-path variates of the longest accepted prefix of words[0, m): writes
/// dst[0, k) and returns k, stopping at the first word the layer test
/// rejects (k < m), which the caller hands to its slow path.
std::size_t zig_accept(const std::uint64_t* words, std::size_t m, const std::uint64_t* kn,
                       const double* wn, double* dst);

// ---- Gaussian operand encode -----------------------------------------------

/// round(sample) clamped to the signed range of `width` bits, as int64.
inline std::int64_t signed_sample_to_i64(int width, double sample) {
  const double rounded = std::nearbyint(sample);
  if (width >= 64) {
    // sigma = 2^32 keeps samples far inside int64 range (8 sigma < 2^36).
    return static_cast<std::int64_t>(rounded);
  }
  const double lo = -std::ldexp(1.0, width - 1);
  const double hi = std::ldexp(1.0, width - 1) - 1.0;
  return static_cast<std::int64_t>(std::fmin(std::fmax(rounded, lo), hi));
}

/// |round(sample)| clamped to the unsigned range of `width` bits.
inline std::uint64_t unsigned_sample_to_u64(int width, double sample) {
  const double mag = std::fabs(std::nearbyint(sample));
  if (width >= 64) return static_cast<std::uint64_t>(mag);
  const double hi = std::ldexp(1.0, width) - 1.0;
  return static_cast<std::uint64_t>(std::fmin(mag, hi));
}

/// How one Gaussian operand group is encoded: sample = mean + sigma * x,
/// then signed_sample_to_i64 (twos) or unsigned_sample_to_u64 at `width`.
struct GaussianEncode {
  int width;
  bool twos;  // two's complement, or magnitude
  double mean;
  double sigma;
};

/// One 64-sample group of standard-normal variates a0 b0 a1 b1 ... (128
/// values, the sources' next() draw order) becomes the limb-0 rows of both
/// operands — a's in rows[0, 64), b's in rows[64, 128), row j = sample j,
/// masked to the width — plus the lane-wise sign masks of a and b in
/// sign[0] / sign[1] (zero for the magnitude encode).  The scalar row is
/// next()'s encode word for word.
void encode_gaussian_group(const GaussianEncode& e, const double* variates,
                           std::uint64_t* rows, std::uint64_t sign[2]);

}  // namespace vlcsa::arith::planeops
