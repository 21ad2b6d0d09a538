#pragma once
// Plane-kernel layer: every word-parallel kernel the Monte Carlo path runs,
// and the one module that knows which ISA backs which kernel.  It owns:
//  * the two batched carry-chain evaluators: SCSA's window sweep
//    (scsa_window_sweep) and VLSA's streaming run detector (vlsa_run_sweep);
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
// planes out bit-major with `lane_words` words per bit (bitslice.hpp).  The
// carry-chain sweeps walk the operand planes once, bottom bit first, and
// write one lane-mask group (`lane_words` words, bit j of word w = sample
// w*64 + j) per result.
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

// ---- carry-chain sweeps ----------------------------------------------------

/// The lane masks scsa_window_sweep writes, `lane_words` words each.
struct ScsaLaneMasks {
  std::uint64_t* spec0_wrong;  // S*,0 (incl. carry-out) != exact sum
  std::uint64_t* spec1_wrong;  // S*,1 (incl. carry-out) != exact sum
  std::uint64_t* err0;         // detector ERR0 fired
  std::uint64_t* err1;         // detector ERR1 fired
};

/// SCSA's window sweep over the operand planes a, b (`lane_words` words per
/// bit, 1..16).  Window i covers the next window_sizes[i] bits (window 0
/// starts at bit 0; m windows in all).  Per lane, with G_i / P_i window i's
/// group generate / propagate and c_i the exact carry into window i
/// (c_0 = 0, c_{i+1} = G_i | (P_i & c_i)):
///   spec0_wrong = OR_{i>=1} (G_{i-1} ^ c_i)            S*,0's select
///   spec1_wrong = OR_{i>=1} (sel1_i ^ c_i),  sel1_1 = G_0,
///                 sel1_i = G_{i-1} | P_{i-1} beyond     S*,1's select
///   err0        = OR_{i>=1} G_{i-1} & P_i
///   err1        = OR_{i>=2} P_{i-1} & ~P_i
/// A speculative sum is wrong iff some window's carry-in select differs
/// from the exact carry into it, so the select mismatches are the
/// wrongness masks.  Window 1's S*,1 select is G_0, not G_0 | P_0: window
/// 0's carry-in is the constant 0, so G_0 is its exact carry-out (DESIGN.md
/// "Substitutions and deviations").
void scsa_window_sweep(const std::uint64_t* a, const std::uint64_t* b, int lane_words,
                       const int* window_sizes, int m, const ScsaLaneMasks& masks);

/// Longest chain vlsa_run_sweep takes: its run counter has at most 16 planes.
inline constexpr int kMaxRunChain = (1 << 16) - 1;

/// VLSA's speculation check and detector in one pass over the n operand
/// planes (`lane_words` words per bit), for chain length l in
/// [1, min(n, kMaxRunChain)].  Per lane, bit j = 0 .. n-1 with p = a ^ b
/// and g = a & b, the state machine is
///   c       = g | (p & c)              carry out of bit j (carry-in 0)
///   count   = p ? sat(count + 1) : 0   propagate run ending at bit j
///   reached = (count == l)             an l-long propagate run ends at j
///   err        |= reached
///   spec_wrong |= reached & c
/// where count is a bit-sliced counter of bit_width(l) planes that
/// saturates at all ones (>= l), so `reached` fires when a run's l-th
/// propagate bit arrives.  Inside an all-propagate run the carry passes
/// through unchanged, so c (the carry out of bit j) equals the carry into
/// the run's first bit, j-l+1 — the one carry the l-bit speculative window
/// ending at j cannot see, and the speculative carry out of j is wrong
/// exactly when it is 1.  Every speculative error thus flips a sum bit or
/// the carry-out, and err is VLSA's "some l-long propagate run" detector.
void vlsa_run_sweep(const std::uint64_t* a, const std::uint64_t* b, int n, int lane_words,
                    int chain, std::uint64_t* spec_wrong, std::uint64_t* err);

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
