#pragma once
// Plane-kernel layer: the word-parallel primitives the bit-sliced models and
// operand fills run — the VLSA baseline's generate/propagate fill,
// Kogge-Stone prefix and propagate-run sweep, and the 64x64 bit transpose
// behind the operand streams — each with a scalar backend and (on x86-64)
// AVX2 (avx2) and AVX-512 (avx512f + avx512bw + avx512dq) backends,
// selected once at startup by runtime CPU dispatch.  Other targets
// (aarch64 included) run the scalar oracle.  The RNG twist/temper, the
// ziggurat fast path and the Gaussian encode follow the same dispatch
// through active_backend().
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

}  // namespace vlcsa::arith::planeops
