#pragma once
// Bit-sliced sample batches: 64 Monte Carlo samples per machine word, and
// `lane_words` words per bit-plane — so one batch carries 64 * lane_words
// samples (256 at the default lane width).
//
// The netlist simulator has always been 64-way bit-sliced (one word = one
// net's value across 64 test vectors).  This header brings the same layout
// to the *behavioral* models: a BitSlicedBatch stores operand pairs as
// bit-planes — plane group `bit` is `lane_words` words whose bit j of word w
// is sample (w*64 + j)'s value of operand bit `bit` — so window
// generate/propagate, speculative carries and detection flags become
// word-parallel boolean algebra over the planes, and the plane-kernel layer
// (arith/planeops.hpp) streams them through SIMD registers.
//
// Layout ("bit-plane group" = lane_words columns of the samples x width
// matrix, flat array index = bit * lane_words + w):
//
//            bit 0   bit 1   ...   bit n-1
//  sample 0 [  .       .              .   ]   row    = one operand (ApInt)
//    ...                                      column = one plane group
//  sample 64*W-1 [ .    .              .   ]           (lane_words words)
//
// The row<->column conversion is the classic 64x64 bit-matrix transpose
// (6 log-steps per block), shared with the netlist-simulator test harness.
// Plane storage is 64-byte aligned (planeops::PlaneVec) so the SIMD
// backends stream whole cache lines.

#include <cstdint>
#include <vector>

#include "arith/apint.hpp"
#include "arith/planeops.hpp"

namespace vlcsa::arith {

/// Number of samples carried per plane word — one lane per bit.
inline constexpr int kBatchLanes = 64;

/// Base plane-group width: 4 words = 256 samples per evaluation, one full
/// AVX2 register per bit-plane.  Results are bit-identical at any width (a
/// tested invariant), so lane width is purely a throughput knob.
inline constexpr int kDefaultLaneWords = 4;

/// The dispatch-aware width the batched Monte Carlo paths use when
/// RunOptions::lane_words == 0: doubles to 8 words (one full 512-bit
/// register per bit-plane, 512 samples per evaluation) when the avx512
/// planeops backend is active, kDefaultLaneWords otherwise.  Counters do not
/// depend on the choice — only throughput does.
[[nodiscard]] int default_lane_words();

/// Upper bound on lane_words (BitSlicedBatch rejects wider batches).
inline constexpr int kMaxLaneWords = 16;

/// Transposes `count` (<= 64) width-bit samples into lane word `lane_word`
/// of a plane array with `lane_words` words per bit:
/// planes[bit * lane_words + lane_word] bit j = samples[j].bit(bit) for
/// j < count, 0 for j >= count.  `planes` must hold width * lane_words words.
void transpose_to_planes(const ApInt* samples, int count, int width, std::uint64_t* planes,
                         int lane_words = 1, int lane_word = 0);

/// Copies an already-transposed 64x64 block (rows = bits of limb `limb`)
/// into lane word `lane_word` of the plane array of a `width`-bit layout,
/// dropping rows beyond the width.  Shared by transpose_to_planes and the
/// operand sources' direct raw-limb fill paths.
void block_to_planes(const std::uint64_t block[64], int limb, int width,
                     std::uint64_t* planes, int lane_words = 1, int lane_word = 0);

/// Reads lane `lane` of a plane array back into an ApInt (the inverse of
/// transpose_to_planes for one sample; tests/diagnostics).  Throws when
/// `lane` is outside [0, 64 * lane_words).
[[nodiscard]] ApInt plane_lane(const std::uint64_t* planes, int width, int lane,
                               int lane_words = 1);

/// 64 * lane_words operand pairs in bit-plane form, ready for word-parallel
/// evaluation.  Plane storage is 64-byte aligned.
class BitSlicedBatch {
 public:
  explicit BitSlicedBatch(int width, int lane_words = 1);

  [[nodiscard]] int width() const { return width_; }
  [[nodiscard]] int lane_words() const { return lane_words_; }
  /// Samples per batch: 64 * lane_words().
  [[nodiscard]] int lanes() const { return kBatchLanes * lane_words_; }

  [[nodiscard]] const std::uint64_t* a() const { return a_.data(); }
  [[nodiscard]] const std::uint64_t* b() const { return b_.data(); }
  [[nodiscard]] std::uint64_t* a() { return a_.data(); }
  [[nodiscard]] std::uint64_t* b() { return b_.data(); }

  /// Loads operand pairs row-wise (sample j = (a[j], b[j])); pairs beyond
  /// `count` are zero.  Both vectors must have the same size <= lanes().
  void load(const std::vector<ApInt>& a, const std::vector<ApInt>& b);

  /// Sample `lane` reconstructed as an ApInt pair (tests/diagnostics).
  [[nodiscard]] std::pair<ApInt, ApInt> lane(int lane) const;

 private:
  int width_;
  int lane_words_;
  planeops::PlaneVec a_;  // a_[bit * lane_words + w] = plane word w of bit `bit`
  planeops::PlaneVec b_;
};

}  // namespace vlcsa::arith
