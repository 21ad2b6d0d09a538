#include "arith/bitslice.hpp"

#include <algorithm>
#include <stdexcept>

namespace vlcsa::arith {

int default_lane_words() {
  return planeops::active_backend() == planeops::Backend::kAvx512 ? 2 * kDefaultLaneWords
                                                                  : kDefaultLaneWords;
}

void transpose_to_planes(const ApInt* samples, int count, int width, std::uint64_t* planes,
                         int lane_words, int lane_word) {
  if (count < 0 || count > kBatchLanes) {
    throw std::invalid_argument("transpose_to_planes: count must be in [0, 64]");
  }
  if (lane_words < 1 || lane_word < 0 || lane_word >= lane_words) {
    throw std::invalid_argument("transpose_to_planes: lane word out of range");
  }
  for (int j = 0; j < count; ++j) {
    if (samples[j].width() != width) {
      throw std::invalid_argument("transpose_to_planes: sample width mismatch");
    }
  }
  const int limbs = (width + ApInt::kLimbBits - 1) / ApInt::kLimbBits;
  std::uint64_t block[64];
  for (int limb = 0; limb < limbs; ++limb) {
    for (int j = 0; j < count; ++j) block[j] = samples[j].limb(limb);
    for (int j = count; j < 64; ++j) block[j] = 0;
    planeops::transpose_64x64(block);
    block_to_planes(block, limb, width, planes, lane_words, lane_word);
  }
}

void block_to_planes(const std::uint64_t block[64], int limb, int width,
                     std::uint64_t* planes, int lane_words, int lane_word) {
  const int base = limb * ApInt::kLimbBits;
  const int top = std::min(width - base, ApInt::kLimbBits);
  // Unrolled for the reason UniformUnsignedSource::fill_batch's plane copy
  // is: a one-word-per-iteration loop runs at half speed whenever code
  // layout puts it across a 32-byte fetch window (~7% of mc-gauss-n64).
#pragma GCC unroll 8
  for (int bit = 0; bit < top; ++bit) {
    planes[static_cast<std::size_t>(base + bit) * static_cast<std::size_t>(lane_words) +
           static_cast<std::size_t>(lane_word)] = block[bit];
  }
}

ApInt plane_lane(const std::uint64_t* planes, int width, int lane, int lane_words) {
  if (lane < 0 || lane >= kBatchLanes * lane_words) {
    throw std::invalid_argument("plane_lane: lane out of range");
  }
  const int lane_word = lane / kBatchLanes;
  const int lane_bit = lane % kBatchLanes;
  ApInt out(width);
  for (int bit = 0; bit < width; ++bit) {
    const std::uint64_t word =
        planes[static_cast<std::size_t>(bit) * static_cast<std::size_t>(lane_words) +
               static_cast<std::size_t>(lane_word)];
    out.set_bit(bit, ((word >> lane_bit) & 1) != 0);
  }
  return out;
}

namespace {

/// Validates the batch shape BEFORE the member initializers allocate, so a
/// negative argument throws invalid_argument instead of attempting a
/// wrapped-around near-2^64 allocation.
std::size_t checked_plane_words(int width, int lane_words) {
  if (width < 1) throw std::invalid_argument("BitSlicedBatch: width must be >= 1");
  if (lane_words < 1 || lane_words > kMaxLaneWords) {
    throw std::invalid_argument("BitSlicedBatch: lane_words must be in [1, 16]");
  }
  return static_cast<std::size_t>(width) * static_cast<std::size_t>(lane_words);
}

}  // namespace

BitSlicedBatch::BitSlicedBatch(int width, int lane_words)
    : width_(width),
      lane_words_(lane_words),
      a_(checked_plane_words(width, lane_words), 0),
      b_(a_.size(), 0) {}

void BitSlicedBatch::load(const std::vector<ApInt>& a, const std::vector<ApInt>& b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("BitSlicedBatch::load: operand counts differ");
  }
  if (a.size() > static_cast<std::size_t>(lanes())) {
    throw std::invalid_argument("BitSlicedBatch::load: more samples than lanes");
  }
  const int count = static_cast<int>(a.size());
  for (int w = 0; w < lane_words_; ++w) {
    const int begin = std::min(w * kBatchLanes, count);
    const int group = std::min(count - begin, kBatchLanes);
    transpose_to_planes(a.data() + begin, group, width_, a_.data(), lane_words_, w);
    transpose_to_planes(b.data() + begin, group, width_, b_.data(), lane_words_, w);
  }
}

std::pair<ApInt, ApInt> BitSlicedBatch::lane(int lane) const {
  return {plane_lane(a_.data(), width_, lane, lane_words_),
          plane_lane(b_.data(), width_, lane, lane_words_)};
}

}  // namespace vlcsa::arith
