#include "arith/rng.hpp"

#include <algorithm>
#include <cmath>

#include "arith/planeops.hpp"

namespace vlcsa::arith {

namespace {

// MT19937-64's seeding multiplier; the twist and tempering constants live
// with the kernels in planeops.cpp.
constexpr std::uint64_t kSeedF = 6364136223846793005ULL;

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
  planeops::mt_regenerate(state_, out_);
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
  // Full blocks: twist and temper straight into the destination, never
  // touching the out_ buffer.
  const std::size_t full = (n - produced) / kStateWords;
  planeops::mt_regenerate(state_, dst + produced, full);
  produced += full * kStateWords;
  twists_ += full;
  // Partial trailing block: regenerate out_ and hand out its head, leaving
  // the rest buffered for subsequent draws.
  if (produced < n) {
    planeops::mt_regenerate(state_, out_);
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
  while (z >= kStateWords) {
    planeops::mt_twist(state_);
    z -= kStateWords;
    ++twists_;
  }
  planeops::mt_regenerate(state_, out_);
  index_ = static_cast<std::size_t>(z);
  ++twists_;
}

// ---- GaussianBlockSampler ---------------------------------------------------
//
// 256-layer ziggurat for the standard normal (Marsaglia & Tsang 2000,
// widened from the classic 32-bit draw to one 64-bit word per attempt; the
// word layout and fast path are planeops::zig_fast).  Layer boundaries x_i
// solve the standard recurrence with strip area V and base boundary R;
// kn/wn are pre-scaled by m = 2^54 so the fast path is one integer compare
// and one multiply.  fill() runs the dispatched fast path
// (planeops::zig_accept) over the word buffer in bulk and hands each
// rejected word to operator(), which re-reads it and runs the wedge/tail
// slow path.

namespace {

struct ZigguratTables {
  std::uint64_t kn[256];  // acceptance thresholds, in hz units
  double wn[256];         // hz -> x scale per layer
  double fn[256];         // exp(-x_i^2 / 2) at the layer boundaries
};

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
    if (planeops::zig_fast(w, t.kn, t.wn, x)) return x;
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
  std::size_t i = 0;
  while (i < n) {
    if (pos_ == kBufferWords) refill(rng);
    const std::size_t m = std::min(n - i, kBufferWords - pos_);
    const std::size_t taken = planeops::zig_accept(buffer_ + pos_, m, t.kn, t.wn, dst + i);
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
