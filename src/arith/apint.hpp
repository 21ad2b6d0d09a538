#pragma once
// Arbitrary-width two's-complement / unsigned integer used by every
// behavioral model in the library.
//
// An ApInt has a fixed bit width chosen at construction.  Values are stored
// as little-endian 64-bit limbs with the invariant that bits above `width()`
// in the top limb are always zero.  All arithmetic is modular in the width
// (exactly like an n-bit hardware datapath); carry-out is reported
// explicitly where it matters.

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "arith/rng.hpp"

namespace vlcsa::arith {

struct AddResult;

class ApInt {
 public:
  /// Number of value bits per limb.
  static constexpr int kLimbBits = 64;

  /// Constructs the zero value of width 1 (so containers can default-construct).
  ApInt() : ApInt(1) {}

  /// Constructs the zero value of the given width (width >= 1).
  explicit ApInt(int width);

  /// Zero of the given width.
  [[nodiscard]] static ApInt zero(int width) { return ApInt(width); }

  /// All-ones value of the given width.
  [[nodiscard]] static ApInt all_ones(int width);

  /// Value `v` zero-extended/truncated to `width` bits.
  [[nodiscard]] static ApInt from_u64(int width, std::uint64_t v);

  /// Value `v` sign-extended/truncated to `width` bits (two's complement).
  [[nodiscard]] static ApInt from_i64(int width, std::int64_t v);

  /// Value from little-endian limbs, exactly ceil(width / 64) of them; bits
  /// above `width` in the top limb are dropped.
  [[nodiscard]] static ApInt from_limbs(int width, std::span<const std::uint64_t> limbs);

  /// Parses a binary string, MSB first (e.g. "1011" == 11). The string
  /// length must not exceed `width`.
  [[nodiscard]] static ApInt from_binary(int width, const std::string& bits);

  /// Uniformly random `width`-bit pattern: one rng draw per limb, in limb
  /// order, top limb masked.  (BlockRng is sequence-identical to
  /// std::mt19937_64, so values are unchanged from the std-engine era.)
  [[nodiscard]] static ApInt random(int width, BlockRng& rng);

  [[nodiscard]] int width() const { return width_; }
  [[nodiscard]] int num_limbs() const { return static_cast<int>(limbs_.size()); }
  [[nodiscard]] std::span<const std::uint64_t> limbs() const { return limbs_; }
  [[nodiscard]] std::uint64_t limb(int i) const { return limbs_[static_cast<std::size_t>(i)]; }

  /// Reads bit `i` (0 = LSB). Bits at or above `width()` read as 0.
  [[nodiscard]] bool bit(int i) const;

  /// Writes bit `i` (0 <= i < width()).
  void set_bit(int i, bool v);

  /// Extracts `len` bits starting at bit `pos` as a uint64 (1 <= len <= 64).
  /// Bits beyond `width()` read as zero, so windows may overhang the top.
  [[nodiscard]] std::uint64_t extract(int pos, int len) const;

  /// Deposits the low `len` bits of `v` at bit position `pos`
  /// (pos + len may overhang `width()`; overhanging bits are dropped).
  void deposit(int pos, int len, std::uint64_t v);

  /// Full n-bit addition a + b + cin; widths must match.
  [[nodiscard]] static AddResult add(const ApInt& a, const ApInt& b, bool carry_in = false);

  /// Modular arithmetic in the common width (widths must match).
  [[nodiscard]] ApInt operator+(const ApInt& rhs) const;
  [[nodiscard]] ApInt operator-(const ApInt& rhs) const;

  /// Two's-complement negation (modular).
  [[nodiscard]] ApInt negated() const;

  /// Bitwise operators (widths must match).
  [[nodiscard]] ApInt operator&(const ApInt& rhs) const;
  [[nodiscard]] ApInt operator|(const ApInt& rhs) const;
  [[nodiscard]] ApInt operator^(const ApInt& rhs) const;
  [[nodiscard]] ApInt operator~() const;

  /// Logical shifts (result keeps this width).
  [[nodiscard]] ApInt shl(int amount) const;
  [[nodiscard]] ApInt shr(int amount) const;

  /// Unsigned comparison.
  [[nodiscard]] int compare_unsigned(const ApInt& rhs) const;
  /// Signed (two's-complement) comparison.
  [[nodiscard]] int compare_signed(const ApInt& rhs) const;

  [[nodiscard]] bool operator==(const ApInt& rhs) const {
    return width_ == rhs.width_ && limbs_ == rhs.limbs_;
  }
  [[nodiscard]] bool operator!=(const ApInt& rhs) const { return !(*this == rhs); }

  [[nodiscard]] bool is_zero() const;
  /// Sign bit (MSB) under two's-complement interpretation.
  [[nodiscard]] bool sign_bit() const { return bit(width_ - 1); }

  /// Number of set bits.
  [[nodiscard]] int popcount() const;

  /// Index of the highest set bit, or -1 if zero.
  [[nodiscard]] int highest_set_bit() const;

  /// Truncates or zero-extends to a new width.
  [[nodiscard]] ApInt zext(int new_width) const;
  /// Truncates or sign-extends to a new width.
  [[nodiscard]] ApInt sext(int new_width) const;

  /// Low 64 bits of the value.
  [[nodiscard]] std::uint64_t to_u64() const { return limbs_[0]; }
  /// Two's-complement value as int64 (value must fit; checked in debug).
  [[nodiscard]] std::int64_t to_i64() const;

  /// Binary string, MSB first, exactly `width()` characters.
  [[nodiscard]] std::string to_binary() const;
  /// Hex string (no prefix), ceil(width/4) digits.
  [[nodiscard]] std::string to_hex() const;

 private:
  void normalize();  // clears bits above width in the top limb
  static void check_same_width(const ApInt& a, const ApInt& b);

  int width_;
  std::vector<std::uint64_t> limbs_;
};

/// Result of an addition with explicit carry-out.
struct AddResult {
  ApInt sum;
  bool carry_out = false;
};

std::ostream& operator<<(std::ostream& os, const ApInt& v);

/// Per-bit propagate/generate view of one addition: p = a ^ b, g = a & b.
/// This is the raw material of every speculation and detection structure in
/// the library.
struct PropagateGenerate {
  ApInt p;
  ApInt g;

  PropagateGenerate(const ApInt& a, const ApInt& b) : p(a ^ b), g(a & b) {}

  /// Group propagate over bits [pos, pos+len): all p bits set.
  /// Bits overhanging the width count as *not* propagating.
  [[nodiscard]] bool group_propagate(int pos, int len) const;

  /// Group generate over bits [pos, pos+len): a carry leaves the top of the
  /// window when the carry into the window is 0.
  [[nodiscard]] bool group_generate(int pos, int len) const;
};

}  // namespace vlcsa::arith
