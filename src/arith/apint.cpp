#include "arith/apint.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <ostream>
#include <stdexcept>

namespace vlcsa::arith {

namespace {

constexpr std::uint64_t mask_low(int bits) {
  return bits >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << bits) - 1);
}

}  // namespace

ApInt::ApInt(int width) : width_(width) {
  if (width < 1) throw std::invalid_argument("ApInt width must be >= 1");
  limbs_.assign(static_cast<std::size_t>((width + kLimbBits - 1) / kLimbBits), 0);
}

ApInt ApInt::all_ones(int width) {
  ApInt r(width);
  for (auto& l : r.limbs_) l = ~std::uint64_t{0};
  r.normalize();
  return r;
}

ApInt ApInt::from_u64(int width, std::uint64_t v) {
  ApInt r(width);
  r.limbs_[0] = v;
  r.normalize();
  return r;
}

ApInt ApInt::from_i64(int width, std::int64_t v) {
  ApInt r(width);
  r.limbs_[0] = static_cast<std::uint64_t>(v);
  if (v < 0) {
    for (std::size_t i = 1; i < r.limbs_.size(); ++i) r.limbs_[i] = ~std::uint64_t{0};
  }
  r.normalize();
  return r;
}

ApInt ApInt::from_limbs(int width, std::span<const std::uint64_t> limbs) {
  ApInt r(width);
  if (limbs.size() != r.limbs_.size()) {
    throw std::invalid_argument("ApInt::from_limbs: limb count does not match width");
  }
  std::copy(limbs.begin(), limbs.end(), r.limbs_.begin());
  r.normalize();
  return r;
}

ApInt ApInt::from_binary(int width, const std::string& bits) {
  if (static_cast<int>(bits.size()) > width) {
    throw std::invalid_argument("binary string longer than width");
  }
  ApInt r(width);
  const int n = static_cast<int>(bits.size());
  for (int i = 0; i < n; ++i) {
    const char c = bits[static_cast<std::size_t>(i)];
    if (c != '0' && c != '1') throw std::invalid_argument("binary string must be 0/1");
    // bits[0] is the MSB of the string.
    r.set_bit(n - 1 - i, c == '1');
  }
  return r;
}

ApInt ApInt::random(int width, BlockRng& rng) {
  ApInt r(width);
  rng.generate_block(r.limbs_.data(), r.limbs_.size());
  r.normalize();
  return r;
}

void ApInt::normalize() {
  const int top_bits = width_ - (num_limbs() - 1) * kLimbBits;
  limbs_.back() &= mask_low(top_bits);
}

void ApInt::check_same_width(const ApInt& a, const ApInt& b) {
  if (a.width_ != b.width_) throw std::invalid_argument("ApInt width mismatch");
}

bool ApInt::bit(int i) const {
  if (i < 0) throw std::out_of_range("ApInt::bit negative index");
  if (i >= width_) return false;
  return (limbs_[static_cast<std::size_t>(i / kLimbBits)] >> (i % kLimbBits)) & 1;
}

void ApInt::set_bit(int i, bool v) {
  if (i < 0 || i >= width_) throw std::out_of_range("ApInt::set_bit index out of range");
  auto& l = limbs_[static_cast<std::size_t>(i / kLimbBits)];
  const std::uint64_t m = std::uint64_t{1} << (i % kLimbBits);
  l = v ? (l | m) : (l & ~m);
}

std::uint64_t ApInt::extract(int pos, int len) const {
  assert(len >= 1 && len <= 64);
  if (pos < 0) throw std::out_of_range("ApInt::extract negative position");
  if (pos >= width_) return 0;
  const int limb_idx = pos / kLimbBits;
  const int offset = pos % kLimbBits;
  std::uint64_t lo = limbs_[static_cast<std::size_t>(limb_idx)] >> offset;
  if (offset != 0 && limb_idx + 1 < num_limbs()) {
    lo |= limbs_[static_cast<std::size_t>(limb_idx + 1)] << (kLimbBits - offset);
  }
  return lo & mask_low(len);
}

void ApInt::deposit(int pos, int len, std::uint64_t v) {
  assert(len >= 1 && len <= 64);
  v &= mask_low(len);
  for (int i = 0; i < len; ++i) {
    const int bit_pos = pos + i;
    if (bit_pos >= width_) break;
    set_bit(bit_pos, (v >> i) & 1);
  }
}

AddResult ApInt::add(const ApInt& a, const ApInt& b, bool carry_in) {
  check_same_width(a, b);
  ApInt sum(a.width_);
  unsigned __int128 carry = carry_in ? 1 : 0;
  for (std::size_t i = 0; i < a.limbs_.size(); ++i) {
    const unsigned __int128 t =
        static_cast<unsigned __int128>(a.limbs_[i]) + b.limbs_[i] + carry;
    sum.limbs_[i] = static_cast<std::uint64_t>(t);
    carry = t >> 64;
  }
  // The carry out of bit width-1 (not out of the top limb) is what an n-bit
  // adder reports.  Recompute it from the top limb when width is not a
  // multiple of 64.
  bool cout;
  const int top_bits = a.width_ - (a.num_limbs() - 1) * kLimbBits;
  if (top_bits == kLimbBits) {
    cout = carry != 0;
  } else {
    cout = (sum.limbs_.back() >> top_bits) & 1;
  }
  sum.normalize();
  return {std::move(sum), cout};
}

ApInt ApInt::operator+(const ApInt& rhs) const { return add(*this, rhs).sum; }

ApInt ApInt::operator-(const ApInt& rhs) const { return add(*this, ~rhs, /*carry_in=*/true).sum; }

ApInt ApInt::negated() const {
  ApInt zero_v(width_);
  return zero_v - *this;
}

ApInt ApInt::operator&(const ApInt& rhs) const {
  check_same_width(*this, rhs);
  ApInt r(width_);
  for (std::size_t i = 0; i < limbs_.size(); ++i) r.limbs_[i] = limbs_[i] & rhs.limbs_[i];
  return r;
}

ApInt ApInt::operator|(const ApInt& rhs) const {
  check_same_width(*this, rhs);
  ApInt r(width_);
  for (std::size_t i = 0; i < limbs_.size(); ++i) r.limbs_[i] = limbs_[i] | rhs.limbs_[i];
  return r;
}

ApInt ApInt::operator^(const ApInt& rhs) const {
  check_same_width(*this, rhs);
  ApInt r(width_);
  for (std::size_t i = 0; i < limbs_.size(); ++i) r.limbs_[i] = limbs_[i] ^ rhs.limbs_[i];
  return r;
}

ApInt ApInt::operator~() const {
  ApInt r(width_);
  for (std::size_t i = 0; i < limbs_.size(); ++i) r.limbs_[i] = ~limbs_[i];
  r.normalize();
  return r;
}

ApInt ApInt::shl(int amount) const {
  if (amount < 0) throw std::invalid_argument("negative shift");
  ApInt r(width_);
  if (amount >= width_) return r;
  const int limb_shift = amount / kLimbBits;
  const int bit_shift = amount % kLimbBits;
  for (int i = num_limbs() - 1; i >= limb_shift; --i) {
    std::uint64_t v = limbs_[static_cast<std::size_t>(i - limb_shift)] << bit_shift;
    if (bit_shift != 0 && i - limb_shift - 1 >= 0) {
      v |= limbs_[static_cast<std::size_t>(i - limb_shift - 1)] >> (kLimbBits - bit_shift);
    }
    r.limbs_[static_cast<std::size_t>(i)] = v;
  }
  r.normalize();
  return r;
}

ApInt ApInt::shr(int amount) const {
  if (amount < 0) throw std::invalid_argument("negative shift");
  ApInt r(width_);
  if (amount >= width_) return r;
  const int limb_shift = amount / kLimbBits;
  const int bit_shift = amount % kLimbBits;
  for (int i = 0; i + limb_shift < num_limbs(); ++i) {
    std::uint64_t v = limbs_[static_cast<std::size_t>(i + limb_shift)] >> bit_shift;
    if (bit_shift != 0 && i + limb_shift + 1 < num_limbs()) {
      v |= limbs_[static_cast<std::size_t>(i + limb_shift + 1)] << (kLimbBits - bit_shift);
    }
    r.limbs_[static_cast<std::size_t>(i)] = v;
  }
  return r;
}

int ApInt::compare_unsigned(const ApInt& rhs) const {
  check_same_width(*this, rhs);
  for (int i = num_limbs() - 1; i >= 0; --i) {
    const auto a = limbs_[static_cast<std::size_t>(i)];
    const auto b = rhs.limbs_[static_cast<std::size_t>(i)];
    if (a != b) return a < b ? -1 : 1;
  }
  return 0;
}

int ApInt::compare_signed(const ApInt& rhs) const {
  check_same_width(*this, rhs);
  const bool sa = sign_bit();
  const bool sb = rhs.sign_bit();
  if (sa != sb) return sa ? -1 : 1;  // negative < positive
  return compare_unsigned(rhs);     // same sign: unsigned order matches
}

bool ApInt::is_zero() const {
  return std::all_of(limbs_.begin(), limbs_.end(), [](std::uint64_t l) { return l == 0; });
}

int ApInt::popcount() const {
  int n = 0;
  for (const auto l : limbs_) n += std::popcount(l);
  return n;
}

int ApInt::highest_set_bit() const {
  for (int i = num_limbs() - 1; i >= 0; --i) {
    const auto l = limbs_[static_cast<std::size_t>(i)];
    if (l != 0) return i * kLimbBits + 63 - std::countl_zero(l);
  }
  return -1;
}

ApInt ApInt::zext(int new_width) const {
  ApInt r(new_width);
  const std::size_t n = std::min(r.limbs_.size(), limbs_.size());
  std::copy_n(limbs_.begin(), n, r.limbs_.begin());
  r.normalize();
  return r;
}

ApInt ApInt::sext(int new_width) const {
  if (new_width <= width_ || !sign_bit()) return zext(new_width);
  ApInt r = (~ApInt(new_width));  // all ones
  // Clear the low `width_` bits then OR the value in.
  for (int i = 0; i < width_; ++i) r.set_bit(i, bit(i));
  return r;
}

std::int64_t ApInt::to_i64() const {
  std::int64_t v = static_cast<std::int64_t>(limbs_[0]);
  if (width_ < 64) {
    // Sign-extend from bit width-1.
    const std::uint64_t m = std::uint64_t{1} << (width_ - 1);
    const std::uint64_t u = limbs_[0];
    v = static_cast<std::int64_t>((u ^ m) - m);
  } else {
    // The value must fit: all higher bits equal the sign.
    assert(([&] {
      const bool neg = sign_bit();
      for (int i = 64; i < width_; ++i) {
        if (bit(i) != neg) return false;
      }
      return true;
    })());
  }
  return v;
}

std::string ApInt::to_binary() const {
  std::string s(static_cast<std::size_t>(width_), '0');
  for (int i = 0; i < width_; ++i) {
    if (bit(i)) s[static_cast<std::size_t>(width_ - 1 - i)] = '1';
  }
  return s;
}

std::string ApInt::to_hex() const {
  static const char* digits = "0123456789abcdef";
  const int num_digits = (width_ + 3) / 4;
  std::string s(static_cast<std::size_t>(num_digits), '0');
  for (int d = 0; d < num_digits; ++d) {
    const auto nib = extract(d * 4, std::min(4, width_ - d * 4));
    s[static_cast<std::size_t>(num_digits - 1 - d)] = digits[nib];
  }
  return s;
}

std::ostream& operator<<(std::ostream& os, const ApInt& v) {
  return os << "ApInt<" << v.width() << ">(0x" << v.to_hex() << ")";
}

bool PropagateGenerate::group_propagate(int pos, int len) const {
  for (int chunk = 0; chunk < len; chunk += 64) {
    const int l = std::min(64, len - chunk);
    if (pos + chunk + l > p.width()) return false;  // overhang never propagates
    const std::uint64_t bits = p.extract(pos + chunk, l);
    const std::uint64_t want = l >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << l) - 1);
    if (bits != want) return false;
  }
  return pos + len <= p.width();
}

bool PropagateGenerate::group_generate(int pos, int len) const {
  // Scan from the top of the window down: the window generates iff the
  // highest non-propagating bit is a generate.
  for (int i = pos + len - 1; i >= pos; --i) {
    if (i >= p.width()) return false;  // overhang bits are 0/0: kill
    if (p.bit(i)) continue;
    return g.bit(i);
  }
  return false;  // all-propagate window cannot generate
}

}  // namespace vlcsa::arith
