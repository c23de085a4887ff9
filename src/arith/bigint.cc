#include "arith/bigint.h"

#include <algorithm>

#include "common/hashing.h"
#include "common/status.h"

namespace has {

namespace {

constexpr uint64_t kTwoTo63 = UINT64_C(1) << 63;

/// |v| as an unsigned word (exact for INT64_MIN).
uint64_t AbsSmall(int64_t v) {
  return v < 0 ? 0 - static_cast<uint64_t>(v) : static_cast<uint64_t>(v);
}

}  // namespace

BigInt BigInt::FromMagnitude(bool negative, uint64_t mag) {
  if (!negative && mag < kTwoTo63) return BigInt(static_cast<int64_t>(mag));
  // Two's complement: -mag fits int64 for every mag <= 2^63.
  if (negative && mag <= kTwoTo63) {
    return BigInt(static_cast<int64_t>(0 - mag));
  }
  BigInt out;
  out.small_ = negative ? -1 : 1;
  out.limbs_ = {static_cast<uint32_t>(mag), static_cast<uint32_t>(mag >> 32)};
  return out;
}

BigInt BigInt::FromMagnitude(bool negative, Limbs mag) {
  Trim(&mag);
  if (mag.size() <= 2) {
    uint64_t word = 0;
    if (mag.size() >= 1) word = mag[0];
    if (mag.size() == 2) word |= static_cast<uint64_t>(mag[1]) << 32;
    return FromMagnitude(negative, word);
  }
  BigInt out;
  out.small_ = negative ? -1 : 1;
  out.limbs_ = std::move(mag);
  return out;
}

const BigInt::Limbs& BigInt::MagnitudeOf(const BigInt& x, Limbs* scratch) {
  if (!x.is_small()) return x.limbs_;
  scratch->clear();
  for (uint64_t mag = AbsSmall(x.small_); mag != 0; mag >>= 32) {
    scratch->push_back(static_cast<uint32_t>(mag));
  }
  return *scratch;
}

BigInt BigInt::FromString(const std::string& text) {
  BigInt out;
  size_t i = 0;
  bool neg = false;
  if (i < text.size() && (text[i] == '-' || text[i] == '+')) {
    neg = text[i] == '-';
    ++i;
  }
  BigInt ten(10);
  for (; i < text.size(); ++i) {
    HAS_CHECK_MSG(text[i] >= '0' && text[i] <= '9', "bad digit in BigInt");
    out = out * ten + BigInt(text[i] - '0');
  }
  return neg ? -out : out;
}

void BigInt::Trim(Limbs* limbs) {
  while (!limbs->empty() && limbs->back() == 0) limbs->pop_back();
}

int BigInt::CompareMagnitude(const Limbs& a, const Limbs& b) {
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  for (size_t i = a.size(); i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

BigInt::Limbs BigInt::AddMagnitude(const Limbs& a, const Limbs& b) {
  Limbs out;
  out.reserve(std::max(a.size(), b.size()) + 1);
  uint64_t carry = 0;
  for (size_t i = 0; i < std::max(a.size(), b.size()); ++i) {
    uint64_t sum = carry;
    if (i < a.size()) sum += a[i];
    if (i < b.size()) sum += b[i];
    out.push_back(static_cast<uint32_t>(sum & 0xffffffffu));
    carry = sum >> 32;
  }
  if (carry != 0) out.push_back(static_cast<uint32_t>(carry));
  return out;
}

BigInt::Limbs BigInt::SubMagnitude(const Limbs& a, const Limbs& b) {
  Limbs out;
  out.reserve(a.size());
  int64_t borrow = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    int64_t diff = static_cast<int64_t>(a[i]) - borrow -
                   (i < b.size() ? static_cast<int64_t>(b[i]) : 0);
    if (diff < 0) {
      diff += (INT64_C(1) << 32);
      borrow = 1;
    } else {
      borrow = 0;
    }
    out.push_back(static_cast<uint32_t>(diff));
  }
  Trim(&out);
  return out;
}

BigInt::Limbs BigInt::MulMagnitude(const Limbs& a, const Limbs& b) {
  if (a.empty() || b.empty()) return {};
  Limbs out(a.size() + b.size(), 0);
  for (size_t i = 0; i < a.size(); ++i) {
    uint64_t carry = 0;
    for (size_t j = 0; j < b.size(); ++j) {
      uint64_t cur = static_cast<uint64_t>(a[i]) * b[j] + out[i + j] + carry;
      out[i + j] = static_cast<uint32_t>(cur & 0xffffffffu);
      carry = cur >> 32;
    }
    size_t k = i + b.size();
    while (carry != 0) {
      uint64_t cur = out[k] + carry;
      out[k] = static_cast<uint32_t>(cur & 0xffffffffu);
      carry = cur >> 32;
      ++k;
    }
  }
  Trim(&out);
  return out;
}

uint32_t BigInt::DivMagnitudeBy(Limbs* a, uint32_t d) {
  uint64_t rem = 0;
  for (size_t i = a->size(); i-- > 0;) {
    const uint64_t cur = (rem << 32) | (*a)[i];
    (*a)[i] = static_cast<uint32_t>(cur / d);
    rem = cur % d;
  }
  Trim(a);
  return static_cast<uint32_t>(rem);
}

BigInt::Limbs BigInt::DivMagnitude(const Limbs& a, const Limbs& b,
                                   Limbs* rem) {
  HAS_CHECK_MSG(!b.empty(), "BigInt division by zero");
  if (CompareMagnitude(a, b) < 0) {
    *rem = a;
    Trim(rem);
    return {};
  }
  if (b.size() == 1) {
    Limbs quotient = a;
    const uint32_t r = DivMagnitudeBy(&quotient, b[0]);
    *rem = r == 0 ? Limbs{} : Limbs{r};
    return quotient;
  }
  // Bit-by-bit long division for multi-limb divisors.
  Limbs quotient(a.size(), 0);
  Limbs remainder;
  for (size_t bit_index = a.size() * 32; bit_index-- > 0;) {
    // remainder <<= 1 | bit
    uint32_t bit = (a[bit_index / 32] >> (bit_index % 32)) & 1u;
    uint32_t carry = bit;
    for (size_t i = 0; i < remainder.size(); ++i) {
      uint32_t next_carry = remainder[i] >> 31;
      remainder[i] = (remainder[i] << 1) | carry;
      carry = next_carry;
    }
    if (carry != 0) remainder.push_back(carry);
    Trim(&remainder);
    if (CompareMagnitude(remainder, b) >= 0) {
      remainder = SubMagnitude(remainder, b);
      quotient[bit_index / 32] |= (1u << (bit_index % 32));
    }
  }
  Trim(&quotient);
  *rem = std::move(remainder);
  return quotient;
}

BigInt BigInt::operator-() const {
  if (is_small()) {
    if (small_ == INT64_MIN) return FromMagnitude(false, kTwoTo63);
    return BigInt(-small_);
  }
  return FromMagnitude(!is_negative(), limbs_);
}

BigInt BigInt::AddSlow(const BigInt& a, const BigInt& b, bool negate_b) {
  Limbs scratch_a, scratch_b;
  const Limbs& ma = MagnitudeOf(a, &scratch_a);
  const Limbs& mb = MagnitudeOf(b, &scratch_b);
  const bool neg_a = a.is_negative();
  const bool neg_b = b.is_zero() ? false : (b.is_negative() != negate_b);
  if (neg_a == neg_b) return FromMagnitude(neg_a, AddMagnitude(ma, mb));
  const int cmp = CompareMagnitude(ma, mb);
  if (cmp == 0) return BigInt();
  if (cmp > 0) return FromMagnitude(neg_a, SubMagnitude(ma, mb));
  return FromMagnitude(neg_b, SubMagnitude(mb, ma));
}

BigInt BigInt::MulSlow(const BigInt& a, const BigInt& b) {
  Limbs scratch_a, scratch_b;
  return FromMagnitude(a.is_negative() != b.is_negative(),
                       MulMagnitude(MagnitudeOf(a, &scratch_a),
                                    MagnitudeOf(b, &scratch_b)));
}

BigInt BigInt::DivModSlow(const BigInt& a, const BigInt& b, BigInt* rem) {
  Limbs scratch_a, scratch_b, r;
  Limbs q = DivMagnitude(MagnitudeOf(a, &scratch_a),
                         MagnitudeOf(b, &scratch_b), &r);
  *rem = FromMagnitude(a.is_negative(), std::move(r));
  return FromMagnitude(a.is_negative() != b.is_negative(), std::move(q));
}

BigInt BigInt::operator/(const BigInt& o) const {
  if (both_small(o)) {
    HAS_CHECK_MSG(o.small_ != 0, "BigInt division by zero");
    // INT64_MIN / -1 = 2^63 is the one small quotient outside int64.
    if (!(small_ == INT64_MIN && o.small_ == -1)) {
      return BigInt(small_ / o.small_);
    }
  }
  BigInt rem;
  return DivModSlow(*this, o, &rem);
}

BigInt BigInt::operator%(const BigInt& o) const {
  if (both_small(o)) {
    HAS_CHECK_MSG(o.small_ != 0, "BigInt division by zero");
    // x % -1 is 0; INT64_MIN % -1 would trap in hardware.
    return o.small_ == -1 ? BigInt() : BigInt(small_ % o.small_);
  }
  BigInt rem;
  DivModSlow(*this, o, &rem);
  return rem;
}

bool BigInt::LessSlow(const BigInt& a, const BigInt& b) {
  if (a.sign() != b.sign()) return a.sign() < b.sign();
  // Same nonzero sign, at least one limb value. A limb value lies
  // outside int64, so it is farther from zero than any small value.
  if (a.is_small()) return !b.is_negative();
  if (b.is_small()) return a.is_negative();
  const int cmp = CompareMagnitude(a.limbs_, b.limbs_);
  return a.is_negative() ? cmp > 0 : cmp < 0;
}

BigInt BigInt::Gcd(BigInt a, BigInt b) {
  // Limb Euclid until both operands fit a word (one step, typically).
  while (!a.is_small() || !b.is_small()) {
    if (b.is_zero()) return a.Abs();
    BigInt r = a % b;
    a = std::move(b);
    b = std::move(r);
  }
  uint64_t x = AbsSmall(a.small_), y = AbsSmall(b.small_);
  while (y != 0) {
    const uint64_t r = x % y;
    x = y;
    y = r;
  }
  return FromMagnitude(false, x);  // x = 2^63 promotes
}

BigInt BigInt::Abs() const {
  if (!is_negative()) return *this;
  return -*this;
}

double BigInt::ToDouble() const {
  if (is_small()) return static_cast<double>(small_);
  double out = 0;
  for (size_t i = limbs_.size(); i-- > 0;) {
    out = out * 4294967296.0 + static_cast<double>(limbs_[i]);
  }
  return is_negative() ? -out : out;
}

std::string BigInt::ToString() const {
  if (is_small()) return std::to_string(small_);
  // Nine decimal digits per single-limb division by 10^9.
  constexpr uint32_t kChunk = 1000000000;
  std::string digits;
  Limbs mag = limbs_;
  while (!mag.empty()) {
    uint32_t chunk = DivMagnitudeBy(&mag, kChunk);
    for (int k = 0; k < 9 && (chunk != 0 || !mag.empty()); ++k) {
      digits.push_back(static_cast<char>('0' + chunk % 10));
      chunk /= 10;
    }
  }
  if (is_negative()) digits.push_back('-');
  std::reverse(digits.begin(), digits.end());
  return digits;
}

size_t BigInt::Hash() const {
  // The hash of the sign-magnitude limb form for every value, so the
  // stored form never shows in hash-ordered containers.
  size_t seed = is_negative() ? 1 : 0;
  if (is_small()) {
    for (uint64_t mag = AbsSmall(small_); mag != 0; mag >>= 32) {
      HashMix(&seed, static_cast<uint32_t>(mag));
    }
  } else {
    for (uint32_t limb : limbs_) HashMix(&seed, limb);
  }
  return seed;
}

}  // namespace has
