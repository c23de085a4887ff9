// Arbitrary-precision signed integers with a canonical small form.
// Fourier–Motzkin elimination multiplies constraint coefficients
// pairwise, so coefficient growth is exponential in the number of
// eliminated variables; exact big integers keep the quantifier
// elimination of Section 5 sound.
//
// Nearly every coefficient fits in a machine word, so a value that fits
// in int64_t lives inline in `small_` and `limbs_` stays empty (no heap
// allocation). Only values outside int64 use the limb vector
// (sign-magnitude, base 2^32); `small_` then holds the sign, +1 or -1.
// The form is canonical: a value fits int64 <=> it is stored small.
// Arithmetic on two small values uses checked int64 operations; any
// overflow promotes to the limb code, and every limb result that fits
// is demoted back, so results are exact and `==` never compares across
// forms.
#ifndef HAS_ARITH_BIGINT_H_
#define HAS_ARITH_BIGINT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace has {

class BigInt {
 public:
  BigInt() = default;
  // NOLINTNEXTLINE: implicit by design (literals)
  BigInt(int64_t value) : small_(value) {}

  static BigInt FromString(const std::string& text);

  // A limb value has small_ == +1 or -1, so small_ carries the sign of
  // every value and is 0 only for zero.
  bool is_zero() const { return small_ == 0; }
  bool is_negative() const { return small_ < 0; }
  int sign() const { return (small_ > 0) - (small_ < 0); }

  BigInt operator-() const;
  BigInt operator+(const BigInt& o) const {
    int64_t r;
    if (both_small(o) && !__builtin_add_overflow(small_, o.small_, &r)) {
      return BigInt(r);
    }
    return AddSlow(*this, o, /*negate_b=*/false);
  }
  BigInt operator-(const BigInt& o) const {
    int64_t r;
    if (both_small(o) && !__builtin_sub_overflow(small_, o.small_, &r)) {
      return BigInt(r);
    }
    return AddSlow(*this, o, /*negate_b=*/true);
  }
  BigInt operator*(const BigInt& o) const {
    int64_t r;
    if (both_small(o) && !__builtin_mul_overflow(small_, o.small_, &r)) {
      return BigInt(r);
    }
    return MulSlow(*this, o);
  }
  /// Truncated division (C semantics: quotient rounds toward zero).
  BigInt operator/(const BigInt& o) const;
  BigInt operator%(const BigInt& o) const;

  BigInt& operator+=(const BigInt& o) { return *this = *this + o; }
  BigInt& operator-=(const BigInt& o) { return *this = *this - o; }
  BigInt& operator*=(const BigInt& o) { return *this = *this * o; }

  bool operator==(const BigInt& o) const {
    return small_ == o.small_ && limbs_ == o.limbs_;
  }
  bool operator!=(const BigInt& o) const { return !(*this == o); }
  bool operator<(const BigInt& o) const {
    if (both_small(o)) return small_ < o.small_;
    return LessSlow(*this, o);
  }
  bool operator<=(const BigInt& o) const { return !(o < *this); }
  bool operator>(const BigInt& o) const { return o < *this; }
  bool operator>=(const BigInt& o) const { return !(*this < o); }

  static BigInt Gcd(BigInt a, BigInt b);
  BigInt Abs() const;

  /// Approximate double value (may overflow to +/-inf).
  double ToDouble() const;
  /// Exact value if it fits in int64, otherwise nullopt behaviour via
  /// ok=false.
  bool FitsInt64(int64_t* out) const {
    if (!is_small()) return false;
    *out = small_;
    return true;
  }

  std::string ToString() const;
  /// Hash of the sign-magnitude limb form, whichever form is stored.
  size_t Hash() const;

 private:
  using Limbs = std::vector<uint32_t>;

  bool is_small() const { return limbs_.empty(); }
  bool both_small(const BigInt& o) const {
    return limbs_.empty() && o.limbs_.empty();
  }

  static BigInt AddSlow(const BigInt& a, const BigInt& b, bool negate_b);
  static BigInt MulSlow(const BigInt& a, const BigInt& b);
  /// Limb division of any operands; returns the quotient, sets *rem.
  static BigInt DivModSlow(const BigInt& a, const BigInt& b, BigInt* rem);
  static bool LessSlow(const BigInt& a, const BigInt& b);

  /// The canonical value with the given sign and magnitude.
  static BigInt FromMagnitude(bool negative, Limbs mag);
  static BigInt FromMagnitude(bool negative, uint64_t mag);
  /// |x| as limbs: a limb value's own vector, or a small value spilled
  /// into *scratch.
  static const Limbs& MagnitudeOf(const BigInt& x, Limbs* scratch);

  static int CompareMagnitude(const Limbs& a, const Limbs& b);
  static Limbs AddMagnitude(const Limbs& a, const Limbs& b);
  /// Requires |a| >= |b|.
  static Limbs SubMagnitude(const Limbs& a, const Limbs& b);
  static Limbs MulMagnitude(const Limbs& a, const Limbs& b);
  /// Long division of magnitudes: returns the quotient, sets *rem.
  static Limbs DivMagnitude(const Limbs& a, const Limbs& b, Limbs* rem);
  /// Divides *a in place by a single limb; returns the remainder.
  static uint32_t DivMagnitudeBy(Limbs* a, uint32_t d);
  static void Trim(Limbs* limbs);

  int64_t small_ = 0;  // the value, or the sign when limbs_ is in use
  Limbs limbs_;        // values outside int64 only: |value|, little-endian,
                       // no leading 0
};

static_assert(sizeof(BigInt) <= 32, "BigInt must stay within 32 bytes");

}  // namespace has

#endif  // HAS_ARITH_BIGINT_H_
