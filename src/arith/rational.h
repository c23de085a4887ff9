// Exact rational numbers (normalized BigInt fractions). The arithmetic
// variant of the verifier works over Q (linear constraints with integer
// coefficients), as sanctioned by Section 5 of the paper.
#ifndef HAS_ARITH_RATIONAL_H_
#define HAS_ARITH_RATIONAL_H_

#include <string>
#include <utility>

#include "arith/bigint.h"

namespace has {

class Rational {
 public:
  Rational() : num_(0), den_(1) {}
  Rational(int64_t value) : num_(value), den_(1) {}  // NOLINT: implicit
  Rational(BigInt num, BigInt den);

  const BigInt& num() const { return num_; }
  const BigInt& den() const { return den_; }

  bool is_zero() const { return num_.is_zero(); }
  int sign() const { return num_.sign(); }

  Rational operator-() const;
  Rational operator+(const Rational& o) const;
  Rational operator-(const Rational& o) const;
  Rational operator*(const Rational& o) const;
  Rational operator/(const Rational& o) const;

  Rational& operator+=(const Rational& o) { return *this = *this + o; }
  Rational& operator-=(const Rational& o) { return *this = *this - o; }
  Rational& operator*=(const Rational& o) { return *this = *this * o; }

  bool operator==(const Rational& o) const {
    return num_ == o.num_ && den_ == o.den_;
  }
  bool operator!=(const Rational& o) const { return !(*this == o); }
  bool operator<(const Rational& o) const;
  bool operator<=(const Rational& o) const { return !(o < *this); }
  bool operator>(const Rational& o) const { return o < *this; }
  bool operator>=(const Rational& o) const { return !(*this < o); }

  double ToDouble() const { return num_.ToDouble() / den_.ToDouble(); }
  std::string ToString() const;
  size_t Hash() const;

 private:
  /// num/den without normalizing: the caller guarantees lowest terms,
  /// den > 0, and den = 1 when num = 0.
  static Rational InLowestTerms(BigInt num, BigInt den) {
    Rational out;
    out.num_ = std::move(num);
    out.den_ = std::move(den);
    return out;
  }
  bool is_integer() const { return den_ == BigInt(1); }
  void Normalize();

  BigInt num_;
  BigInt den_;  // always > 0
};

}  // namespace has

#endif  // HAS_ARITH_RATIONAL_H_
