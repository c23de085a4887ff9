#include "arith/rational.h"

#include "common/hashing.h"
#include "common/status.h"
#include "common/strings.h"

namespace has {

Rational::Rational(BigInt num, BigInt den)
    : num_(std::move(num)), den_(std::move(den)) {
  HAS_CHECK_MSG(!den_.is_zero(), "Rational with zero denominator");
  Normalize();
}

void Rational::Normalize() {
  if (den_.is_negative()) {
    num_ = -num_;
    den_ = -den_;
  }
  if (num_.is_zero()) {
    den_ = BigInt(1);
    return;
  }
  if (is_integer()) return;
  BigInt g = BigInt::Gcd(num_, den_);
  if (g != BigInt(1)) {
    num_ = num_ / g;
    den_ = den_ / g;
  }
}

Rational Rational::operator-() const {
  Rational out = *this;
  out.num_ = -out.num_;
  return out;
}

// Integer operands (denominator 1) are the common case: they skip the
// GCD and the cross-multiplications. a/b + c = (a + c*b)/b is already in
// lowest terms because gcd(a + c*b, b) = gcd(a, b) = 1; for b > 1 that
// also rules out a zero numerator.
Rational Rational::operator+(const Rational& o) const {
  if (o.is_integer()) return InLowestTerms(num_ + o.num_ * den_, den_);
  if (is_integer()) return InLowestTerms(num_ * o.den_ + o.num_, o.den_);
  return Rational(num_ * o.den_ + o.num_ * den_, den_ * o.den_);
}

Rational Rational::operator-(const Rational& o) const {
  if (o.is_integer()) return InLowestTerms(num_ - o.num_ * den_, den_);
  if (is_integer()) return InLowestTerms(num_ * o.den_ - o.num_, o.den_);
  return Rational(num_ * o.den_ - o.num_ * den_, den_ * o.den_);
}

Rational Rational::operator*(const Rational& o) const {
  if (is_integer() && o.is_integer()) {
    return InLowestTerms(num_ * o.num_, BigInt(1));
  }
  return Rational(num_ * o.num_, den_ * o.den_);
}

Rational Rational::operator/(const Rational& o) const {
  HAS_CHECK_MSG(!o.is_zero(), "Rational division by zero");
  return Rational(num_ * o.den_, den_ * o.num_);
}

bool Rational::operator<(const Rational& o) const {
  if (den_ == o.den_) return num_ < o.num_;
  return num_ * o.den_ < o.num_ * den_;
}

std::string Rational::ToString() const {
  if (is_integer()) return num_.ToString();
  return StrCat(num_.ToString(), "/", den_.ToString());
}

size_t Rational::Hash() const {
  size_t seed = num_.Hash();
  HashMix(&seed, den_.Hash());
  return seed;
}

}  // namespace has
