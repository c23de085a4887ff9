#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "arith/bigint.h"
#include "arith/fourier_motzkin.h"
#include "arith/rational.h"

namespace has {
namespace {

TEST(BigIntTest, Arithmetic) {
  BigInt a(1000000007);
  BigInt b(998244353);
  EXPECT_EQ((a + b).ToString(), "1998244360");
  EXPECT_EQ((a - b).ToString(), "1755654");
  EXPECT_EQ((b - a).ToString(), "-1755654");
  EXPECT_EQ((a * b).ToString(), "998244359987710471");
  EXPECT_EQ((a * b / b).ToString(), a.ToString());
  EXPECT_EQ((a % b), a - b * (a / b));
}

TEST(BigIntTest, LargeMultiplication) {
  BigInt a = BigInt::FromString("123456789012345678901234567890");
  BigInt b = BigInt::FromString("987654321098765432109876543210");
  EXPECT_EQ((a * b).ToString(),
            "121932631137021795226185032733622923332237463801111263526900");
  EXPECT_EQ(a * b / a, b);
}

TEST(BigIntTest, Comparisons) {
  EXPECT_LT(BigInt(-5), BigInt(3));
  EXPECT_LT(BigInt(-5), BigInt(-3));
  EXPECT_GT(BigInt(100), BigInt(99));
  EXPECT_EQ(BigInt(0), BigInt(0) * BigInt(-7));
}

TEST(BigIntTest, Gcd) {
  EXPECT_EQ(BigInt::Gcd(BigInt(48), BigInt(-18)), BigInt(6));
  EXPECT_EQ(BigInt::Gcd(BigInt(0), BigInt(5)), BigInt(5));
}

TEST(BigIntTest, FitsInt64) {
  int64_t out = 0;
  EXPECT_TRUE(BigInt(-42).FitsInt64(&out));
  EXPECT_EQ(out, -42);
  BigInt huge = BigInt::FromString("99999999999999999999999999");
  EXPECT_FALSE(huge.FitsInt64(&out));
}

// ---- Differential tests of the small/limb representation against an
// __int128 reference. Every result is compared by value (ToString), and
// by canonical form: equal to the value parsed back, same Hash(), and
// FitsInt64 exactly when the reference fits int64.

using i128 = __int128;

std::string I128ToString(i128 v) {
  if (v == 0) return "0";
  const bool neg = v < 0;
  unsigned __int128 mag = neg ? -static_cast<unsigned __int128>(v)
                              : static_cast<unsigned __int128>(v);
  std::string digits;
  for (; mag != 0; mag /= 10) {
    digits.push_back(static_cast<char>('0' + mag % 10));
  }
  if (neg) digits.push_back('-');
  return std::string(digits.rbegin(), digits.rend());
}

BigInt Big(i128 v) { return BigInt::FromString(I128ToString(v)); }

bool FitsI64(i128 v) { return v >= INT64_MIN && v <= INT64_MAX; }

i128 GcdRef(i128 a, i128 b) {
  a = a < 0 ? -a : a;
  b = b < 0 ? -b : b;
  while (b != 0) {
    const i128 r = a % b;
    a = b;
    b = r;
  }
  return a;
}

void ExpectValue(const BigInt& got, i128 want, const std::string& what) {
  SCOPED_TRACE(what);
  ASSERT_EQ(got.ToString(), I128ToString(want));
  const BigInt parsed = Big(want);
  EXPECT_EQ(got, parsed);
  EXPECT_EQ(got.Hash(), parsed.Hash());
  EXPECT_EQ(got.sign(), want < 0 ? -1 : (want > 0 ? 1 : 0));
  int64_t out = 0;
  EXPECT_EQ(got.FitsInt64(&out), FitsI64(want));
  if (FitsI64(want)) {
    EXPECT_EQ(out, static_cast<int64_t>(want));
    EXPECT_EQ(got, BigInt(static_cast<int64_t>(want)));
    EXPECT_EQ(got.ToDouble(), static_cast<double>(static_cast<int64_t>(want)));
  }
}

/// Operands clustered at 0 and around +-2^31, +-2^32, +-2^62 and the
/// int64 limits.
int64_t ClusteredOperand(std::mt19937_64* rng) {
  static const i128 kCenters[] = {0,
                                  i128{1} << 31, -(i128{1} << 31),
                                  i128{1} << 32, -(i128{1} << 32),
                                  i128{1} << 62, -(i128{1} << 62),
                                  INT64_MIN, INT64_MAX};
  const i128 center = kCenters[(*rng)() % (sizeof(kCenters) / sizeof(i128))];
  const i128 v = center + static_cast<i128>((*rng)() % 7) - 3;
  return static_cast<int64_t>(std::min<i128>(INT64_MAX,
                                             std::max<i128>(INT64_MIN, v)));
}

TEST(BigIntDifferential, SmallOperandsMatchInt128) {
  std::mt19937_64 rng(20240601);
  for (int iter = 0; iter < 20000; ++iter) {
    const int64_t x = ClusteredOperand(&rng), y = ClusteredOperand(&rng);
    const BigInt a(x), b(y);
    const std::string ctx = I128ToString(x) + " op " + I128ToString(y);
    ExpectValue(a + b, i128{x} + y, ctx + " +");
    ExpectValue(a - b, i128{x} - y, ctx + " -");
    ExpectValue(a * b, i128{x} * y, ctx + " *");
    ExpectValue(BigInt::Gcd(a, b), GcdRef(x, y), ctx + " gcd");
    if (y != 0) {
      // C truncation semantics, as i128 / and % give.
      ExpectValue(a / b, i128{x} / y, ctx + " /");
      ExpectValue(a % b, i128{x} % y, ctx + " %");
    }
    EXPECT_EQ(a < b, x < y) << ctx;
    EXPECT_EQ(a == b, x == y) << ctx;
    EXPECT_EQ(a.Hash() == b.Hash(), x == y) << ctx;
  }
}

TEST(BigIntDifferential, PromotedOperandsMatchInt128) {
  // Products of two int64 operands reach 2^126: limb values on both
  // sides of +, -, /, %, Gcd and <, with divisors of one and two limbs.
  std::mt19937_64 rng(77);
  for (int iter = 0; iter < 20000; ++iter) {
    const i128 p = i128{ClusteredOperand(&rng)} * ClusteredOperand(&rng);
    const i128 q = i128{ClusteredOperand(&rng)} * ClusteredOperand(&rng);
    const i128 s = ClusteredOperand(&rng);
    const BigInt bp = Big(p), bq = Big(q), bs = Big(s);
    const std::string ctx = I128ToString(p) + " op " + I128ToString(q) +
                            " op " + I128ToString(s);
    ExpectValue(bp + bq, p + q, ctx + " +");
    ExpectValue(bp - bq, p - q, ctx + " -");
    ExpectValue(bp + bs, p + s, ctx + " +s");
    ExpectValue(BigInt::Gcd(bp, bq), GcdRef(p, q), ctx + " gcd");
    ExpectValue(BigInt::Gcd(bp, bs), GcdRef(p, s), ctx + " gcd s");
    for (const auto& [num, den] : {std::pair{p, q}, std::pair{p, s},
                                   std::pair{s, q}}) {
      if (den == 0) continue;
      ExpectValue(Big(num) / Big(den), num / den, ctx + " /");
      ExpectValue(Big(num) % Big(den), num % den, ctx + " %");
    }
    EXPECT_EQ(bp < bq, p < q) << ctx;
    EXPECT_EQ(bp < bs, p < s) << ctx;
    EXPECT_EQ(bs < bp, s < p) << ctx;
    EXPECT_EQ(bp == bq, p == q) << ctx;
    ExpectValue(-bp, -p, ctx + " neg");
    ExpectValue(bp.Abs(), p < 0 ? -p : p, ctx + " abs");
  }
}

TEST(BigIntDifferential, DirectedBoundaryCases) {
  const BigInt min(INT64_MIN), max(INT64_MAX);
  const i128 two63 = i128{1} << 63;
  ExpectValue(-min, two63, "-INT64_MIN");
  ExpectValue(min.Abs(), two63, "Abs(INT64_MIN)");
  ExpectValue(min / BigInt(-1), two63, "INT64_MIN / -1");
  ExpectValue(min % BigInt(-1), 0, "INT64_MIN % -1");
  ExpectValue(BigInt::Gcd(min, BigInt(0)), two63, "Gcd(INT64_MIN, 0)");
  ExpectValue(BigInt::Gcd(BigInt(0), min), two63, "Gcd(0, INT64_MIN)");
  ExpectValue(BigInt::Gcd(min, min), two63, "Gcd(INT64_MIN, INT64_MIN)");
  ExpectValue(-(-min), INT64_MIN, "-(-INT64_MIN) demotes");
  ExpectValue(max + BigInt(1), two63, "INT64_MAX + 1");
  ExpectValue(max + BigInt(1) - BigInt(1), INT64_MAX, "back into range");
  ExpectValue(min - BigInt(1), -two63 - 1, "INT64_MIN - 1");
  // A product that overflows, then is divided back into range, is the
  // small literal again: same ==, same Hash().
  const BigInt root(INT64_C(3037000500));  // root^2 > INT64_MAX
  const BigInt product = root * root;
  ExpectValue(product, i128{3037000500} * 3037000500, "overflowing product");
  const BigInt back = product / root;
  EXPECT_EQ(back, BigInt(INT64_C(3037000500)));
  EXPECT_EQ(back.Hash(), BigInt(INT64_C(3037000500)).Hash());
  EXPECT_EQ(max * max / max, max);
  EXPECT_EQ((min * min / min).Hash(), min.Hash());
}

TEST(BigIntDifferential, StringRoundTripAcrossBoundary) {
  const i128 two63 = i128{1} << 63, two64 = i128{1} << 64;
  for (i128 center : {i128{0}, i128{1} << 31, i128{1} << 32, two63, two64,
                      i128{1} << 95, i128{1000000000} * 1000000000}) {
    for (i128 d = -3; d <= 3; ++d) {
      for (i128 v : {center + d, -(center + d)}) {
        const std::string text = I128ToString(v);
        const BigInt parsed = BigInt::FromString(text);
        EXPECT_EQ(parsed.ToString(), text);
        ExpectValue(parsed, v, text);
      }
    }
  }
  // Chunked printing keeps inner zero runs.
  const std::string zeros = "-100000000000000000000000000000000000000001";
  EXPECT_EQ(BigInt::FromString(zeros).ToString(), zeros);
  EXPECT_EQ(BigInt::FromString("+0").ToString(), "0");
  EXPECT_EQ(BigInt::FromString("-0"), BigInt(0));
  EXPECT_EQ(BigInt::FromString("000123"), BigInt(123));
}

TEST(BigIntDifferential, WideDivisionMatchesMultiplication) {
  // Dividends and divisors of several limbs, checked by q * b + r == a,
  // |r| < |b|.
  std::mt19937_64 rng(5);
  auto random_big = [&rng](int limbs) {
    BigInt v(0);
    for (int i = 0; i < limbs; ++i) {
      // Mostly extreme limbs: all-ones and top-bit patterns stress
      // carries and borrows.
      const uint64_t pick = rng() % 4;
      const int64_t limb = pick == 0   ? INT64_C(0xffffffff)
                           : pick == 1 ? INT64_C(0x80000000)
                                       : static_cast<int64_t>(rng() >> 32);
      v = v * BigInt(INT64_C(1) << 32) + BigInt(limb);
    }
    return rng() % 2 == 0 ? v : -v;
  };
  for (int iter = 0; iter < 3000; ++iter) {
    const BigInt a = random_big(1 + static_cast<int>(rng() % 8));
    const BigInt b = random_big(1 + static_cast<int>(rng() % 5));
    if (b.is_zero()) continue;
    const BigInt q = a / b, r = a % b;
    EXPECT_EQ(q * b + r, a);
    EXPECT_LT(r.Abs(), b.Abs());
    EXPECT_TRUE(r.is_zero() || r.sign() == a.sign());
    EXPECT_EQ(BigInt::FromString(a.ToString()), a);
  }
}

TEST(BigIntDifferential, PinnedHashValues) {
  // Hash() is part of the interning contract: TypePool bucket order, and
  // with it every interned id, depends on it. These are the values of
  // the sign-magnitude limb hash; a change must fail here first.
  if (sizeof(size_t) != 8) GTEST_SKIP() << "pinned for 64-bit size_t";
  const std::pair<const char*, uint64_t> kPinned[] = {
      {"0", UINT64_C(0)},
      {"1", UINT64_C(11400714819323198486)},
      {"-1", UINT64_C(11400714819323198551)},
      {"42", UINT64_C(11400714819323198527)},
      {"-42", UINT64_C(11400714819323198590)},
      {"4294967295", UINT64_C(11400714823618165780)},
      {"4294967296", UINT64_C(14813675350809533518)},
      {"-4294967296", UINT64_C(14813675350809529471)},
      {"9223372036854775807", UINT64_C(14813675570926607373)},
      {"-9223372036854775808", UINT64_C(14813675292827470974)},
      {"9223372036854775808", UINT64_C(14813675292827475023)},
      {"-9223372036854775809", UINT64_C(14813675292827471037)},
      {"18446744073709551616", UINT64_C(18111443614409783974)},
      {"123456789012345678901234567890", UINT64_C(5195440555879884090)},
      {"-123456789012345678901234567890", UINT64_C(5195440555115490326)},
  };
  for (const auto& [text, hash] : kPinned) {
    EXPECT_EQ(BigInt::FromString(text).Hash(), hash) << text;
  }
  EXPECT_EQ(Rational(BigInt(1), BigInt(3)).Hash(),
            UINT64_C(8064884771342049444));
  EXPECT_EQ(Rational(BigInt(-7), BigInt(2)).Hash(),
            UINT64_C(8064884771342045918));
}

TEST(RationalDifferential, IntegerFastPathsMatchGeneralForm) {
  // Denominator-1 shortcuts must give the normalized result of the
  // general cross-multiplied formula.
  std::mt19937_64 rng(11);
  auto random_rational = [&rng]() {
    const int64_t num = static_cast<int64_t>(rng() % 41) - 20;
    const int64_t den =
        rng() % 3 == 0 ? 1 : 1 + static_cast<int64_t>(rng() % 12);
    return Rational(BigInt(num), BigInt(den));
  };
  for (int iter = 0; iter < 5000; ++iter) {
    const Rational a = random_rational(), b = random_rational();
    const BigInt &an = a.num(), &ad = a.den(), &bn = b.num(), &bd = b.den();
    EXPECT_EQ(a + b, Rational(an * bd + bn * ad, ad * bd));
    EXPECT_EQ(a - b, Rational(an * bd - bn * ad, ad * bd));
    EXPECT_EQ(a * b, Rational(an * bn, ad * bd));
    EXPECT_EQ(a < b, an * bd < bn * ad);
    EXPECT_TRUE(BigInt::Gcd((a + b).num(), (a + b).den()) == BigInt(1));
    EXPECT_EQ((a - b).den().sign(), 1);
  }
}

TEST(RationalTest, NormalizedArithmetic) {
  Rational half(BigInt(1), BigInt(2));
  Rational third(BigInt(1), BigInt(3));
  EXPECT_EQ((half + third).ToString(), "5/6");
  EXPECT_EQ((half * third).ToString(), "1/6");
  EXPECT_EQ((half - half).ToString(), "0");
  EXPECT_EQ((half / third).ToString(), "3/2");
  EXPECT_LT(third, half);
  EXPECT_EQ(Rational(BigInt(2), BigInt(-4)).ToString(), "-1/2");
}

LinearExpr Expr(std::vector<std::pair<int, int>> terms, int constant) {
  LinearExpr e;
  for (auto [v, c] : terms) e.AddTerm(v, Rational(c));
  e.AddConstant(Rational(constant));
  return e;
}

TEST(FourierMotzkinTest, SatisfiableBox) {
  LinearSystem s;
  s.Add(Expr({{0, -1}}, 0), Relop::kLe);      // -x <= 0
  s.Add(Expr({{0, 1}}, -10), Relop::kLe);     // x <= 10
  s.Add(Expr({{1, 1}, {0, -1}}, 0), Relop::kEq);  // y = x
  EXPECT_TRUE(FourierMotzkin::IsSatisfiable(s));
}

TEST(FourierMotzkinTest, UnsatisfiableStrict) {
  LinearSystem s;
  s.Add(Expr({{0, 1}}, 0), Relop::kLt);   // x < 0
  s.Add(Expr({{0, -1}}, 0), Relop::kLt);  // x > 0
  EXPECT_FALSE(FourierMotzkin::IsSatisfiable(s));
}

TEST(FourierMotzkinTest, EqualityChainContradiction) {
  LinearSystem s;
  s.Add(Expr({{0, 1}, {1, -1}}, 0), Relop::kEq);  // x = y
  s.Add(Expr({{1, 1}, {2, -1}}, 0), Relop::kEq);  // y = z
  s.Add(Expr({{0, 1}, {2, -1}}, -1), Relop::kEq); // x = z + 1
  EXPECT_FALSE(FourierMotzkin::IsSatisfiable(s));
}

TEST(FourierMotzkinTest, ProjectionKeepsImpliedBound) {
  // x <= y, y <= z  projected onto {x, z} must imply x <= z.
  LinearSystem s;
  s.Add(Expr({{0, 1}, {1, -1}}, 0), Relop::kLe);
  s.Add(Expr({{1, 1}, {2, -1}}, 0), Relop::kLe);
  LinearSystem p = FourierMotzkin::Project(s, {0, 2});
  EXPECT_TRUE(FourierMotzkin::Entails(
      p, LinearConstraint{Expr({{0, 1}, {2, -1}}, 0), Relop::kLe}));
  // But nothing stronger.
  EXPECT_FALSE(FourierMotzkin::Entails(
      p, LinearConstraint{Expr({{0, 1}, {2, -1}}, 0), Relop::kLt}));
}

TEST(FourierMotzkinTest, EntailsEquality) {
  LinearSystem s;
  s.Add(Expr({{0, 1}}, -3), Relop::kLe);   // x <= 3
  s.Add(Expr({{0, -1}}, 3), Relop::kLe);   // x >= 3
  EXPECT_TRUE(FourierMotzkin::Entails(
      s, LinearConstraint{Expr({{0, 1}}, -3), Relop::kEq}));
}

TEST(FourierMotzkinTest, Disequalities) {
  // 0 <= x <= 1 with x != 0 and x != 1 is satisfiable over Q...
  LinearSystem s;
  s.Add(Expr({{0, -1}}, 0), Relop::kLe);
  s.Add(Expr({{0, 1}}, -1), Relop::kLe);
  EXPECT_TRUE(FourierMotzkin::IsSatisfiableWithDisequalities(
      s, {Expr({{0, 1}}, 0), Expr({{0, 1}}, -1)}));
  // ... but x = 0 forced plus x != 0 is not.
  LinearSystem t;
  t.Add(Expr({{0, 1}}, 0), Relop::kEq);
  EXPECT_FALSE(FourierMotzkin::IsSatisfiableWithDisequalities(
      t, {Expr({{0, 1}}, 0)}));
}

class FmRandomSweep : public ::testing::TestWithParam<int> {};

TEST_P(FmRandomSweep, ProjectionSoundOnRandomSystems) {
  // Property: if the original system is satisfiable, the projection is
  // satisfiable; if the projection is unsat, so is the original.
  std::mt19937 rng(GetParam());
  std::uniform_int_distribution<int> coef(-3, 3);
  for (int round = 0; round < 20; ++round) {
    LinearSystem s;
    for (int c = 0; c < 5; ++c) {
      LinearExpr e;
      for (int v = 0; v < 4; ++v) e.AddTerm(v, Rational(coef(rng)));
      e.AddConstant(Rational(coef(rng)));
      s.Add(std::move(e), round % 2 == 0 ? Relop::kLe : Relop::kLt);
    }
    bool sat = FourierMotzkin::IsSatisfiable(s);
    LinearSystem p = FourierMotzkin::Project(s, {0, 1});
    bool proj_sat = FourierMotzkin::IsSatisfiable(p);
    EXPECT_EQ(sat, proj_sat);  // ∃-projection preserves satisfiability
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FmRandomSweep, ::testing::Range(1, 6));

}  // namespace
}  // namespace has
