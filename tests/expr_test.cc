#include <gtest/gtest.h>

#include "data/instance.h"
#include "expr/condition.h"
#include "expr/eval.h"

namespace has {
namespace {

struct Fixture {
  DatabaseSchema schema;
  VarScope scope;
  RelationId hotels, flights;
  int flight_id, hotel_id, price;

  Fixture() {
    hotels = schema.AddRelation("HOTELS");
    flights = schema.AddRelation("FLIGHTS");
    schema.relation(hotels).AddNumericAttribute("unit_price");
    schema.relation(flights).AddNumericAttribute("price");
    schema.relation(flights).AddForeignKey("comp", hotels);
    flight_id = scope.AddVar("flight_id", VarSort::kId);
    hotel_id = scope.AddVar("hotel_id", VarSort::kId);
    price = scope.AddVar("price", VarSort::kNumeric);
  }
};

TEST(ConditionTest, WellFormedness) {
  Fixture f;
  CondPtr ok = Condition::And(
      Condition::IsNull(f.flight_id),
      Condition::Rel(f.flights, {f.flight_id, f.price, f.hotel_id}));
  EXPECT_TRUE(ok->CheckWellFormed(f.scope, f.schema).ok());
  // ID compared with numeric is rejected.
  CondPtr bad = Condition::VarEq(f.flight_id, f.price);
  EXPECT_FALSE(bad->CheckWellFormed(f.scope, f.schema).ok());
  // Wrong arity rejected.
  CondPtr bad2 = Condition::Rel(f.flights, {f.flight_id});
  EXPECT_FALSE(bad2->CheckWellFormed(f.scope, f.schema).ok());
}

TEST(ConditionTest, AtomCollectionDeduplicates) {
  Fixture f;
  CondPtr c = Condition::Or(Condition::IsNull(f.flight_id),
                            Condition::Not(Condition::IsNull(f.flight_id)));
  std::vector<const Condition*> atoms;
  c->CollectAtoms(&atoms);
  EXPECT_EQ(atoms.size(), 1u);
}

TEST(ConditionTest, StructuralEqualityAndHash) {
  Fixture f;
  CondPtr a = Condition::VarEq(f.flight_id, f.hotel_id);
  CondPtr b = Condition::VarEq(f.flight_id, f.hotel_id);
  CondPtr c = Condition::VarEq(f.hotel_id, f.flight_id);
  EXPECT_TRUE(a->Equals(*b));
  EXPECT_EQ(a->Hash(), b->Hash());
  EXPECT_FALSE(a->Equals(*c));
}

TEST(ConditionTest, MapVars) {
  Fixture f;
  CondPtr c = Condition::VarEq(f.flight_id, f.hotel_id);
  CondPtr mapped = c->MapVars({f.hotel_id, f.flight_id, f.price});
  EXPECT_TRUE(mapped->Equals(*Condition::VarEq(f.hotel_id, f.flight_id)));
}

TEST(ConditionTest, UsesArithmeticDetection) {
  Fixture f;
  LinearExpr tag = LinearExpr::Var(f.price);
  tag.AddConstant(Rational(-1));
  // price == 1 (constant tag): not "real" arithmetic.
  EXPECT_FALSE(Condition::Arith(LinearConstraint{tag, Relop::kEq})
                   ->UsesArithmetic());
  EXPECT_TRUE(Condition::Arith(LinearConstraint{tag, Relop::kLe})
                  ->UsesArithmetic());
}

TEST(EvalTest, EqualityAndNull) {
  Fixture f;
  DatabaseInstance db(&f.schema);
  Valuation nu(3);
  nu[f.flight_id] = Value::Null();
  nu[f.hotel_id] = Value::Id(f.hotels, 1);
  nu[f.price] = Value::Real(5);
  EXPECT_TRUE(EvalCondition(*Condition::IsNull(f.flight_id), db, nu));
  EXPECT_FALSE(EvalCondition(*Condition::IsNull(f.hotel_id), db, nu));
  EXPECT_FALSE(
      EvalCondition(*Condition::VarEq(f.flight_id, f.hotel_id), db, nu));
}

TEST(EvalTest, RelationAtomSemantics) {
  Fixture f;
  DatabaseInstance db(&f.schema);
  ASSERT_TRUE(db.Insert(f.hotels, {Value::Id(f.hotels, 1), Value::Real(80)})
                  .ok());
  ASSERT_TRUE(db.Insert(f.flights, {Value::Id(f.flights, 7), Value::Real(5),
                                    Value::Id(f.hotels, 1)})
                  .ok());
  CondPtr atom =
      Condition::Rel(f.flights, {f.flight_id, f.price, f.hotel_id});
  Valuation nu(3);
  nu[f.flight_id] = Value::Id(f.flights, 7);
  nu[f.price] = Value::Real(5);
  nu[f.hotel_id] = Value::Id(f.hotels, 1);
  EXPECT_TRUE(EvalCondition(*atom, db, nu));
  nu[f.price] = Value::Real(6);
  EXPECT_FALSE(EvalCondition(*atom, db, nu));
  // Null argument makes the atom false (paper semantics).
  nu[f.price] = Value::Real(5);
  nu[f.hotel_id] = Value::Null();
  EXPECT_FALSE(EvalCondition(*atom, db, nu));
}

TEST(EvalTest, ArithmeticAtoms) {
  Fixture f;
  DatabaseInstance db(&f.schema);
  Valuation nu(3);
  nu[f.flight_id] = Value::Null();
  nu[f.hotel_id] = Value::Null();
  nu[f.price] = Value::Real(4);
  LinearExpr e = LinearExpr::Var(f.price);
  e.AddConstant(Rational(-5));  // price - 5
  EXPECT_TRUE(
      EvalCondition(*Condition::Arith(LinearConstraint{e, Relop::kLt}), db,
                    nu));
  EXPECT_FALSE(
      EvalCondition(*Condition::Arith(LinearConstraint{e, Relop::kEq}), db,
                    nu));
  // Boolean structure.
  CondPtr both = Condition::And(
      Condition::Arith(LinearConstraint{e, Relop::kLt}),
      Condition::Not(Condition::Arith(LinearConstraint{e, Relop::kEq})));
  EXPECT_TRUE(EvalCondition(*both, db, nu));
}

// Decimal constants are exact in concrete runs: 0.1 is 1/10, not the
// nearest double, so price = 0.1 satisfies both `price - 1/10 <= 0` and
// `price - 1/10 = 0`, and 0.1 + 0.2 = 0.3 holds.
TEST(EvalTest, DecimalConstantsAreExact) {
  Fixture f;
  DatabaseInstance db(&f.schema);
  auto tenths = [](int64_t k) { return Rational(BigInt(k), BigInt(10)); };
  const int other = 3;  // a second numeric variable, y
  Valuation nu(4);
  nu[f.price] = Value::Real(tenths(1));
  nu[other] = Value::Real(tenths(2));
  LinearExpr x_minus = LinearExpr::Var(f.price);
  x_minus.AddConstant(-tenths(1));  // x - 1/10
  for (Relop op : {Relop::kLe, Relop::kEq}) {
    CondPtr atom = Condition::Arith(LinearConstraint{x_minus, op});
    EXPECT_TRUE(EvalCondition(*atom, db, nu)) << RelopName(op);
  }
  EXPECT_FALSE(EvalCondition(
      *Condition::Arith(LinearConstraint{x_minus, Relop::kLt}), db, nu));
  EXPECT_TRUE(EvalCondition(
      *Condition::Eq(Term::Var(f.price), Term::Const(tenths(1))), db, nu));
  LinearExpr sum = LinearExpr::Var(f.price) + LinearExpr::Var(other);
  sum.AddConstant(-tenths(3));  // x + y - 3/10
  EXPECT_TRUE(EvalCondition(
      *Condition::Arith(LinearConstraint{sum, Relop::kEq}), db, nu));
}

}  // namespace
}  // namespace has
