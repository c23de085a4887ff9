#include <gtest/gtest.h>

#include "data/generator.h"
#include "data/instance.h"

namespace has {
namespace {

DatabaseSchema TwoRelationSchema() {
  DatabaseSchema s;
  RelationId b = s.AddRelation("B");
  RelationId a = s.AddRelation("A");
  s.relation(b).AddNumericAttribute("v");
  s.relation(a).AddForeignKey("to_b", b);
  return s;
}

TEST(ValueTest, Basics) {
  EXPECT_TRUE(Value::Null().is_null());
  Value id = Value::Id(1, 7);
  EXPECT_TRUE(id.is_id());
  EXPECT_EQ(id.relation(), 1);
  EXPECT_EQ(id.id(), 7u);
  EXPECT_NE(id, Value::Id(0, 7));  // relation-tagged domains disjoint
  const Rational five_halves(BigInt(5), BigInt(2));
  EXPECT_EQ(Value::Real(five_halves).real(), five_halves);
  EXPECT_NE(Value::Real(five_halves), Value::Null());
  EXPECT_NE(Value::Real(five_halves), Value::Real(2));
}

TEST(InstanceTest, InsertAndFind) {
  DatabaseSchema s = TwoRelationSchema();
  DatabaseInstance db(&s);
  ASSERT_TRUE(db.Insert(0, {Value::Id(0, 1), Value::Real(3)}).ok());
  ASSERT_TRUE(db.Insert(1, {Value::Id(1, 1), Value::Id(0, 1)}).ok());
  EXPECT_EQ(db.TotalTuples(), 2u);
  EXPECT_NE(db.Find(0, Value::Id(0, 1)), nullptr);
  EXPECT_EQ(db.Find(0, Value::Id(0, 9)), nullptr);
  EXPECT_TRUE(db.CheckDependencies().ok());
}

TEST(InstanceTest, RejectsBadTyping) {
  DatabaseSchema s = TwoRelationSchema();
  DatabaseInstance db(&s);
  // numeric attribute must be real
  EXPECT_FALSE(db.Insert(0, {Value::Id(0, 1), Value::Id(0, 2)}).ok());
  // FK must reference the right relation
  EXPECT_FALSE(db.Insert(1, {Value::Id(1, 1), Value::Id(1, 1)}).ok());
  // duplicate key
  ASSERT_TRUE(db.Insert(0, {Value::Id(0, 1), Value::Real(0)}).ok());
  EXPECT_FALSE(db.Insert(0, {Value::Id(0, 1), Value::Real(1)}).ok());
}

TEST(InstanceTest, DanglingForeignKeyDetected) {
  DatabaseSchema s = TwoRelationSchema();
  DatabaseInstance db(&s);
  ASSERT_TRUE(db.Insert(1, {Value::Id(1, 1), Value::Id(0, 42)}).ok());
  EXPECT_FALSE(db.CheckDependencies().ok());
}

TEST(InstanceTest, Navigation) {
  DatabaseSchema s = TwoRelationSchema();
  DatabaseInstance db(&s);
  ASSERT_TRUE(db.Insert(0, {Value::Id(0, 5), Value::Real(9)}).ok());
  ASSERT_TRUE(db.Insert(1, {Value::Id(1, 1), Value::Id(0, 5)}).ok());
  // A(1).to_b.v == 9
  std::optional<Value> v = db.Navigate(Value::Id(1, 1), {1, 1});
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->real(), 9);
  EXPECT_FALSE(db.Navigate(Value::Id(1, 2), {1}).has_value());
}

TEST(InstanceTest, FreshIdInsertion) {
  DatabaseSchema s = TwoRelationSchema();
  DatabaseInstance db(&s);
  auto id1 = db.InsertWithFreshId(0, {Value::Real(1)});
  auto id2 = db.InsertWithFreshId(0, {Value::Real(2)});
  ASSERT_TRUE(id1.ok());
  ASSERT_TRUE(id2.ok());
  EXPECT_NE(*id1, *id2);
}

TEST(GeneratorTest, SatisfiesDependenciesOnCyclicSchema) {
  DatabaseSchema s;
  RelationId a = s.AddRelation("A");
  RelationId b = s.AddRelation("B");
  s.relation(a).AddForeignKey("to_b", b);
  s.relation(b).AddForeignKey("to_a", a);
  s.relation(a).AddNumericAttribute("v");
  GeneratorOptions options;
  options.tuples_per_relation = 5;
  DatabaseInstance db = GenerateInstance(s, options);
  EXPECT_EQ(db.TotalTuples(), 10u);
  EXPECT_TRUE(db.CheckDependencies().ok());
}

TEST(GeneratorTest, Deterministic) {
  DatabaseSchema s = TwoRelationSchema();
  GeneratorOptions options;
  options.seed = 123;
  DatabaseInstance a = GenerateInstance(s, options);
  DatabaseInstance b = GenerateInstance(s, options);
  EXPECT_EQ(a.ToString(), b.ToString());
}

}  // namespace
}  // namespace has
