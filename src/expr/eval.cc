#include "expr/eval.h"

#include "common/status.h"

namespace has {

namespace {

Value TermValue(const Term& t, const Valuation& nu) {
  switch (t.kind) {
    case Term::Kind::kVar:
      HAS_CHECK_MSG(t.var >= 0 && t.var < static_cast<int>(nu.size()),
                    "term variable out of valuation range");
      return nu[t.var];
    case Term::Kind::kNull:
      return Value::Null();
    case Term::Kind::kConst:
      return Value::Real(t.value);
  }
  return Value::Null();
}

}  // namespace

bool EvalCondition(const Condition& cond, const DatabaseInstance& db,
                   const Valuation& nu) {
  switch (cond.kind()) {
    case CondKind::kTrue:
      return true;
    case CondKind::kFalse:
      return false;
    case CondKind::kEq:
      return TermValue(cond.lhs(), nu) == TermValue(cond.rhs(), nu);
    case CondKind::kRel: {
      // R(x, a1, ..., ak): false if any argument is null; otherwise the
      // tuple identified by the first argument must exist and match the
      // remaining arguments attribute-wise.
      const std::vector<int>& args = cond.args();
      for (int a : args) {
        if (nu[a].is_null()) return false;
      }
      const Value& id = nu[args[0]];
      const Tuple* t = db.Find(cond.relation(), id);
      if (t == nullptr) return false;
      for (size_t i = 1; i < args.size(); ++i) {
        if ((*t)[i] != nu[args[i]]) return false;
      }
      return true;
    }
    case CondKind::kArith: {
      const LinearConstraint& c = cond.constraint();
      Rational value = c.expr.Eval([&nu](ArithVar v) {
        HAS_CHECK_MSG(v >= 0 && v < static_cast<int>(nu.size()),
                      "arith variable out of valuation range");
        HAS_CHECK_MSG(nu[v].is_real(), "arith variable bound to non-real");
        return nu[v].real();
      });
      switch (c.op) {
        case Relop::kLt:
          return value.sign() < 0;
        case Relop::kLe:
          return value.sign() <= 0;
        case Relop::kEq:
          return value.sign() == 0;
      }
      return false;
    }
    case CondKind::kNot:
      return !EvalCondition(*cond.child(0), db, nu);
    case CondKind::kAnd:
      return EvalCondition(*cond.child(0), db, nu) &&
             EvalCondition(*cond.child(1), db, nu);
    case CondKind::kOr:
      return EvalCondition(*cond.child(0), db, nu) ||
             EvalCondition(*cond.child(1), db, nu);
  }
  return false;
}

}  // namespace has
