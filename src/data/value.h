// Concrete values for artifact variables and database attributes.
// Per Definition 1, ID domains are pairwise-disjoint countable sets (one
// per relation), disjoint from the numeric domain R; `null` is a special
// constant outside every domain. IDs are therefore tagged with their
// relation. Numbers are exact rationals, the same domain the symbolic
// engine decides over, so a decimal constant such as 0.1 means 1/10 in
// both semantics.
#ifndef HAS_DATA_VALUE_H_
#define HAS_DATA_VALUE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <type_traits>
#include <utility>

#include "arith/rational.h"
#include "common/hashing.h"
#include "schema/schema.h"

namespace has {

enum class ValueKind : uint8_t { kNull, kId, kReal };

/// A concrete value: null, a relation-tagged ID, or an exact rational
/// number. Value type; compared structurally.
class Value {
 public:
  Value() : kind_(ValueKind::kNull), relation_(kNoRelation), bits_(0) {}

  static Value Null() { return Value(); }
  static Value Id(RelationId relation, uint64_t id) {
    Value v;
    v.kind_ = ValueKind::kId;
    v.relation_ = relation;
    v.bits_ = id;
    return v;
  }
  static Value Real(Rational x) {
    Value v;
    v.kind_ = ValueKind::kReal;
    v.real_ = std::move(x);
    return v;
  }
  /// Deleted for floating-point arguments, which would otherwise
  /// truncate through Rational's int64 constructor; write
  /// Rational(BigInt(1), BigInt(10)) for 0.1.
  template <typename T,
            typename = std::enable_if_t<std::is_floating_point_v<T>>>
  static Value Real(T x) = delete;

  ValueKind kind() const { return kind_; }
  bool is_null() const { return kind_ == ValueKind::kNull; }
  bool is_id() const { return kind_ == ValueKind::kId; }
  bool is_real() const { return kind_ == ValueKind::kReal; }

  /// Relation of an ID value (kNoRelation for non-IDs).
  RelationId relation() const { return relation_; }
  /// Raw ID (only meaningful for is_id()).
  uint64_t id() const { return bits_; }
  /// Numeric payload (only meaningful for is_real()).
  const Rational& real() const { return real_; }

  bool operator==(const Value& o) const {
    if (kind_ != o.kind_) return false;
    switch (kind_) {
      case ValueKind::kNull:
        return true;
      case ValueKind::kId:
        return relation_ == o.relation_ && bits_ == o.bits_;
      case ValueKind::kReal:
        return real_ == o.real_;
    }
    return false;
  }
  bool operator!=(const Value& o) const { return !(*this == o); }
  bool operator<(const Value& o) const;

  std::string ToString() const;

  size_t Hash() const;

 private:
  ValueKind kind_;
  RelationId relation_;
  uint64_t bits_;
  Rational real_;
};

struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

}  // namespace has

#endif  // HAS_DATA_VALUE_H_
