#include "data/value.h"

#include "common/strings.h"

namespace has {

bool Value::operator<(const Value& o) const {
  if (kind_ != o.kind_) return static_cast<int>(kind_) < static_cast<int>(o.kind_);
  switch (kind_) {
    case ValueKind::kNull:
      return false;
    case ValueKind::kId:
      if (relation_ != o.relation_) return relation_ < o.relation_;
      return bits_ < o.bits_;
    case ValueKind::kReal:
      return real_ < o.real_;
  }
  return false;
}

std::string Value::ToString() const {
  switch (kind_) {
    case ValueKind::kNull:
      return "null";
    case ValueKind::kId:
      return StrCat("#", relation_, ":", bits_);
    case ValueKind::kReal:
      return real_.ToString();
  }
  return "?";
}

size_t Value::Hash() const {
  size_t seed = static_cast<size_t>(kind_);
  switch (kind_) {
    case ValueKind::kNull:
      break;
    case ValueKind::kId:
      HashMix(&seed, relation_);
      HashMix(&seed, bits_);
      break;
    case ValueKind::kReal:
      HashCombine(&seed, real_.Hash());
      break;
  }
  return seed;
}

}  // namespace has
