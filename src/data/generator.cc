#include "data/generator.h"

#include "common/status.h"

namespace has {

DatabaseInstance GenerateInstance(const DatabaseSchema& schema,
                                  const GeneratorOptions& options) {
  std::mt19937_64 rng(options.seed);
  std::uniform_int_distribution<int> num_dist(options.numeric_min,
                                              options.numeric_max);
  const int n = options.tuples_per_relation;
  std::uniform_int_distribution<uint64_t> id_dist(1, static_cast<uint64_t>(n));

  DatabaseInstance db(&schema);
  // Every relation receives IDs 1..n, so foreign keys can be wired to
  // random existing IDs in one pass even on cyclic FK graphs.
  for (RelationId r = 0; r < schema.num_relations(); ++r) {
    const Relation& rel = schema.relation(r);
    for (int i = 1; i <= n; ++i) {
      Tuple t;
      t.push_back(Value::Id(r, static_cast<uint64_t>(i)));
      for (int a = 1; a < rel.arity(); ++a) {
        const Attribute& attr = rel.attr(a);
        if (attr.kind == AttrKind::kNumeric) {
          t.push_back(Value::Real(num_dist(rng)));
        } else {
          t.push_back(Value::Id(attr.references, id_dist(rng)));
        }
      }
      Status s = db.Insert(r, std::move(t));
      HAS_CHECK_MSG(s.ok(), s.ToString());
    }
  }
  Status deps = db.CheckDependencies();
  HAS_CHECK_MSG(deps.ok(), deps.ToString());
  return db;
}

}  // namespace has
