// Random simulation of trees of local runs over a concrete database
// (Appendix B.1 semantics). Children are simulated synchronously at
// their opening step — legitimate because trees of local runs factor
// out the interleavings. Used by property tests: every simulated tree
// must pass CheckRunTree, and its observable behaviour must be
// representable by the symbolic verifier.
#ifndef HAS_RUNS_SIMULATOR_H_
#define HAS_RUNS_SIMULATOR_H_

#include <random>
#include <vector>

#include "arith/rational.h"
#include "runs/run_tree.h"

namespace has {

struct SimulatorOptions {
  uint64_t seed = 7;
  /// Per-task step budget (services applied).
  int max_steps_per_run = 12;
  /// Rejection-sampling attempts for post-condition valuations.
  int valuation_attempts = 200;
  /// Extra numeric constants to draw from (condition constants are
  /// added automatically).
  std::vector<Rational> numeric_pool = {0, 1, 2, 3, 5, 8};
};

/// Simulates one tree of local runs; returns nullopt when the root task
/// cannot take a single step (e.g. unsatisfiable Π on this database).
std::optional<RunTree> SimulateTree(const ArtifactSystem& system,
                                    const DatabaseInstance& db,
                                    const SimulatorOptions& options);

}  // namespace has

#endif  // HAS_RUNS_SIMULATOR_H_
