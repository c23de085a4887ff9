// The symbolic successor relation (Section 4.1's transition relation on
// symbolic instances, in partial-isomorphism-type form), together with
// the arithmetic cell component of Section 5.
//
// Invariant maintained by the enumeration: every symbolic state decides
// every atom of the task's atom family A_T (all atoms of the task's
// services, its children's opening pre-conditions, its own closing
// pre-condition, the property conditions over the task, plus null-check
// atoms for every variable taking part in child input/output passing
// and in the artifact relation). In arithmetic mode every basis
// polynomial of the task's Hierarchical Cell Decomposition carries a
// definite sign. Pre/post-conditions therefore evaluate two-valued.
#ifndef HAS_CORE_SUCCESSOR_H_
#define HAS_CORE_SUCCESSOR_H_

#include <set>
#include <string>
#include <vector>

#include "arith/cell.h"
#include "arith/hcd.h"
#include "core/iso_type.h"
#include "hltl/hltl.h"
#include "model/artifact_system.h"

namespace has {

struct VerifierOptions {
  /// Navigation depth cap for partial isomorphism types. When
  /// use_paper_depth is set, the paper's h(T) is computed per task and
  /// clamped to this value; otherwise this value is used directly.
  int max_nav_depth = 2;
  bool use_paper_depth = false;
  /// Coverability graph node budget per (task, β, input) query.
  size_t max_cov_nodes = 1 << 17;
  /// Budget for successor enumeration branches per transition.
  size_t max_branches = 1 << 12;
  /// Repeated-reachability search knobs (see vass/repeated.h).
  int64_t lasso_effect_bound = 128;
  size_t lasso_max_steps = 1 << 20;
  /// When a blocking witness has already settled a query's ⊥-bit, the
  /// lasso search is pure counterexample polish — a lasso reads nicer
  /// than a blocking run — so it only runs if the coverability graph
  /// has fewer nodes than this, with pruning on or off.
  size_t lasso_witness_max_nodes = 20000;
  /// Antichain subsumption pruning for the coverability explorations
  /// (minimal-coverability-set style; VERIFAS' biggest practical win
  /// over the naive Karp–Miller construction). Every consumer reads
  /// the pruned graph: returning outputs and blocking detection are
  /// per-state predicates (pruning preserves exactly the reachable
  /// states), and repeated reachability (lasso search) traverses the
  /// cover-edges the pruned build records at its prune points — no
  /// unpruned graph is ever rebuilt (see RtEngine::ComputeEntry and
  /// vass/repeated.h). Default ON since the cover-edge lasso path
  /// landed; verdicts are identical with the knob on or off, but
  /// counterexample TEXT may differ (the graphs find different —
  /// equally valid — witnesses).
  bool prune_coverability = true;
  /// Ample-set partial-order reduction over internal services (the
  /// OTHER structural VERIFAS optimization; multiplies with, not
  /// against, the antichain pruning above). At a symbolic state with no
  /// active child, a statically eligible service — insert-only
  /// footprint (model/independence.h), never observed by the property,
  /// X-free task skeletons — whose pre- AND post-condition hold at the
  /// current configuration (so the identity stutter step is among its
  /// successors) becomes the ample set, and the explorer expands only
  /// its successors as long as every one of them lands on a fresh node
  /// (the C3 discharge; see docs/ARCHITECTURE.md "Partial-order
  /// reduction"). Verdicts are identical with the knob on or off, on
  /// every family, but counter counts (cov_nodes, cov_edges, ...)
  /// shrink.
  bool por = true;
  /// Property-directed cone-of-influence slicing (analysis/slice.h):
  /// after validation and static analysis, drop services that can never
  /// fire, artifact relations no kept service retrieves from, and
  /// variables outside the property's cone before the product VASS is
  /// built. Verdicts are identical with the knob on or off, on every
  /// family (differential-gated like POR), but
  /// counter dimensions and node counts shrink on sliceable specs.
  /// Counterexample TEXT may omit sliced variables.
  bool slice = true;
  /// Werror-style escalation for the static analyzer: any diagnostic
  /// (dead service, unreachable service, write-never-read variable,
  /// unread relation, vacuous property atom) aborts verification
  /// instead of being reported in VerifyResult::diagnostics.
  bool strict_analysis = false;
};

/// A symbolic configuration of one task: equality component + cell.
/// The cell is empty (size 0) in no-arithmetic mode.
struct SymbolicConfig {
  PartialIsoType iso;
  Cell cell;
};

/// Per-task precomputation shared by the verifier.
class TaskContext {
 public:
  TaskContext(const ArtifactSystem* system, const HltlProperty* property,
              TaskId task, const VerifierOptions& options, const Hcd* hcd);

  const ArtifactSystem& system() const { return *system_; }
  const Task& task() const { return system_->task(task_); }
  TaskId task_id() const { return task_; }
  int nav_depth() const { return nav_depth_; }
  bool arithmetic() const { return basis_ != nullptr; }
  const PolyBasis* basis() const { return basis_; }
  size_t max_branches() const { return options_->max_branches; }
  const VerifierOptions& options() const { return *options_; }

  const std::vector<CondPtr>& eq_atoms() const { return eq_atoms_; }
  const std::set<int>& input_vars() const { return input_vars_; }
  /// Union of every relation's tuple variables (null-check/atom
  /// collection granularity).
  const std::set<int>& set_vars() const { return set_vars_; }
  /// Number of artifact relations S_T,1 … S_T,k of this task.
  int num_set_relations() const {
    return static_cast<int>(rel_vars_.size());
  }
  /// Tuple variables s̄_T,rel of one relation.
  const std::set<int>& rel_vars(int rel) const { return rel_vars_[rel]; }
  /// Basis polynomials over numeric input variables (preserved across
  /// internal transitions).
  const std::vector<int>& preserved_polys() const { return preserved_polys_; }

  /// Linear equalities implied by the equality component: numeric
  /// variables in one class are equal; const tags fix values. Used to
  /// couple the cell's satisfiability checks with the iso type.
  LinearSystem NumericEqualities(const PartialIsoType& iso) const;

  /// Two-valued-when-decided evaluation over both components.
  Truth EvalSym(const Condition& cond, const SymbolicConfig& s) const;

  /// Canonical TS-type of relation `rel`: projection of the iso type
  /// onto x̄_in ∪ s̄_T,rel (Section 4.1), normalized. The product
  /// interns it into a counter dimension id in relation `rel`'s
  /// dimension group.
  PartialIsoType TsType(const PartialIsoType& iso, int rel = 0) const;

  /// String form of TsType — printing/debug only; the hot paths intern
  /// TsType through the TypePool instead.
  std::string TsSignature(const PartialIsoType& iso, int rel = 0) const;

  /// Input-bound test for relation `rel` (Section 4.1): every non-null
  /// variable of s̄_T,rel is forced equal to an input-anchored element.
  bool TsInputBound(const PartialIsoType& iso, int rel = 0) const;

  /// Fresh task configuration at opening time: inputs constrained by
  /// `input` (already over this task's scope), all other ID variables
  /// null, numeric variables 0 — in arithmetic mode the numeric-zero
  /// initialization is carried by the enumerated initial cells.
  PartialIsoType OpeningIso(const PartialIsoType& input) const;

  // --- partial-order reduction (VerifierOptions::por) ---------------------
  /// Whether internal service `svc` is statically ample-eligible: every
  /// skeleton of the task's property nodes is X-free, no service
  /// proposition of those nodes names the service, and its footprint is
  /// insert-only (model/independence.h) — so firing it only grows the
  /// marking and it can anchor an ample set wherever its post-condition
  /// already holds (the dynamic half, checked at expansion time in
  /// task_vass.cc).
  bool PorServiceEligible(int svc) const {
    return por_service_ok_[static_cast<size_t>(svc)] != 0;
  }
  /// Whether `s` occurs as a kService proposition in any property node
  /// of this task — an ample stutter must not sit on an observed
  /// service letter, so states ENTERED by such a service expand fully.
  bool PorServiceIsProp(const ServiceRef& s) const;

 private:
  void CollectAtoms();
  void ComputePor();

  const ArtifactSystem* system_;
  const HltlProperty* property_;
  TaskId task_;
  const VerifierOptions* options_;
  const PolyBasis* basis_;  // null in no-arithmetic mode
  int nav_depth_ = 2;
  std::vector<CondPtr> eq_atoms_;
  std::set<int> input_vars_;
  std::set<int> set_vars_;
  std::vector<std::set<int>> rel_vars_;
  std::vector<int> preserved_polys_;
  std::vector<char> por_service_ok_;
  std::vector<ServiceRef> por_service_props_;
};

/// Set-update bookkeeping of one successor on ONE artifact relation.
/// The retrieved tuple's canonical TS-type (meaningful iff `retrieves`)
/// varies per successor; the inserted tuple's TS-type is the per-
/// relation projection of the shared PRE-state, so the successor memo
/// (core/succ_memo.h) interns it once per (type, cell, service) key
/// (TaskContext::TsType) instead of carrying a copy here.
struct SetOpEffect {
  int relation = 0;
  bool inserts = false;
  bool insert_input_bound = false;
  bool retrieves = false;
  PartialIsoType retrieve_ts;
  bool retrieve_input_bound = false;
};

/// One successor of an internal service application.
struct InternalSuccessor {
  SymbolicConfig next;
  /// One entry per relation the service updates, in ascending relation
  /// index order; empty for services without set updates.
  std::vector<SetOpEffect> set_ops;
};

/// Enumerates the symbolic successors of `cur` under internal service
/// `svc` (whose pre-condition must already hold in `cur`). All atoms of
/// A_T are decided in each result; `truncated` is set if the branch
/// budget was exhausted.
std::vector<InternalSuccessor> EnumerateInternal(const TaskContext& ctx,
                                                 const SymbolicConfig& cur,
                                                 const InternalService& svc,
                                                 bool* truncated);

/// Enumerates the fully-decided opening configurations of a task given
/// a (partial) input type/cell — the τ_0 states of Definition 17.
std::vector<SymbolicConfig> EnumerateOpening(const TaskContext& ctx,
                                             const PartialIsoType& input_iso,
                                             const Cell& input_cell,
                                             bool* truncated);

/// The input type a child receives when opened from `parent_state`:
/// projection onto the passed variables, renamed into the child scope,
/// clipped to the child's navigation depth.
PartialIsoType ChildInputIso(const TaskContext& parent_ctx,
                             const TaskContext& child_ctx,
                             const SymbolicConfig& parent_state);

/// The child's input cell: signs of the child's basis polynomials over
/// its input variables, read off the parent's cell through the variable
/// renaming (the HCD guarantees the renamed polynomials are in the
/// parent's basis).
Cell ChildInputCell(const TaskContext& parent_ctx,
                    const TaskContext& child_ctx,
                    const SymbolicConfig& parent_state);

/// Applies a child's return to the parent state: null ID targets take
/// the child's returned values, non-null ID targets keep theirs,
/// numeric targets are overwritten; the child's output constraints on
/// shared variables are conjoined. Returns every fully-decided parent
/// successor (the overwritten numerics force re-enumeration of cell
/// signs in arithmetic mode).
std::vector<SymbolicConfig> ApplyChildReturn(
    const TaskContext& parent_ctx, const TaskContext& child_ctx,
    const SymbolicConfig& parent_state, const PartialIsoType& child_out_iso,
    const Cell& child_out_cell, bool* truncated);

}  // namespace has

#endif  // HAS_CORE_SUCCESSOR_H_
