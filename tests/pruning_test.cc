// Antichain subsumption pruning (KarpMillerOptions::prune_coverability
// / VerifierOptions::prune_coverability).
//
// Correctness bar (ISSUE 3): verifier verdicts must be IDENTICAL with
// pruning on vs. off — across the Table-1 workloads, the travel specs,
// the deep-hierarchy / adversarial-cyclic families and the
// multi-variable-set family. On top of that the pruned build must
// preserve exactly the reachable VASS states and actually prune
// (strictly fewer nodes on subsumption-heavy systems).
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <string>

#include "builders.h"
#include "core/rt_relation.h"
#include "core/verifier.h"
#include "spec/parser.h"
#include "spec_file.h"
#include "vass/karp_miller.h"
#include "workloads.h"

namespace has {
namespace {

/// A VASS with heavy subsumption: the hub keeps re-entering pump states
/// with ever-larger counters, so most successors are dominated by an
/// earlier (accelerated) node.
ExplicitVass PumpVass(int width) {
  ExplicitVass v(2 * width + 2);
  for (int i = 0; i < width; ++i) {
    v.AddAction(0, {{i, +1}}, 1 + i);             // fan out, pump counter i
    v.AddAction(1 + i, {{i, +1}}, 1 + i);         // keep pumping (→ ω)
    v.AddAction(1 + i, {{i, -1}}, 1 + width + i); // spend
    v.AddAction(1 + width + i, {}, 0);            // back to the hub
  }
  Delta all_spend;
  for (int i = 0; i < width; ++i) all_spend.emplace_back(i, -1);
  v.AddAction(0, all_spend, 2 * width + 1);       // gated target
  return v;
}

/// A VASS whose distinct markings are genuinely COMPARABLE (no exact
/// duplicates), so domination does work plain dedup cannot. Left wing:
/// three openings into one chain with markings (3) > (2) > (1), the
/// generous one first — the dominated two are dropped before interning
/// and their whole chains never exist. Right wing: the poor opening
/// first, so the rich newcomer must DEACTIVATE it, cutting its
/// not-yet-built chain.
ExplicitVass SubsumptionVass(int len) {
  // States: 0 = root; 1..len = left chain; len+1..2*len = right chain.
  ExplicitVass v(2 * len + 1);
  v.AddAction(0, {{0, +3}}, 1);
  v.AddAction(0, {{0, +2}}, 1);
  v.AddAction(0, {{0, +1}}, 1);
  for (int i = 1; i < len; ++i) v.AddAction(i, {}, i + 1);
  v.AddAction(0, {{1, +1}}, len + 1);
  v.AddAction(0, {{1, +2}}, len + 1);
  for (int i = len + 1; i < 2 * len; ++i) v.AddAction(i, {}, i + 1);
  return v;
}

std::set<int> StatesOf(const KarpMiller& g) {
  std::set<int> states;
  for (int n = 0; n < g.num_nodes(); ++n) states.insert(g.node_state(n));
  return states;
}

TEST(PrunedKarpMillerTest, PreservesReachableStates) {
  for (bool subsumption : {false, true}) {
    ExplicitVass v1 = subsumption ? SubsumptionVass(4) : PumpVass(3);
    KarpMiller full(&v1, {});
    full.Build({0});
    ExplicitVass v2 = subsumption ? SubsumptionVass(4) : PumpVass(3);
    KarpMillerOptions options;
    options.prune_coverability = true;
    KarpMiller pruned(&v2, options);
    pruned.Build({0});
    // State reachability is exactly preserved, and pruning never grows
    // the graph.
    EXPECT_EQ(StatesOf(full), StatesOf(pruned)) << subsumption;
    EXPECT_LE(pruned.num_nodes(), full.num_nodes()) << subsumption;
    EXPECT_GT(pruned.pruned_successors(), 0u) << subsumption;
    EXPECT_FALSE(pruned.truncated());
  }
}

TEST(PrunedKarpMillerTest, DominationPrunesAndDeactivates) {
  const int len = 5;
  ExplicitVass v1 = SubsumptionVass(len);
  KarpMiller full(&v1, {});
  full.Build({0});
  ExplicitVass v2 = SubsumptionVass(len);
  KarpMillerOptions options;
  options.prune_coverability = true;
  KarpMiller pruned(&v2, options);
  pruned.Build({0});

  // Full: root + three left chains + two right chains = 1 + 5*len.
  EXPECT_EQ(full.num_nodes(), 1 + 5 * len);
  // Pruned: root + one left chain + the retired right opening + one
  // right chain — the dominated chains were never built.
  EXPECT_EQ(pruned.num_nodes(), 2 * len + 2);
  // The two dominated left openings were dropped before interning...
  EXPECT_EQ(pruned.pruned_successors(), 2u);
  // ...and the poor right opening was retired by the rich newcomer.
  EXPECT_EQ(pruned.deactivated_nodes(), 1u);
  // Each prune point left a cover-edge: two drops plus one retirement.
  EXPECT_EQ(pruned.cover_edges(), 3u);
  EXPECT_GE(full.num_nodes(), 2 * pruned.num_nodes());
}

TEST(PrunedKarpMillerTest, NodesFormAnAntichainPerState) {
  // No node's marking may be ≤ any EARLIER node's marking of the same
  // VASS state — the invariant behind both termination and the
  // coverage argument (every dropped candidate sits below some
  // retained, eventually-expanded node).
  ExplicitVass v = PumpVass(3);
  KarpMillerOptions options;
  options.prune_coverability = true;
  KarpMiller g(&v, options);
  g.Build({0});
  for (int j = 0; j < g.num_nodes(); ++j) {
    for (int i = 0; i < j; ++i) {
      if (g.node_state(i) != g.node_state(j)) continue;
      EXPECT_FALSE(marking::LessEq(g.node_marking(j), g.node_marking(i)))
          << "node " << j << " dominated by earlier node " << i;
    }
  }
}

TEST(PrunedKarpMillerTest, RealEdgesFormAForestCoverEdgesCloseWalks) {
  // Every surviving successor creates a NEW node, so the pruned
  // graph's REAL edges are exactly its spanning forest; the closed-
  // walk structure lasso analysis needs lives in the cover-edges
  // recorded at the prune points (one per dropped successor, one per
  // retired node).
  ExplicitVass v = PumpVass(3);
  KarpMillerOptions options;
  options.prune_coverability = true;
  KarpMiller g(&v, options);
  g.Build({0});
  size_t roots = 0, real = 0, cover = 0;
  for (int n = 0; n < g.num_nodes(); ++n) {
    if (g.node_parent(n) == -1) ++roots;
    for (const KarpMiller::Edge& e : g.edges(n)) {
      if (e.cover) {
        ++cover;
        // Drop cover-edges name the dropped transition; retire
        // cover-edges are label-less with an empty delta.
        if (g.edge_label(n, e) < 0) {
          EXPECT_TRUE(g.edge_delta(n, e).empty());
        }
      } else {
        ++real;
        // A real pruned edge always points at a strictly newer node.
        EXPECT_GT(e.target, n);
      }
    }
  }
  EXPECT_EQ(real, static_cast<size_t>(g.num_nodes()) - roots);
  EXPECT_EQ(cover, g.cover_edges());
  EXPECT_EQ(cover, g.pruned_successors() + g.deactivated_nodes());
  EXPECT_EQ(g.TotalEdges(), real + cover);
  EXPECT_GT(cover, 0u);
}

/// A chain where every level both retires and drops: state k moves to
/// k + 1 by a plain step, then by a +1 on counter k (a strictly larger
/// newcomer that deactivates the plain step's node), then by the same
/// +1 again under another label (dominated by the node just made, so
/// dropped).
ExplicitVass RetireChainVass(int len) {
  ExplicitVass v(len + 1);
  for (int k = 0; k < len; ++k) {
    v.AddAction(k, {}, k + 1);
    v.AddAction(k, {{k, +1}}, k + 1);
    v.AddAction(k, {{k, +1}}, k + 1);
  }
  return v;
}

TEST(PrunedKarpMillerTest, TruncatedBuildKeepsRetireEdges) {
  // Retire cover-edges are recorded while another node expands and
  // join the flat edge array when Build returns; a build cut short by
  // max_nodes must still flush them, including the one recorded by the
  // last expansion before the cut.
  ExplicitVass v = RetireChainVass(10);
  KarpMillerOptions options;
  options.prune_coverability = true;
  options.max_nodes = 6;
  KarpMiller g(&v, options);
  g.Build({0});
  ASSERT_TRUE(g.truncated());
  EXPECT_EQ(g.deactivated_nodes(), 3u);
  EXPECT_EQ(g.pruned_successors(), 3u);

  size_t cover = 0, total = 0;
  for (int n = 0; n < g.num_nodes(); ++n) {
    total += g.edges(n).size();
    for (const KarpMiller::Edge& e : g.edges(n)) {
      if (e.cover) ++cover;
    }
  }
  EXPECT_EQ(g.cover_edges(), g.pruned_successors() + g.deactivated_nodes());
  EXPECT_EQ(cover, g.cover_edges());
  EXPECT_EQ(total, g.TotalEdges());

  for (int n = 0; n < g.num_nodes(); ++n) {
    if (!g.node_deactivated(n)) continue;
    ASSERT_EQ(g.edges(n).size(), 1u) << n;
    const KarpMiller::Edge& e = g.edges(n)[0];
    EXPECT_TRUE(e.cover) << n;
    EXPECT_EQ(g.edge_label(n, e), -1) << n;
    EXPECT_TRUE(g.edge_delta(n, e).empty()) << n;
    // The coverer strictly covers the retired node.
    EXPECT_EQ(g.node_state(e.target), g.node_state(n)) << n;
    EXPECT_TRUE(marking::LessEq(g.node_marking(n), g.node_marking(e.target)))
        << n;
    EXPECT_FALSE(g.node_marking(n) == g.node_marking(e.target)) << n;
  }
}

/// Builds `system`'s graph pruned and unpruned, POR off and on, and
/// checks that every edge reads its label and delta from the kept
/// successor list it indexes: the system's own list for the source
/// node's state. Retire cover-edges index nothing. Adds the successors
/// the POR-on builds skipped to `*ample_reduced`.
void ExpectEdgesReadKeptLists(VassSystem* system,
                              const std::vector<int>& initial,
                              const std::string& what,
                              size_t* ample_reduced) {
  std::map<int, std::vector<VassEdge>> lists;
  auto list_of = [&](int state) -> const std::vector<VassEdge>& {
    auto [it, inserted] = lists.try_emplace(state);
    if (inserted) system->Successors(state, &it->second);
    return it->second;
  };
  for (bool prune : {false, true}) {
    for (bool por : {false, true}) {
      KarpMillerOptions options;
      options.prune_coverability = prune;
      options.por = por;
      KarpMiller g(system, options);
      g.Build(initial);
      const std::string where = what + " prune=" + std::to_string(prune) +
                                " por=" + std::to_string(por);
      size_t indexed = 0;
      for (int n = 0; n < g.num_nodes(); ++n) {
        for (const KarpMiller::Edge& e : g.edges(n)) {
          if (e.index < 0) {
            EXPECT_TRUE(e.cover) << where;
            EXPECT_TRUE(g.node_deactivated(n)) << where;
            continue;
          }
          const std::vector<VassEdge>& list = list_of(g.node_state(n));
          ASSERT_LT(static_cast<size_t>(e.index), list.size()) << where;
          const VassEdge& kept = list[static_cast<size_t>(e.index)];
          EXPECT_EQ(g.edge_label(n, e), kept.label) << where;
          EXPECT_EQ(g.edge_delta(n, e), kept.delta) << where;
          // Real and drop edges alike land on a node of the
          // transition's target state.
          EXPECT_EQ(g.node_state(e.target), kept.target) << where;
          ++indexed;
        }
      }
      EXPECT_GT(indexed, 0u) << where;
      *ample_reduced += g.ample_reduced_successors();
    }
  }
}

TEST(PrunedKarpMillerTest, EdgesReadTheKeptSuccessorLists) {
  static_assert(sizeof(KarpMiller::Edge) <= 12,
                "an edge is a plain value with no heap allocation");
  size_t ample_reduced = 0;
  ExplicitVass pump = PumpVass(3);
  ExpectEdgesReadKeptLists(&pump, {0}, "PumpVass(3)", &ample_reduced);
  ExplicitVass chain = RetireChainVass(4);
  ExpectEdgesReadKeptLists(&chain, {0}, "RetireChainVass(4)",
                           &ample_reduced);
  EXPECT_EQ(ample_reduced, 0u) << "explicit systems report no prefix";

  // A task VASS with live ample prefixes: the root task's witnessing
  // product of a one-relation MakeMultiRelation (two relations take
  // seconds to build unpruned).
  bench::Workload w = bench::MakeMultiRelation(/*size=*/2, /*depth=*/2,
                                               /*num_rels=*/1);
  HltlProperty negated = w.property.Negated();
  std::optional<Hcd> hcd;
  if (SystemUsesArithmetic(w.system, w.property)) {
    hcd = BuildSystemHcd(w.system, negated);
  }
  RtEngine engine(&w.system, &negated, VerifierOptions{},
                  hcd.has_value() ? &*hcd : nullptr);
  RtEngine::RootWitness witness = engine.CheckRoot();
  ASSERT_TRUE(witness.satisfiable);
  const RtEngine::Entry* entry = engine.FindEntry(witness.entry_key);
  ASSERT_NE(entry, nullptr);
  ExpectEdgesReadKeptLists(entry->vass.get(), entry->vass->InitialStates(),
                           w.name, &ample_reduced);
  EXPECT_GT(ample_reduced, 0u) << "the task VASS must use ample prefixes";
}

/// Cross-validation core: verdict equality pruned vs. unpruned.
void ExpectPruningEquivalence(const ArtifactSystem& system,
                              const HltlProperty& property,
                              const std::string& what,
                              VerifierOptions base = {}) {
  base.prune_coverability = false;
  VerifyResult reference = Verify(system, property, base);
  VerifierOptions options = base;
  options.prune_coverability = true;
  VerifyResult pruned = Verify(system, property, options);
  EXPECT_EQ(pruned.verdict, reference.verdict) << what;
  // Lasso analysis runs on the pruned graph itself (cover-edges), so
  // pruning never explores more nodes than the full build.
  EXPECT_LE(pruned.stats.cov_nodes, reference.stats.cov_nodes) << what;
}

TEST(PruningCrossValidation, BuilderSystems) {
  ExpectPruningEquivalence(testing::FlatSystem(true),
                           testing::AlwaysProperty(0, Condition::IsNull(0)),
                           "flat/sets");
  {
    ArtifactSystem system = testing::ParentChildSystem();
    LinearExpr e = LinearExpr::Var(1);
    HltlProperty property = testing::AlwaysProperty(
        0, Condition::Arith(LinearConstraint{e, Relop::kEq}));
    ExpectPruningEquivalence(system, property, "parent-child");
  }
}

TEST(PruningCrossValidation, Table1Workloads) {
  for (SchemaClass sc : {SchemaClass::kAcyclic, SchemaClass::kCyclic}) {
    bench::Workload w = bench::MakeWorkload(sc, /*size=*/3, /*depth=*/2,
                                            /*with_sets=*/true,
                                            /*with_arith=*/false);
    ExpectPruningEquivalence(w.system, w.property, w.name);
  }
}

TEST(PruningCrossValidation, DeepHierarchy) {
  bench::Workload w = bench::MakeDeepHierarchy(/*depth=*/3, /*size=*/3);
  ExpectPruningEquivalence(w.system, w.property, w.name);
}

TEST(PruningCrossValidation, AdversarialCyclic) {
  bench::Workload w = bench::MakeAdversarialCyclic(/*size=*/3, /*depth=*/2);
  ExpectPruningEquivalence(w.system, w.property, w.name);
}

TEST(PruningCrossValidation, MultiVariableSet) {
  bench::Workload w = bench::MakeMultiSet(/*size=*/3, /*depth=*/2,
                                          /*set_width=*/2);
  ExpectPruningEquivalence(w.system, w.property, w.name);
}

TEST(PruningCrossValidation, MultiRelation) {
  // Two artifact relations per task (each its own counter-dimension
  // group), including the cross-relation rotate delta.
  bench::Workload w = bench::MakeMultiRelation(/*size=*/3, /*depth=*/2,
                                               /*num_rels=*/2);
  ExpectPruningEquivalence(w.system, w.property, w.name);
}

TEST(PruningCrossValidation, TravelMini) {
  std::string text = testing::LoadSpec("travel_mini.has");
  ASSERT_FALSE(text.empty());
  auto parsed = ParseSpec(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  VerifierOptions base;
  base.max_nav_depth = 2;
  for (const char* prop : {"discount_policy", "cancel_closes_cancelled"}) {
    const HltlProperty* p = parsed->FindProperty(prop);
    ASSERT_NE(p, nullptr) << prop;
    ExpectPruningEquivalence(parsed->system, *p,
                             std::string("travel_mini/") + prop, base);
  }
}

}  // namespace
}  // namespace has
