// The per-task successor memo (core/succ_memo.h): EnumerateInternal
// runs once per (task, type, cell, service) key and every later product
// state with that configuration replays the stored result — including
// its branch-budget truncation — while first-intern order, and so every
// TypeId, stays what the un-memoized enumeration produced.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <set>
#include <string>

#include "core/counterexample.h"
#include "core/rt_relation.h"
#include "core/verifier.h"
#include "vass/karp_miller.h"
#include "workloads.h"

namespace has {
namespace {

/// An engine over `w` as Verify builds it, minus the slicer.
struct EngineRun {
  EngineRun(const bench::Workload& w, VerifierOptions options)
      : system(&w.system), negated(w.property.Negated()) {
    options.slice = false;
    if (SystemUsesArithmetic(w.system, w.property)) {
      hcd = BuildSystemHcd(w.system, negated);
    }
    engine = std::make_unique<RtEngine>(system, &negated, options,
                                        hcd.has_value() ? &*hcd : nullptr);
    const Task& root = system->task(system->root());
    empty_input = PartialIsoType(&system->schema(), &root.vars(),
                                 engine->context(system->root()).nav_depth());
  }

  RtQueryKey RootKey(Assignment beta) {
    return engine->EntryKey(system->root(), empty_input, Cell(), beta);
  }

  const ArtifactSystem* system;
  HltlProperty negated;
  std::optional<Hcd> hcd;
  std::unique_ptr<RtEngine> engine;
  PartialIsoType empty_input;
};

void ExpectSameGraph(const KarpMiller& a, const KarpMiller& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  for (int n = 0; n < a.num_nodes(); ++n) {
    EXPECT_EQ(a.node_state(n), b.node_state(n)) << n;
    EXPECT_EQ(a.node_marking(n), b.node_marking(n)) << n;
    EXPECT_EQ(a.node_parent(n), b.node_parent(n)) << n;
    ASSERT_EQ(a.edges(n).size(), b.edges(n).size()) << n;
    for (size_t i = 0; i < a.edges(n).size(); ++i) {
      EXPECT_EQ(a.edges(n)[i].target, b.edges(n)[i].target) << n;
      EXPECT_EQ(a.edges(n)[i].label, b.edges(n)[i].label) << n;
      EXPECT_EQ(a.edges(n)[i].delta, b.edges(n)[i].delta) << n;
      EXPECT_EQ(a.edges(n)[i].cover, b.edges(n)[i].cover) << n;
    }
  }
}

TEST(SuccMemoTest, TruncationIsReplayedOnAHit) {
  // A second root-task node F store0 doubles the root assignments, so
  // CheckRoot runs two root queries (β = 1 and β = 3) over the same
  // configurations. At max_branches = 2 the first service enumeration
  // truncates; the second query must see that through memo hits alone.
  bench::Workload w = bench::MakeCommutingServices(/*width=*/2, /*depth=*/1);
  HltlNode extra;
  extra.task = w.system.root();
  extra.props.push_back(
      HltlProp::Service(ServiceRef::Internal(w.system.root(), 0)));
  extra.skeleton = LtlFormula::Eventually(LtlFormula::Prop(0));
  w.property.AddNode(std::move(extra));
  ASSERT_TRUE(w.property.Validate(w.system).ok());
  VerifierOptions options;
  options.max_branches = 2;

  EngineRun run(w, options);
  // The opening enumeration fits the budget: any truncation below comes
  // from internal-service enumeration.
  bool opening_truncated = false;
  EnumerateOpening(run.engine->context(w.system.root()), run.empty_input,
                   Cell(), &opening_truncated);
  ASSERT_FALSE(opening_truncated);

  run.engine->Query(w.system.root(), run.empty_input, Cell(), 1);
  const size_t misses = run.engine->stats().succ_memo_misses;
  const size_t hits = run.engine->stats().succ_memo_hits;
  run.engine->Query(w.system.root(), run.empty_input, Cell(), 3);
  EXPECT_EQ(run.engine->stats().succ_memo_misses, misses)
      << "the second query must be answered from the memo";
  EXPECT_GT(run.engine->stats().succ_memo_hits, hits);
  for (Assignment beta : {Assignment{1}, Assignment{3}}) {
    const RtEngine::Entry* entry = run.engine->FindEntry(run.RootKey(beta));
    ASSERT_NE(entry, nullptr) << "beta=" << beta;
    EXPECT_TRUE(entry->vass->truncated()) << "beta=" << beta;
  }
  EXPECT_EQ(Verify(w.system, w.property, options).verdict,
            Verdict::kInconclusive);
}

TEST(SuccMemoTest, EvictionRecommitsThroughTheMemo) {
  // A one-entry successor cache recomputes successors of states it
  // already committed; each recomputation reads the memo (hits) instead
  // of enumerating, and must reproduce the original graph, pool and
  // counterexample exactly.
  bench::Workload w = bench::MakeMultiRelation(/*size=*/2, /*depth=*/2,
                                               /*num_rels=*/2);
  VerifierOptions tiny_options;
  tiny_options.succ_cache_capacity = 1;
  EngineRun reference(w, {});
  EngineRun tiny(w, tiny_options);
  RtEngine::RootWitness ref_witness = reference.engine->CheckRoot();
  RtEngine::RootWitness tiny_witness = tiny.engine->CheckRoot();

  ASSERT_TRUE(ref_witness.satisfiable);
  ASSERT_TRUE(tiny_witness.satisfiable);
  EXPECT_EQ(tiny_witness.entry_key, ref_witness.entry_key);
  ASSERT_EQ(tiny.engine->pool().num_types(),
            reference.engine->pool().num_types());
  // Same first-intern order: every TypeId names the same type.
  for (size_t id = 0; id < reference.engine->pool().num_types(); ++id) {
    const TypeId t = static_cast<TypeId>(id);
    EXPECT_EQ(tiny.engine->pool().type(t).Signature(),
              reference.engine->pool().type(t).Signature())
        << "TypeId " << id;
  }
  EXPECT_EQ(tiny.engine->pool().num_cells(),
            reference.engine->pool().num_cells());
  int compared = 0;
  for (Assignment beta = 0; beta < 8; ++beta) {
    const RtEngine::Entry* ref_entry =
        reference.engine->FindEntry(reference.RootKey(beta));
    const RtEngine::Entry* tiny_entry =
        tiny.engine->FindEntry(tiny.RootKey(beta));
    ASSERT_EQ(ref_entry == nullptr, tiny_entry == nullptr) << beta;
    if (ref_entry == nullptr) continue;
    ExpectSameGraph(*ref_entry->graph, *tiny_entry->graph);
    ++compared;
  }
  EXPECT_GT(compared, 0);
  const RtStats& ref_stats = reference.engine->stats();
  const RtStats& tiny_stats = tiny.engine->stats();
  EXPECT_EQ(tiny_stats.cov_nodes, ref_stats.cov_nodes);
  EXPECT_EQ(tiny_stats.cov_edges, ref_stats.cov_edges);
  EXPECT_EQ(tiny_stats.product_states, ref_stats.product_states);
  EXPECT_GT(tiny_stats.succ_cache_misses, ref_stats.succ_cache_misses);
  // Extra recomputations are memo hits; the key set is the same.
  EXPECT_EQ(tiny_stats.succ_memo_misses, ref_stats.succ_memo_misses);
  EXPECT_GT(tiny_stats.succ_memo_hits, ref_stats.succ_memo_hits);
  EXPECT_EQ(FormatCounterexample(*tiny.engine, tiny_witness, w.system),
            FormatCounterexample(*reference.engine, ref_witness, w.system));
}

/// Distinct configurations (type signature; one cell, no arithmetic)
/// over every state of the run's root queries.
size_t DistinctRootConfigs(EngineRun* run) {
  std::set<std::string> configs;
  for (Assignment beta = 0; beta < 8; ++beta) {
    const RtEngine::Entry* entry = run->engine->FindEntry(run->RootKey(beta));
    if (entry == nullptr) continue;
    for (int s = 0; s < entry->vass->num_states(); ++s) {
      configs.insert(entry->vass->state_iso(s).Signature());
    }
  }
  return configs.size();
}

TEST(SuccMemoTest, AccountingIsPinnedAndRepeats) {
  // One root-only task without arithmetic: every product state expands
  // its internal services, so the memo's misses are exactly the
  // distinct (type, cell) configurations times the service count, and
  // hits are the remaining per-state service lookups.
  bench::Workload w = bench::MakeMultiRelation(/*size=*/2, /*depth=*/1,
                                               /*num_rels=*/2);
  ASSERT_EQ(w.system.num_tasks(), 1);
  const size_t num_services = w.system.task(w.system.root()).services().size();
  RtStats first;
  for (int round = 0; round < 2; ++round) {
    EngineRun run(w, {});
    run.engine->CheckRoot();
    const RtStats& stats = run.engine->stats();
    ASSERT_EQ(stats.pooled_cells, 1u);
    EXPECT_EQ(stats.succ_memo_misses, DistinctRootConfigs(&run) * num_services)
        << "round " << round;
    EXPECT_EQ(stats.succ_memo_misses, 102u) << "round " << round;
    EXPECT_EQ(stats.succ_memo_hits, 792u) << "round " << round;
    if (round == 0) {
      first = stats;
    } else {
      EXPECT_EQ(stats.succ_memo_misses, first.succ_memo_misses);
      EXPECT_EQ(stats.succ_memo_hits, first.succ_memo_hits);
    }
  }
}

}  // namespace
}  // namespace has
