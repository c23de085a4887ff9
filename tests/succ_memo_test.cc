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
      const KarpMiller::Edge& ea = a.edges(n)[i];
      const KarpMiller::Edge& eb = b.edges(n)[i];
      EXPECT_EQ(ea.target, eb.target) << n;
      EXPECT_EQ(a.edge_label(n, ea), b.edge_label(n, eb)) << n;
      EXPECT_EQ(a.edge_delta(n, ea), b.edge_delta(n, eb)) << n;
      EXPECT_EQ(ea.cover, eb.cover) << n;
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

TEST(SuccMemoTest, SecondExplorerReplaysTheCommittedProduct) {
  // A second explorer over a committed entry's TaskVass asks for every
  // successor list again. Interning must hand back the original product
  // states, transition records and labels, so the graph is
  // node-identical; the symbolic side is answered by memo hits alone
  // and interns nothing new into the pool.
  bench::Workload w = bench::MakeMultiRelation(/*size=*/2, /*depth=*/2,
                                               /*num_rels=*/2);
  VerifierOptions options;
  EngineRun run(w, options);
  RtEngine::RootWitness witness = run.engine->CheckRoot();
  ASSERT_TRUE(witness.satisfiable);
  const RtEngine::Entry* entry = run.engine->FindEntry(witness.entry_key);
  ASSERT_NE(entry, nullptr);
  TaskVass* vass = entry->vass.get();
  const int states = vass->num_states();
  const size_t records = vass->num_records();
  const size_t types = run.engine->pool().num_types();
  const size_t cells = run.engine->pool().num_cells();
  const SuccessorMemo& memo = run.engine->succ_memo(w.system.root());
  const size_t misses = memo.misses();
  const size_t hits = memo.hits();

  KarpMillerOptions km_options;
  km_options.max_nodes = options.max_cov_nodes;
  km_options.prune_coverability = options.prune_coverability;
  km_options.por = options.por;
  KarpMiller again(vass, km_options);
  again.Build(vass->InitialStates());

  ExpectSameGraph(*entry->graph, again);
  EXPECT_EQ(again.succ_cache_misses(), entry->graph->succ_cache_misses());
  EXPECT_EQ(again.ample_reduced_successors(),
            entry->graph->ample_reduced_successors());
  EXPECT_EQ(vass->num_states(), states);
  EXPECT_EQ(vass->num_records(), records);
  EXPECT_EQ(run.engine->pool().num_types(), types);
  EXPECT_EQ(run.engine->pool().num_cells(), cells);
  EXPECT_EQ(memo.misses(), misses);
  EXPECT_GT(memo.hits(), hits);
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
