// Edge cases of the explorer's bounded LRU successor cache
// (KarpMillerOptions::succ_cache_capacity): a capacity of 1, the rule
// that the entry inserted for the node being expanded survives its own
// step, the hit/miss counter accounting contract (exactly one hit or
// miss per processed coverability node), and end-to-end verification
// with an evicting cache.
#include <gtest/gtest.h>

#include "core/verifier.h"
#include "vass/karp_miller.h"
#include "workloads.h"

namespace has {
namespace {

/// s0 fans out to three pump states A, B, A' where A and A' share VASS
/// state 1, and each of them steps to state 3. BFS processes the VASS
/// states in the order [0, 1, 2, 1, 3, 3, 3].
ExplicitVass FanVass() {
  ExplicitVass v(4);
  v.AddAction(0, {{0, +1}}, 1);  // -> state 1, marking (1)
  v.AddAction(0, {{1, +1}}, 2);  // -> state 2, marking (0,1)
  v.AddAction(0, {{2, +1}}, 1);  // -> state 1, marking (0,0,1)
  v.AddAction(1, {{0, +1}}, 3);
  v.AddAction(2, {{1, +1}}, 3);
  return v;
}

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
    }
  }
}

TEST(SuccCacheTest, CapacityOneProducesTheSameGraph) {
  ExplicitVass v1 = FanVass();
  KarpMiller unbounded(&v1, {});
  unbounded.Build({0});
  ExplicitVass v2 = FanVass();
  KarpMillerOptions options;
  options.succ_cache_capacity = 1;
  KarpMiller tiny(&v2, options);
  tiny.Build({0});
  ExpectSameGraph(unbounded, tiny);
}

TEST(SuccCacheTest, OneHitOrMissPerProcessedNode) {
  // The accounting contract: every processed (expanded) node charges
  // exactly one hit or one miss, regardless of capacity.
  for (size_t capacity : {size_t{1}, size_t{2}, size_t{1} << 14}) {
    ExplicitVass v = FanVass();
    KarpMillerOptions options;
    options.succ_cache_capacity = capacity;
    KarpMiller g(&v, options);
    g.Build({0});
    EXPECT_EQ(g.succ_cache_hits() + g.succ_cache_misses(),
              static_cast<size_t>(g.num_nodes()))
        << "capacity=" << capacity;
  }
}

TEST(SuccCacheTest, CurrentStepEntrySurvivesCapacityOne) {
  // A miss inserts the expanded node's entry and then evicts down to
  // the cap, never the new entry: at capacity 1 (and at capacity 0,
  // which behaves the same) the cache always holds the last state
  // expanded. On the sequence [0, 1, 2, 1, 3, 3, 3] that is five misses
  // and two hits — the repeated state 3 hits because its entry
  // survived the step that inserted it. An unbounded cache also hits
  // on the second visit of state 1.
  for (size_t capacity : {size_t{0}, size_t{1}}) {
    ExplicitVass v = FanVass();
    KarpMillerOptions options;
    options.succ_cache_capacity = capacity;
    KarpMiller g(&v, options);
    g.Build({0});
    ASSERT_EQ(g.num_nodes(), 7) << "capacity=" << capacity;
    EXPECT_EQ(g.succ_cache_misses(), 5u) << "capacity=" << capacity;
    EXPECT_EQ(g.succ_cache_hits(), 2u) << "capacity=" << capacity;
  }
  ExplicitVass v = FanVass();
  KarpMiller big(&v, {});
  big.Build({0});
  EXPECT_EQ(big.succ_cache_misses(), 4u);
  EXPECT_EQ(big.succ_cache_hits(), 3u);
}

TEST(SuccCacheTest, OlderEntriesEvictAtCapacityOne) {
  // Revisiting a state expanded in an EARLIER step must re-miss at
  // capacity 1 (its entry was evicted), while an unbounded cache hits.
  // Chain: s0 -> s1 -> s2 -> s1' where s1' re-enters state 1 with a
  // bigger marking (distinct node, same VASS state).
  ExplicitVass v(3);
  v.AddAction(0, {{0, +1}}, 1);
  v.AddAction(1, {{0, +1}}, 2);
  v.AddAction(2, {{0, +1}}, 1);  // back to state 1, next round
  KarpMillerOptions tiny_options;
  tiny_options.succ_cache_capacity = 1;
  ExplicitVass v1 = v;
  KarpMiller tiny(&v1, tiny_options);
  tiny.Build({0});
  ExplicitVass v2 = v;
  KarpMiller big(&v2, {});
  big.Build({0});
  ExpectSameGraph(big, tiny);
  // The unbounded cache hits when state 1 recurs; the capacity-1 cache
  // has evicted it by then and misses strictly more often.
  EXPECT_GT(tiny.succ_cache_misses(), big.succ_cache_misses());
  EXPECT_EQ(tiny.succ_cache_hits() + tiny.succ_cache_misses(),
            static_cast<size_t>(tiny.num_nodes()));
}

TEST(SuccCacheTest, EvictingSuccCacheKeepsVerdictsIdentical) {
  // End to end: a cache bound that actually evicts forces TaskVass to
  // recompute successors of states it already committed. Interned
  // product states and transition records make the recomputation
  // reproduce the original edges and labels, so the verdict, the
  // counterexample and the graph-size counters match the default cache
  // exactly; only the hit/miss split moves.
  bench::Workload w = bench::MakeWorkload(SchemaClass::kAcyclic, 3, 2,
                                          /*with_sets=*/true,
                                          /*with_arith=*/false);
  VerifyResult reference = Verify(w.system, w.property);
  VerifierOptions tiny_options;
  tiny_options.succ_cache_capacity = 3;
  VerifyResult tiny = Verify(w.system, w.property, tiny_options);
  EXPECT_EQ(tiny.verdict, reference.verdict);
  EXPECT_EQ(tiny.counterexample, reference.counterexample);
  EXPECT_EQ(tiny.stats.cov_nodes, reference.stats.cov_nodes);
  EXPECT_EQ(tiny.stats.cov_edges, reference.stats.cov_edges);
  EXPECT_EQ(tiny.stats.product_states, reference.stats.product_states);
  EXPECT_GT(tiny.stats.succ_cache_misses, reference.stats.succ_cache_misses);
}

}  // namespace
}  // namespace has
