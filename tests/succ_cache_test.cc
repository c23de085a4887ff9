// The explorer's per-state successor lists: KarpMiller asks the system
// for a VASS state's successors once, on the state's first expansion,
// and keeps the edges and ample-prefix length for the life of the
// graph. Covers the one-call-per-state-per-explorer rule, the hit/miss
// accounting contract (exactly one hit or miss per processed
// coverability node), and the ample-prefix progress rule (C3) on a
// small explicit system.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "vass/karp_miller.h"

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

/// Forwards to an inner system and counts Successors calls per state.
class CountingVass : public VassSystem {
 public:
  explicit CountingVass(VassSystem* inner) : inner_(inner) {}
  int Successors(int state, std::vector<VassEdge>* out) override {
    ++calls[state];
    return inner_->Successors(state, out);
  }
  std::map<int, int> calls;

 private:
  VassSystem* inner_;
};

/// An explicit system whose states report a fixed ample-prefix length.
class AmpleVass : public VassSystem {
 public:
  AmpleVass(ExplicitVass vass, std::map<int, int> ample)
      : vass_(std::move(vass)), ample_(std::move(ample)) {}
  int Successors(int state, std::vector<VassEdge>* out) override {
    vass_.Successors(state, out);
    auto it = ample_.find(state);
    return it == ample_.end() ? 0 : it->second;
  }

 private:
  ExplicitVass vass_;
  std::map<int, int> ample_;
};

std::set<int> ReachedStates(const KarpMiller& g) {
  std::set<int> states;
  for (int n = 0; n < g.num_nodes(); ++n) states.insert(g.node_state(n));
  return states;
}

TEST(SuccCacheTest, OneSuccessorsCallPerStatePerExplorer) {
  // FanVass revisits states 1 and 3: four first expansions (misses)
  // and three reuses (hits), and the system sees one call per state.
  // A second explorer over the same system asks each state once more.
  for (bool prune : {false, true}) {
    ExplicitVass v = FanVass();
    CountingVass counting(&v);
    KarpMillerOptions options;
    options.prune_coverability = prune;
    KarpMiller g(&counting, options);
    g.Build({0});
    ASSERT_EQ(g.num_nodes(), 7) << "prune=" << prune;
    EXPECT_EQ(g.succ_cache_misses(), 4u) << "prune=" << prune;
    EXPECT_EQ(g.succ_cache_hits(), 3u) << "prune=" << prune;
    EXPECT_EQ(counting.calls,
              (std::map<int, int>{{0, 1}, {1, 1}, {2, 1}, {3, 1}}))
        << "prune=" << prune;
    KarpMiller again(&counting, options);
    again.Build({0});
    EXPECT_EQ(counting.calls,
              (std::map<int, int>{{0, 2}, {1, 2}, {2, 2}, {3, 2}}))
        << "prune=" << prune;
  }
}

TEST(SuccCacheTest, OneHitOrMissPerProcessedNode) {
  // The accounting contract: every processed (expanded) node charges
  // exactly one hit or one miss.
  ExplicitVass v = FanVass();
  KarpMiller g(&v, {});
  g.Build({0});
  EXPECT_EQ(g.succ_cache_hits() + g.succ_cache_misses(),
            static_cast<size_t>(g.num_nodes()));
}

/// State 0 has a one-edge ample prefix, an insert-only self-loop
/// stutter, followed by the deferred transition to state 1.
AmpleVass StutterVass() {
  ExplicitVass v(2);
  v.AddAction(0, {{0, +1}}, 0);  // stutter: the ample prefix
  v.AddAction(0, {{1, +1}}, 1);  // deferred while the stutter progresses
  return AmpleVass(std::move(v), {{0, 1}});
}

TEST(SuccCacheTest, AmpleReductionDefersUntilNoPrefixEdgeProgresses) {
  // From (0, 0̄) the stutter reaches the fresh node (0, ω): progress, so
  // the edge to state 1 is skipped there. At (0, ω) the stutter folds
  // into an equal marking (the node itself), so the prefix makes no
  // progress and the node expands fully (C3): state 1 is still reached.
  for (bool prune : {false, true}) {
    AmpleVass por_system = StutterVass();
    KarpMillerOptions options;
    options.prune_coverability = prune;
    options.por = true;
    KarpMiller reduced(&por_system, options);
    reduced.Build({0});
    EXPECT_EQ(reduced.ample_reduced_successors(), 1u) << "prune=" << prune;
    EXPECT_EQ(reduced.ample_full_expansions(), 1u) << "prune=" << prune;
    ASSERT_EQ(reduced.num_nodes(), 3) << "prune=" << prune;
    EXPECT_EQ(reduced.edges(0).size(), 1u) << "prune=" << prune;
    // The fully expanded (0, ω) keeps its stutter and the deferred edge.
    EXPECT_EQ(reduced.node_state(1), 0) << "prune=" << prune;
    EXPECT_EQ(reduced.edges(1).size(), 2u) << "prune=" << prune;
    EXPECT_EQ(reduced.node_state(2), 1) << "prune=" << prune;

    AmpleVass full_system = StutterVass();
    options.por = false;
    KarpMiller full(&full_system, options);
    full.Build({0});
    EXPECT_EQ(full.ample_reduced_successors(), 0u) << "prune=" << prune;
    EXPECT_EQ(full.ample_full_expansions(), 0u) << "prune=" << prune;
    EXPECT_GT(full.num_nodes(), reduced.num_nodes()) << "prune=" << prune;
    EXPECT_EQ(ReachedStates(reduced), ReachedStates(full))
        << "prune=" << prune;
  }
}

TEST(SuccCacheTest, FullLengthPrefixReducesNothing) {
  // A prefix as long as the successor list is treated as no reduction.
  ExplicitVass v(2);
  v.AddAction(0, {{0, +1}}, 1);
  AmpleVass system(std::move(v), {{0, 1}});
  KarpMillerOptions options;
  options.por = true;
  KarpMiller g(&system, options);
  g.Build({0});
  EXPECT_EQ(g.num_nodes(), 2);
  EXPECT_EQ(g.ample_reduced_successors(), 0u);
  EXPECT_EQ(g.ample_full_expansions(), 0u);
}

}  // namespace
}  // namespace has
