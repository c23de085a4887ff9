// Differential tests for the summary-bucketed dominance index
// (vass/dominance_index.h) against a retained FLAT reference scan: the
// index must return the identical minimum-id dominator and remove the
// identical victim set as a linear walk over the same antichain, on
// randomized explorer-like insert/probe/absorb sequences mixing ω
// values (wild-bucket routing), widths past the 32-dimension group wrap
// (inexact summaries, which no product workload reaches), and tie-rank
// cases with several simultaneous dominators.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <set>
#include <vector>

#include "vass/dominance_index.h"
#include "vass/marking.h"

namespace has {
namespace {

/// Flat reference antichain: the pre-index representation, scanned
/// linearly with the scalar-reference order (marking::LessEq on the
/// owned vectors, independent of the packed kernels under test).
struct FlatEntry {
  int node;
  std::vector<int64_t> values;  // owned canonical marking
  MarkingView view;
};

int ReferenceDominatorOf(const std::vector<FlatEntry>& flat,
                         const std::vector<int64_t>& m) {
  int best = -1;
  for (const FlatEntry& e : flat) {
    if (marking::LessEq(m, e.values) && (best < 0 || e.node < best)) {
      best = e.node;
    }
  }
  return best;
}

std::set<int> ReferenceCoveredBy(const std::vector<FlatEntry>& flat,
                                 const std::vector<int64_t>& m) {
  std::set<int> victims;
  for (const FlatEntry& e : flat) {
    if (marking::LessEq(e.values, m)) victims.insert(e.node);
  }
  return victims;
}

std::vector<int64_t> Canonical(std::vector<int64_t> m) {
  while (!m.empty() && m.back() == 0) m.pop_back();
  return m;
}

/// Random canonical marking. `max_dims` up to 40 crosses the 32-dim
/// group wrap (inexact summaries, no ω-cover fast accept).
std::vector<int64_t> RandomMarking(std::mt19937* rng, int max_dims) {
  std::vector<int64_t> m(static_cast<size_t>((*rng)() % (max_dims + 1)), 0);
  for (auto& v : m) {
    const uint32_t r = (*rng)() % 12;
    if (r < 6) continue;             // 0 with p = 0.5
    if (r >= 10) {
      v = kOmega;                    // ω with p = 1/6 → wild entries
    } else {
      v = static_cast<int64_t>(r - 5);  // 1..4 crosses both magnitude bits
    }
  }
  return Canonical(std::move(m));
}

void RunExplorerLikeSequence(int max_dims, uint32_t seed) {
  std::mt19937 rng(seed);
  MarkingArena arena;
  DominanceIndex index;
  std::vector<FlatEntry> flat;
  int next_node = 0;
  size_t fast_accepts_possible = 0;
  size_t wide_entries = 0;
  for (int step = 0; step < 3000; ++step) {
    const std::vector<int64_t> m = RandomMarking(&rng, max_dims);
    const MarkingView probe(m);

    DominanceIndex::Stats stats;
    const int got = index.DominatorOf(probe, &stats);
    const int expected = ReferenceDominatorOf(flat, m);
    ASSERT_EQ(got, expected)
        << "step " << step << " marking " << marking::ToString(m);
    if (expected >= 0) {
      // Accounting identity: every examined entry was either resolved
      // by a summary test or payload-compared (rank-cutoff entries are
      // simply not examined).
      EXPECT_GT(stats.bucket_probes + stats.payload_probes + stats.skipped,
                0u);
      continue;  // the explorer folds into the dominator; no insert
    }

    std::set<int> victims;
    DominanceIndex::Stats absorb_stats;
    index.RemoveCoveredBy(probe, &absorb_stats,
                          [&victims](int node) { victims.insert(node); });
    EXPECT_EQ(victims, ReferenceCoveredBy(flat, m))
        << "step " << step << " marking " << marking::ToString(m);
    std::vector<FlatEntry> kept;
    for (FlatEntry& e : flat) {
      if (!victims.count(e.node)) kept.push_back(std::move(e));
    }
    flat = std::move(kept);

    // The index holds arena payloads; the flat reference keeps the
    // owned vector.
    const MarkingView stored = arena.Add(m);
    index.Insert(next_node, stored);
    flat.push_back(FlatEntry{next_node, m, stored});
    ++next_node;
    ASSERT_EQ(index.size(), flat.size()) << "step " << step;
    if (m.size() <= 32) {
      ++fast_accepts_possible;
    } else {
      ++wide_entries;
    }
  }
  // The sequence actually exercised the interesting paths.
  EXPECT_GT(index.num_buckets(), 1u);
  EXPECT_GT(fast_accepts_possible, 0u);
  // Entries wider than 32 dims take the inexact (`exact = false`)
  // path; the wide corpus must actually insert some.
  if (max_dims > 32) {
    EXPECT_GT(wide_entries, 0u);
  }
}

TEST(DominanceIndexTest, MatchesFlatReferenceNarrow) {
  // Widths <= 6 mirror the real product VASSes: exact summaries, the
  // ω-cover fast accept live on every bucket.
  RunExplorerLikeSequence(/*max_dims=*/6, /*seed=*/20260808u);
}

TEST(DominanceIndexTest, MatchesFlatReferenceWide) {
  // Widths up to 40: group wrap disables the fast accept for part of
  // the corpus (exact and inexact entries share buckets).
  RunExplorerLikeSequence(/*max_dims=*/40, /*seed=*/0xd0117e5u);
}

TEST(DominanceIndexTest, TieRankPicksMinimumNodeAcrossBuckets) {
  // Three dominators of {1, 1} living in THREE different buckets
  // (different magnitude words and one wild entry): the minimum id
  // must win regardless of bucket enumeration order.
  MarkingArena arena;
  DominanceIndex index;
  const std::vector<int64_t> small{1, 1};
  const std::vector<int64_t> medium{2, 2};
  const std::vector<int64_t> omegas{kOmega, kOmega};
  const std::vector<int64_t> disjoint{0, 0, 5};
  index.Insert(3, arena.Add(medium));
  index.Insert(5, arena.Add(omegas));   // wild bucket
  index.Insert(7, arena.Add(small));    // equality also dominates
  index.Insert(9, arena.Add(disjoint)); // never a dominator of {1,1}
  DominanceIndex::Stats stats;
  EXPECT_EQ(index.DominatorOf(MarkingView(small), &stats), 3);
  // A probe only the wild entry covers.
  const std::vector<int64_t> tall{100, 100};
  EXPECT_EQ(index.DominatorOf(MarkingView(tall), &stats), 5);
  // Absorbing {ω, ω, ω} covers every entry including the wild one.
  const std::vector<int64_t> top{kOmega, kOmega, kOmega};
  std::set<int> victims;
  index.RemoveCoveredBy(MarkingView(top), &stats,
                        [&victims](int node) { victims.insert(node); });
  EXPECT_EQ(victims, (std::set<int>{3, 5, 7, 9}));
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.num_buckets(), 0u);
}

}  // namespace
}  // namespace has
