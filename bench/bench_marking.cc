// Dominance-kernel microbenchmark: all-pairs DominanceLeq over a
// fixed-seed corpus of canonical markings, at dims 8/32/128 and dense
// vs sparse support, with and without the ExtendedSummary prefilter
// the dominance index uses (src/vass/marking.h). Two deterministic
// kernel-semantics counters feed the CI gate
// (scripts/check_bench_counters.py against
// bench/baselines/bench_marking.json, run with --exact):
//   - leq_true: number of ≤ pairs in the corpus. Identical between the
//     filtered and unfiltered rows (the summary filter is sound).
//   - summary_pass: pairs surviving the prefilter — pins the filter's
//     selectivity on the corpus.
// Wall-clock (pairs_per_sec) stays informational as everywhere else.
//
// The corpus generator uses raw mt19937 draws (the engine is fully
// specified by the standard) instead of std distributions (which are
// implementation-defined), so the counters reproduce across standard
// libraries.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <random>
#include <vector>

#include "vass/marking.h"

namespace {

using has::DominanceLeq;
using has::ExtendedSummary;
using has::kOmega;
using has::MarkingArena;
using has::MarkingSummary;
using has::MarkingView;
using has::SummaryMayDominate;

constexpr size_t kCorpusSize = 128;

struct Corpus {
  MarkingArena arena;
  std::vector<MarkingView> views;
  std::vector<MarkingSummary> summaries;
};

Corpus MakeCorpus(int dims, bool dense) {
  Corpus c;
  std::mt19937 rng(0x5eed0000u + static_cast<unsigned>(dims) * 2u +
                   (dense ? 1u : 0u));
  // Percent thresholds; small value range keeps ≤ pairs frequent
  // enough that the kernel's early exit and full-length paths both get
  // exercised.
  const uint32_t pct_nonzero = dense ? 90 : 25;
  const uint32_t pct_omega = dense ? 10 : 5;
  std::vector<int64_t> m;
  for (size_t i = 0; i < kCorpusSize; ++i) {
    m.assign(static_cast<size_t>(dims), 0);
    for (int d = 0; d < dims; ++d) {
      if (rng() % 100 >= pct_nonzero) continue;
      m[static_cast<size_t>(d)] =
          rng() % 100 < pct_omega ? kOmega
                                  : static_cast<int64_t>(1 + rng() % 3);
    }
    while (!m.empty() && m.back() == 0) m.pop_back();  // canonical form
    c.views.push_back(c.arena.Add(m));
    c.summaries.push_back(ExtendedSummary(c.views.back()));
  }
  return c;
}

void BM_Dominance(benchmark::State& state) {
  const Corpus c = MakeCorpus(static_cast<int>(state.range(0)),
                              state.range(1) != 0);
  size_t leq_true = 0;
  size_t pairs = 0;
  for (auto _ : state) {
    size_t count = 0;
    for (size_t i = 0; i < kCorpusSize; ++i) {
      for (size_t j = 0; j < kCorpusSize; ++j) {
        count += DominanceLeq(c.views[i], c.views[j]) ? 1 : 0;
      }
    }
    benchmark::DoNotOptimize(count);
    leq_true = count;
    pairs += kCorpusSize * kCorpusSize;
  }
  state.counters["pairs_per_sec"] = benchmark::Counter(
      static_cast<double>(pairs), benchmark::Counter::kIsRate);
  state.counters["leq_true"] = static_cast<double>(leq_true);
}

void BM_DominanceSummaryFiltered(benchmark::State& state) {
  const Corpus c = MakeCorpus(static_cast<int>(state.range(0)),
                              state.range(1) != 0);
  size_t leq_true = 0;
  size_t summary_pass = 0;
  size_t pairs = 0;
  for (auto _ : state) {
    size_t count = 0;
    size_t pass = 0;
    for (size_t i = 0; i < kCorpusSize; ++i) {
      const MarkingSummary& si = c.summaries[i];
      for (size_t j = 0; j < kCorpusSize; ++j) {
        if (!SummaryMayDominate(si, c.summaries[j])) continue;
        ++pass;
        count += DominanceLeq(c.views[i], c.views[j]) ? 1 : 0;
      }
    }
    benchmark::DoNotOptimize(count);
    leq_true = count;
    summary_pass = pass;
    pairs += kCorpusSize * kCorpusSize;
  }
  state.counters["pairs_per_sec"] = benchmark::Counter(
      static_cast<double>(pairs), benchmark::Counter::kIsRate);
  // Must EQUAL the unfiltered row's leq_true: the prefilter only skips
  // pairs that cannot be ≤. The --exact gate holds both rows to it.
  state.counters["leq_true"] = static_cast<double>(leq_true);
  state.counters["summary_pass"] = static_cast<double>(summary_pass);
}

}  // namespace

// Args: {dims, dense}. dims 8/32/128 brackets the products seen in the
// bench families (narrow Table-1 products up to multi-relation k=3);
// 128 also exceeds the 32-dim group wrap, so summaries saturate.
BENCHMARK(BM_Dominance)
    ->Args({8, 0})->Args({8, 1})
    ->Args({32, 0})->Args({32, 1})
    ->Args({128, 0})->Args({128, 1})
    ->Unit(benchmark::kMicrosecond)->UseRealTime();
BENCHMARK(BM_DominanceSummaryFiltered)
    ->Args({8, 0})->Args({8, 1})
    ->Args({32, 0})->Args({32, 1})
    ->Args({128, 0})->Args({128, 1})
    ->Unit(benchmark::kMicrosecond)->UseRealTime();

BENCHMARK_MAIN();
