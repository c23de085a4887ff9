// Cone-of-influence-slicing benchmark: end-to-end verification with
// VerifierOptions::slice off (arg0 = 0) vs. on (arg0 = 1, the default)
// on the MakeSlicedMultiRelation family — MakeMultiRelation carrying an
// insert-only audit relation, never-mentioned variables, and a dead
// service per task, all invisible to the property. Reported counters
// are the DETERMINISTIC exploration payload the CI gate checks
// (scripts/check_bench_counters.py against
// bench/baselines/bench_slice.json): the slice-on rows must show
// sliced_services/sliced_dims > 0 and strictly fewer counter_dims and
// cov_nodes than their slice-off siblings, and both rows of a pair must
// reach the same verdict. Wall-clock stays informational (1-vCPU
// recording host).
#include <benchmark/benchmark.h>

#include "bench_options.h"
#include "core/verifier.h"
#include "workloads.h"

namespace {

using has::bench::ApplyCommonOptions;
using has::bench::BenchToggles;
using has::bench::MakeSlicedMultiRelation;
using has::bench::Workload;

void RunVerification(benchmark::State& state, const Workload& w) {
  const bool slice = state.range(0) != 0;
  has::RtStats stats;
  size_t states = 0;
  for (auto _ : state) {
    BenchToggles toggles;
    toggles.slice = slice;
    has::VerifierOptions options = ApplyCommonOptions(toggles);
    has::VerifyResult result = has::Verify(w.system, w.property, options);
    benchmark::DoNotOptimize(result.verdict);
    stats = result.stats;
    states += result.stats.cov_nodes + result.stats.product_states;
  }
  state.counters["states_per_sec"] = benchmark::Counter(
      static_cast<double>(states), benchmark::Counter::kIsRate);
  state.counters["slice"] = slice ? 1 : 0;
  // Deterministic per-verification counters (identical every iteration
  // and on every host — the regression-gate payload).
  state.counters["cov_nodes"] = static_cast<double>(stats.cov_nodes);
  state.counters["cov_edges"] = static_cast<double>(stats.cov_edges);
  state.counters["product_states"] =
      static_cast<double>(stats.product_states);
  state.counters["pooled_types"] = static_cast<double>(stats.pooled_types);
  state.counters["counter_dims"] = static_cast<double>(stats.counter_dims);
  state.counters["cover_edges"] = static_cast<double>(stats.cover_edges);
  state.counters["antichain_probes"] =
      static_cast<double>(stats.antichain_probes);
  state.counters["antichain_skipped_by_summary"] =
      static_cast<double>(stats.antichain_skipped_by_summary);
  state.counters["antichain_bucket_probes"] =
      static_cast<double>(stats.antichain_bucket_probes);
  state.counters["antichain_buckets_peak"] =
      static_cast<double>(stats.antichain_buckets_peak);
  state.counters["sparse_markings"] =
      static_cast<double>(stats.sparse_markings);
  state.counters["ample_reduced_successors"] =
      static_cast<double>(stats.ample_reduced_successors);
  state.counters["ample_full_expansions"] =
      static_cast<double>(stats.ample_full_expansions);
  state.counters["succ_memo_hits"] =
      static_cast<double>(stats.succ_memo_hits);
  state.counters["succ_memo_misses"] =
      static_cast<double>(stats.succ_memo_misses);
  state.counters["full_graph_builds"] =
      static_cast<double>(stats.full_graph_builds);
  state.counters["sliced_services"] =
      static_cast<double>(stats.sliced_services);
  state.counters["sliced_dims"] = static_cast<double>(stats.sliced_dims);
  state.counters["diagnostics_emitted"] =
      static_cast<double>(stats.diagnostics_emitted);
}

const Workload& SlicedWorkload(int num_rels) {
  static auto* workloads = new std::vector<Workload>{
      MakeSlicedMultiRelation(/*size=*/3, /*depth=*/2, /*num_rels=*/1),
      MakeSlicedMultiRelation(/*size=*/3, /*depth=*/2, /*num_rels=*/2),
  };
  return (*workloads)[static_cast<size_t>(num_rels - 1)];
}

// range(0) = slice, range(1) = num_rels.
void BM_Slice_MultiRelation(benchmark::State& s) {
  s.counters["num_rels"] = static_cast<double>(s.range(1));
  RunVerification(s, SlicedWorkload(static_cast<int>(s.range(1))));
}

}  // namespace

BENCHMARK(BM_Slice_MultiRelation)
    ->Args({0, 1})->Args({1, 1})
    ->Args({0, 2})->Args({1, 2})
    ->Unit(benchmark::kMillisecond)->UseRealTime();

BENCHMARK_MAIN();
