// Multi-relation benchmark: end-to-end verification of the
// MakeMultiRelation family as a function of the number of artifact
// relations per task (S_T,1 … S_T,k at k = 1/2/3), reporting the
// DETERMINISTIC exploration counters — coverability nodes/edges,
// product states, interned types, recorded cover-edges — that feed
// the CI counter gate
// (scripts/check_bench_counters.py against
// bench/baselines/bench_multirel.json). Each relation owns its own
// counter-dimension group in every product VASS, so k scales the
// number of independent counter groups; wall-clock stays
// informational (1-vCPU recording host — see ROADMAP).
#include <benchmark/benchmark.h>

#include "bench_options.h"
#include "core/verifier.h"
#include "workloads.h"

namespace {

using has::bench::ApplyCommonOptions;
using has::bench::MakeMultiRelation;
using has::bench::Workload;

void RunVerification(benchmark::State& state, const Workload& w) {
  has::RtStats stats;
  size_t states = 0;
  for (auto _ : state) {
    has::VerifierOptions options = ApplyCommonOptions();
    has::VerifyResult result = has::Verify(w.system, w.property, options);
    benchmark::DoNotOptimize(result.verdict);
    stats = result.stats;
    states += result.stats.cov_nodes + result.stats.product_states;
  }
  state.counters["states_per_sec"] = benchmark::Counter(
      static_cast<double>(states), benchmark::Counter::kIsRate);
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
  state.counters["ample_reduced_successors"] =
      static_cast<double>(stats.ample_reduced_successors);
  state.counters["ample_full_expansions"] =
      static_cast<double>(stats.ample_full_expansions);
  state.counters["succ_memo_hits"] =
      static_cast<double>(stats.succ_memo_hits);
  state.counters["succ_memo_misses"] =
      static_cast<double>(stats.succ_memo_misses);
  state.counters["sliced_services"] =
      static_cast<double>(stats.sliced_services);
  state.counters["sliced_dims"] = static_cast<double>(stats.sliced_dims);
  state.counters["diagnostics_emitted"] =
      static_cast<double>(stats.diagnostics_emitted);
}

void BM_MultiRelation(benchmark::State& s) {
  static auto* workloads = new std::vector<Workload>{
      MakeMultiRelation(/*size=*/3, /*depth=*/2, /*num_rels=*/1),
      MakeMultiRelation(/*size=*/3, /*depth=*/2, /*num_rels=*/2),
      MakeMultiRelation(/*size=*/3, /*depth=*/2, /*num_rels=*/3),
  };
  const auto& w = (*workloads)[static_cast<size_t>(s.range(0)) - 1];
  s.counters["num_rels"] = static_cast<double>(s.range(0));
  RunVerification(s, w);
}

}  // namespace

BENCHMARK(BM_MultiRelation)->Arg(1)->Arg(2)->Arg(3)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

BENCHMARK_MAIN();
