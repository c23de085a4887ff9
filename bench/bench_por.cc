// Partial-order-reduction benchmark: end-to-end verification with
// VerifierOptions::por off (arg0 = 0) vs. on (arg0 = 1, the default) on
// the commuting-services family (width = per-task count of independent
// insert-only stores — the reduction's best case) and on the
// MakeMultiRelation k = 3 row the ROADMAP flagged for its coverability
// blow-up. Reported counters are the DETERMINISTIC exploration payload
// the CI gate checks (scripts/check_bench_counters.py against
// bench/baselines/bench_por.json): the POR-on rows must show
// ample_reduced_successors > 0 and strictly fewer cov-nodes than their
// POR-off siblings, and both rows of a pair must reach the same
// verdict. Wall-clock stays informational (1-vCPU recording host).
#include <benchmark/benchmark.h>

#include "bench_options.h"
#include "core/verifier.h"
#include "workloads.h"

namespace {

using has::bench::ApplyCommonOptions;
using has::bench::BenchToggles;
using has::bench::MakeCommutingServices;
using has::bench::MakeMultiRelation;
using has::bench::Workload;

void RunVerification(benchmark::State& state, const Workload& w) {
  const bool por = state.range(0) != 0;
  has::RtStats stats;
  size_t states = 0;
  for (auto _ : state) {
    BenchToggles toggles;
    toggles.por = por;
    // Slicing strips the never-retrieved relations whose insert-only
    // store footprints make the commuting family ample-eligible, so the
    // reduction would (correctly) never fire on the sliced system. The
    // POR rows therefore run slice-off; the slicer has its own bench
    // (bench_slice) and gate.
    toggles.slice = false;
    has::VerifierOptions options = ApplyCommonOptions(toggles);
    has::VerifyResult result = has::Verify(w.system, w.property, options);
    benchmark::DoNotOptimize(result.verdict);
    stats = result.stats;
    states += result.stats.cov_nodes + result.stats.product_states;
  }
  state.counters["states_per_sec"] = benchmark::Counter(
      static_cast<double>(states), benchmark::Counter::kIsRate);
  state.counters["por"] = por ? 1 : 0;
  // Deterministic per-verification counters (identical every iteration
  // and on every host — the regression-gate payload).
  state.counters["cov_nodes"] = static_cast<double>(stats.cov_nodes);
  state.counters["cov_edges"] = static_cast<double>(stats.cov_edges);
  state.counters["product_states"] =
      static_cast<double>(stats.product_states);
  state.counters["pooled_types"] = static_cast<double>(stats.pooled_types);
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

const Workload& CommutingWorkload(int width) {
  static auto* workloads = new std::vector<Workload>{
      MakeCommutingServices(/*width=*/2, /*depth=*/2),
      MakeCommutingServices(/*width=*/3, /*depth=*/2),
      MakeCommutingServices(/*width=*/4, /*depth=*/2),
  };
  return (*workloads)[static_cast<size_t>(width - 2)];
}
const Workload& MultiRelWorkload() {
  static auto* w =
      new Workload(MakeMultiRelation(/*size=*/3, /*depth=*/2, /*num_rels=*/3));
  return *w;
}

// range(0) = por, range(1) = width.
void BM_Por_Commuting(benchmark::State& s) {
  s.counters["width"] = static_cast<double>(s.range(1));
  RunVerification(s, CommutingWorkload(static_cast<int>(s.range(1))));
}
void BM_Por_MultiRelation(benchmark::State& s) {
  RunVerification(s, MultiRelWorkload());
}

}  // namespace

BENCHMARK(BM_Por_Commuting)
    ->Args({0, 2})->Args({1, 2})
    ->Args({0, 3})->Args({1, 3})
    ->Args({0, 4})->Args({1, 4})
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_Por_MultiRelation)
    ->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

BENCHMARK_MAIN();
