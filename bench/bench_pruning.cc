// Antichain-pruning benchmark: end-to-end verification with
// VerifierOptions::prune_coverability off (arg 0) vs. on (arg 1, the
// default) per workload family, reporting the DETERMINISTIC
// exploration counters — coverability nodes/edges, dropped successors,
// deactivated nodes, antichain peak, recorded cover-edges, product
// states and interned types. The counters are
// schedule- and host-independent, so
// bench/baselines/bench_pruning.json doubles as a perf-regression
// oracle: scripts/check_bench_counters.py fails CI on unexplained
// counter growth while wall-clock stays informational (the recording
// host has 1 vCPU — see ROADMAP). The Table2 family (Table1 plus
// arithmetic) runs pruned only: it is the one gated row whose product
// pays for cell enumeration.
#include <benchmark/benchmark.h>

#include "bench_options.h"
#include "core/verifier.h"
#include "workloads.h"

namespace {

using has::bench::ApplyCommonOptions;
using has::bench::BenchToggles;
using has::bench::MakeAdversarialCyclic;
using has::bench::MakeDeepHierarchy;
using has::bench::MakeMultiSet;
using has::bench::MakeWorkload;
using has::bench::Workload;

void RunVerification(benchmark::State& state, const Workload& w) {
  const bool prune = state.range(0) != 0;
  has::RtStats stats;
  size_t states = 0;
  for (auto _ : state) {
    BenchToggles toggles;
    toggles.prune_coverability = prune;
    has::VerifierOptions options = ApplyCommonOptions(toggles);
    has::VerifyResult result = has::Verify(w.system, w.property, options);
    benchmark::DoNotOptimize(result.verdict);
    stats = result.stats;
    states += result.stats.cov_nodes + result.stats.product_states;
  }
  state.counters["states_per_sec"] = benchmark::Counter(
      static_cast<double>(states), benchmark::Counter::kIsRate);
  state.counters["prune"] = prune ? 1 : 0;
  // Deterministic per-verification counters (identical every
  // iteration and on every host — the regression-gate payload).
  state.counters["cov_nodes"] = static_cast<double>(stats.cov_nodes);
  state.counters["cov_edges"] = static_cast<double>(stats.cov_edges);
  state.counters["product_states"] =
      static_cast<double>(stats.product_states);
  state.counters["pooled_types"] = static_cast<double>(stats.pooled_types);
  state.counters["pruned_successors"] =
      static_cast<double>(stats.pruned_successors);
  state.counters["deactivated_nodes"] =
      static_cast<double>(stats.deactivated_nodes);
  state.counters["antichain_peak"] =
      static_cast<double>(stats.antichain_peak);
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

const Workload& Table1Workload() {
  static auto* w = new Workload(MakeWorkload(
      has::SchemaClass::kAcyclic, /*size=*/3, /*depth=*/2,
      /*with_sets=*/true, /*with_arith=*/false));
  return *w;
}
const Workload& Table1CyclicWorkload() {
  static auto* w = new Workload(MakeWorkload(
      has::SchemaClass::kCyclic, /*size=*/3, /*depth=*/2,
      /*with_sets=*/true, /*with_arith=*/false));
  return *w;
}
const Workload& Table2Workload() {
  static auto* w = new Workload(MakeWorkload(
      has::SchemaClass::kAcyclic, /*size=*/3, /*depth=*/2,
      /*with_sets=*/true, /*with_arith=*/true));
  return *w;
}
const Workload& DeepWorkload() {
  static auto* w = new Workload(MakeDeepHierarchy(/*depth=*/4, /*size=*/3));
  return *w;
}
const Workload& AdversarialWorkload() {
  static auto* w =
      new Workload(MakeAdversarialCyclic(/*size=*/4, /*depth=*/2));
  return *w;
}
const Workload& MultiSetWorkload() {
  static auto* w = new Workload(MakeMultiSet(/*size=*/3, /*depth=*/2,
                                             /*set_width=*/2));
  return *w;
}

void BM_Pruning_Table1(benchmark::State& s) {
  RunVerification(s, Table1Workload());
}
void BM_Pruning_Table1Cyclic(benchmark::State& s) {
  RunVerification(s, Table1CyclicWorkload());
}
void BM_Pruning_Deep(benchmark::State& s) {
  RunVerification(s, DeepWorkload());
}
void BM_Pruning_AdversarialCyclic(benchmark::State& s) {
  RunVerification(s, AdversarialWorkload());
}
void BM_Pruning_MultiSet(benchmark::State& s) {
  RunVerification(s, MultiSetWorkload());
}
void BM_Pruning_Table2(benchmark::State& s) {
  RunVerification(s, Table2Workload());
}

}  // namespace

BENCHMARK(BM_Pruning_Table1)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_Pruning_Table1Cyclic)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_Pruning_Deep)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_Pruning_AdversarialCyclic)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_Pruning_MultiSet)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_Pruning_Table2)->Arg(1)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

BENCHMARK_MAIN();
