// Repository benchmark: time-to-verdict of the HAS verifier.
//
// Every property of a workload is handed to the verifier as `.has`
// source text and timed from ParseSpec to its verdict (the path
// `has_analyze --verify` takes), single-threaded, with VerifierOptions
// at their defaults (the generated corpus alone lowers the coverability
// budget). Verdicts are compared against the recorded oracle
// (perfbench/oracle/), and every exploration counter must repeat
// exactly from pass to pass.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1 --oracle DIR
//   perfbench --record W --oracle DIR
//
// --trace 0 prints the end-to-end metrics. --trace 1 alternates untraced
// passes (plain Verify) with traced passes that replay Verify through
// its public calls, timing each call from outside, and prints the
// per-layer metrics. Every reported time is scaled to a nominal host
// speed, measured by a fixed reference kernel that runs between passes.
// --record writes a workload's oracle rows after cross-checking each
// property with the differential harness. See perfbench/README.md for
// the metric definitions.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/slice.h"
#include "core/counterexample.h"
#include "core/verifier.h"
#include "fuzz/differential.h"
#include "fuzz/generator.h"
#include "model/validate.h"
#include "spec/parser.h"
#include "spec/printer.h"
#include "workloads.h"

namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

[[noreturn]] void Fail(const std::string& message) {
  std::cerr << "perfbench: " << message << "\n";
  std::exit(2);
}

// ------------------------------------------------------------ workloads

/// One property of a workload: the source it is parsed from and the
/// name it is looked up by.
struct Item {
  std::string id;
  std::string source;
  std::string property;
};

/// The per-query coverability budget of the generated-spec corpus:
/// has_fuzz's default, because at the verifier default some generated
/// arithmetic specs run for minutes without a verdict.
constexpr size_t kCorpusMaxCovNodes = 1 << 12;

/// The corpus is GenerateSpec(1 .. kCorpusSpecs) minus kExcludedSpecs:
/// the specs with a property whose single Verify took longer than 0.25 s
/// on the recording host (oracle/fuzz_corpus_excluded.tsv has the
/// times). Up to 20 s each, they would not let a pass fit several times
/// into one run.
constexpr uint64_t kCorpusSpecs = 200;
constexpr uint64_t kExcludedSpecs[] = {7,   27,  42,  60,  65,  66,  71,
                                       92,  96,  97,  98,  106, 112, 117,
                                       136, 145, 152, 158, 168, 175, 196};

bool Excluded(uint64_t spec_seed) {
  return std::count(std::begin(kExcludedSpecs), std::end(kExcludedSpecs),
                    spec_seed) > 0;
}

has::VerifierOptions OptionsFor(const std::string& workload) {
  has::VerifierOptions options;
  if (workload == "fuzz_corpus") options.max_cov_nodes = kCorpusMaxCovNodes;
  return options;
}

Item FamilyItem(const std::string& id, const has::bench::Workload& w) {
  const std::string name = "family_property";
  return {id, has::PrintSpecSource(w.system, {{name, w.property}}), name};
}

/// The property names of a generated spec, in declaration order.
std::vector<std::string> PropertyNames(const std::string& source,
                                       const std::string& id) {
  has::StatusOr<has::ParsedSpec> parsed = has::ParseSpec(source, id);
  if (!parsed.ok()) Fail(id + ": " + parsed.status().message());
  std::vector<std::string> names;
  for (const auto& [name, property] : parsed->properties) {
    names.push_back(name);
  }
  return names;
}

/// The GenerateSpec seed of a corpus item id ("gen:<seed>").
uint64_t SpecSeed(const std::string& id) {
  return std::stoull(id.substr(id.find(':') + 1));
}

std::vector<Item> GeneratedItems(const std::vector<uint64_t>& spec_seeds) {
  std::vector<Item> items;
  for (uint64_t seed : spec_seeds) {
    has::StatusOr<has::GeneratedSpec> spec = has::GenerateSpec(seed);
    if (!spec.ok()) Fail(spec.status().message());
    const std::string id = "gen:" + std::to_string(seed);
    for (const std::string& name : PropertyNames(spec->source, id)) {
      items.push_back({id, spec->source, name});
    }
  }
  return items;
}

// --------------------------------------------------------------- oracle

struct OracleRow {
  std::string item;
  std::string property;
  has::Verdict verdict = has::Verdict::kInconclusive;
};

has::Verdict ParseVerdict(const std::string& text) {
  if (text == "HOLDS") return has::Verdict::kHolds;
  if (text == "VIOLATED") return has::Verdict::kViolated;
  if (text == "INCONCLUSIVE") return has::Verdict::kInconclusive;
  Fail("unknown verdict '" + text + "' in oracle");
}

std::vector<std::string> SplitTabs(const std::string& line) {
  std::vector<std::string> fields;
  std::stringstream in(line);
  std::string field;
  while (std::getline(in, field, '\t')) fields.push_back(field);
  return fields;
}

/// Reads `<dir>/<workload>.tsv`: item, property, verdict, then the
/// record-time columns the runs do not read.
std::vector<OracleRow> ReadOracle(const std::string& dir,
                                  const std::string& workload) {
  const std::string path = dir + "/" + workload + ".tsv";
  std::ifstream in(path);
  if (!in) Fail("cannot read oracle " + path);
  std::vector<OracleRow> rows;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::vector<std::string> f = SplitTabs(line);
    if (f.size() < 3) Fail("malformed oracle line in " + path + ": " + line);
    rows.push_back({f[0], f[1], ParseVerdict(f[2])});
  }
  if (rows.empty()) Fail("oracle " + path + " has no rows");
  return rows;
}

/// splitmix64: a fixed, portable generator, so a seed draws the same
/// corpus order with every standard library.
uint64_t SplitMix(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Builds the workload's items in the order the run verifies them. The
/// families are fixed; the corpus is every spec not excluded, in an order
/// drawn from `seed`.
std::vector<Item> BuildItems(const std::string& workload, uint64_t seed) {
  if (workload == "multirel_k3") {
    return {FamilyItem("MakeMultiRelation(3,2,3)",
                       has::bench::MakeMultiRelation(3, 2, 3))};
  }
  if (workload == "deep_hierarchy") {
    return {FamilyItem("MakeDeepHierarchy(8,2)",
                       has::bench::MakeDeepHierarchy(8, 2))};
  }
  if (workload != "fuzz_corpus") Fail("unknown workload " + workload);
  std::vector<uint64_t> spec_seeds;
  for (uint64_t s = 1; s <= kCorpusSpecs; ++s) {
    if (!Excluded(s)) spec_seeds.push_back(s);
  }
  uint64_t state = seed;
  for (size_t i = spec_seeds.size(); i > 1; --i) {
    std::swap(spec_seeds[i - 1], spec_seeds[SplitMix(&state) % i]);
  }
  return GeneratedItems(spec_seeds);
}

/// Expected verdict per item, matched by (item, property). Every item
/// must have exactly one oracle row and vice versa.
std::vector<has::Verdict> ExpectedVerdicts(
    const std::vector<Item>& items, const std::vector<OracleRow>& oracle) {
  std::map<std::pair<std::string, std::string>, has::Verdict> by_key;
  for (const OracleRow& row : oracle) {
    by_key[{row.item, row.property}] = row.verdict;
  }
  if (by_key.size() != items.size()) {
    Fail("oracle lists " + std::to_string(by_key.size()) +
         " properties, the workload has " + std::to_string(items.size()));
  }
  std::vector<has::Verdict> expected;
  for (const Item& item : items) {
    auto it = by_key.find({item.id, item.property});
    if (it == by_key.end()) {
      Fail("no oracle row for " + item.id + " " + item.property);
    }
    expected.push_back(it->second);
  }
  return expected;
}

// ------------------------------------------------------------- outcomes

/// Everything a verification returns that must repeat exactly.
struct Outcome {
  has::Verdict verdict = has::Verdict::kInconclusive;
  has::RtStats stats;
  std::string counterexample;
  bool used_arithmetic = false;
  int hcd_polys = 0;
  bool parsed = true;
};

std::vector<std::pair<const char*, size_t>> Counters(const has::RtStats& s) {
  return {{"queries", s.queries},
          {"cov_nodes", s.cov_nodes},
          {"cov_edges", s.cov_edges},
          {"product_states", s.product_states},
          {"counter_dims", s.counter_dims},
          {"pooled_types", s.pooled_types},
          {"pooled_cells", s.pooled_cells},
          {"succ_cache_hits", s.succ_cache_hits},
          {"succ_cache_misses", s.succ_cache_misses},
          {"pruned_successors", s.pruned_successors},
          {"deactivated_nodes", s.deactivated_nodes},
          {"antichain_peak", s.antichain_peak},
          {"cover_edges", s.cover_edges},
          {"antichain_probes", s.antichain_probes},
          {"antichain_bucket_probes", s.antichain_bucket_probes},
          {"antichain_skipped_by_summary", s.antichain_skipped_by_summary},
          {"antichain_buckets_peak", s.antichain_buckets_peak},
          {"sparse_markings", s.sparse_markings},
          {"ample_reduced_successors", s.ample_reduced_successors},
          {"ample_full_expansions", s.ample_full_expansions},
          {"full_graph_builds", s.full_graph_builds},
          {"sliced_services", s.sliced_services},
          {"sliced_dims", s.sliced_dims},
          {"diagnostics_emitted", s.diagnostics_emitted},
          {"truncated", s.truncated ? 1u : 0u}};
}

/// A text rendering of every field of an Outcome; two outcomes agree
/// iff their fingerprints are equal.
std::string Fingerprint(const Outcome& o) {
  std::ostringstream out;
  out << has::VerdictName(o.verdict) << " parsed=" << o.parsed
      << " arith=" << o.used_arithmetic << " hcd_polys=" << o.hcd_polys;
  for (const auto& [name, value] : Counters(o.stats)) {
    out << " " << name << "=" << value;
  }
  out << " counterexample=\n" << o.counterexample;
  return out.str();
}

/// The untraced path: ParseSpec, then Verify. Everything the call
/// allocates is released before it returns, so a timing around it
/// includes teardown.
Outcome VerifySource(const Item& item, const has::VerifierOptions& options) {
  Outcome o;
  has::StatusOr<has::ParsedSpec> parsed = has::ParseSpec(item.source);
  const has::HltlProperty* property =
      parsed.ok() ? parsed->FindProperty(item.property) : nullptr;
  if (property == nullptr) {
    o.parsed = false;
    return o;
  }
  has::VerifyResult r = has::Verify(parsed->system, *property, options);
  o.verdict = r.verdict;
  o.stats = r.stats;
  o.counterexample = std::move(r.counterexample);
  o.used_arithmetic = r.used_arithmetic;
  o.hcd_polys = r.hcd_polys;
  return o;
}

/// Seconds spent in each public call of the traced replay.
struct StageTimes {
  double parse = 0, validate = 0, analyze = 0, slice = 0, negate = 0,
         hcd = 0, engine_init = 0, check_root = 0, counterexample = 0;
  /// The whole replay, teardown included.
  double total = 0;

  void Scale(double factor) {
    for (double* f : {&parse, &validate, &analyze, &slice, &negate, &hcd,
                      &engine_init, &check_root, &counterexample, &total}) {
      *f *= factor;
    }
  }
};

/// The traced path: replays has::Verify (src/core/verifier.cc) through
/// its public calls, in the order Verify makes them, timing each call.
/// The traced-replay guard compares its Outcome with VerifySource's.
Outcome TracedVerify(const Item& item, const has::VerifierOptions& options,
                     StageTimes* t) {
  const Clock::time_point start = Clock::now();
  Outcome o;
  {
    Clock::time_point mark = Clock::now();
    auto lap = [&mark](double* into) {
      const Clock::time_point now = Clock::now();
      *into += std::chrono::duration<double>(now - mark).count();
      mark = now;
    };

    has::StatusOr<has::ParsedSpec> parsed = has::ParseSpec(item.source);
    const has::HltlProperty* property =
        parsed.ok() ? parsed->FindProperty(item.property) : nullptr;
    lap(&t->parse);
    if (property == nullptr) {
      o.parsed = false;
      t->total += Since(start);
      return o;
    }
    const has::ArtifactSystem& system = parsed->system;

    has::Status s = has::ValidateSystem(system);
    if (!s.ok()) Fail(item.id + ": invalid system: " + s.ToString());
    s = property->Validate(system);
    if (!s.ok()) Fail(item.id + ": invalid property: " + s.ToString());
    lap(&t->validate);

    has::AnalysisResult analysis =
        has::AnalyzeSystem(system, {{"property", property}});
    lap(&t->analyze);

    std::optional<has::SlicedSpec> sliced;
    size_t sliced_services = 0, sliced_dims = 0;
    if (options.slice) {
      has::SlicePlan plan = has::BuildSlicePlan(system, *property, analysis);
      if (!plan.IsNoOp()) {
        sliced = has::ApplySlice(system, *property, plan);
        s = has::ValidateSystem(sliced->system);
        if (!s.ok()) Fail(item.id + ": invalid sliced system");
        s = sliced->property.Validate(sliced->system);
        if (!s.ok()) Fail(item.id + ": invalid sliced property");
        sliced_services = static_cast<size_t>(plan.dropped_services);
        sliced_dims =
            static_cast<size_t>(plan.dropped_relations + plan.dropped_vars);
      }
    }
    const has::ArtifactSystem& sys =
        sliced.has_value() ? sliced->system : system;
    const has::HltlProperty& prop =
        sliced.has_value() ? sliced->property : *property;
    lap(&t->slice);

    has::HltlProperty negated = prop.Negated();
    lap(&t->negate);

    o.used_arithmetic = has::SystemUsesArithmetic(sys, prop);
    std::optional<has::Hcd> hcd;
    if (o.used_arithmetic) {
      hcd = has::BuildSystemHcd(sys, negated);
      o.hcd_polys = hcd->TotalPolys();
    }
    lap(&t->hcd);

    has::RtEngine engine(&sys, &negated, options,
                         hcd.has_value() ? &*hcd : nullptr);
    lap(&t->engine_init);

    has::RtEngine::RootWitness witness = engine.CheckRoot();
    lap(&t->check_root);

    o.stats = engine.stats();
    o.stats.sliced_services = sliced_services;
    o.stats.sliced_dims = sliced_dims;
    o.stats.diagnostics_emitted = analysis.diagnostics.size();
    if (witness.satisfiable) {
      o.verdict = has::Verdict::kViolated;
      o.counterexample = has::FormatCounterexample(engine, witness, sys);
    } else if (engine.stats().truncated) {
      o.verdict = has::Verdict::kInconclusive;
    } else {
      o.verdict = has::Verdict::kHolds;
    }
    lap(&t->counterexample);
  }
  t->total += Since(start);
  return o;
}

// ----------------------------------------------------------- statistics

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// ----------------------------------------------------------- host speed

/// The nominal host speed, as a ReferenceSeconds() time. Reported times
/// are scaled to it, so it sets only their scale: on the 4-vCPU shared
/// VM the benchmark was tuned on, single kernel runs took 0.08 to 0.26 s.
constexpr double kReferenceNominalS = 0.12;

volatile uint64_t reference_sink = 0;

/// The host-speed reference kernel. It is fixed and calls no verifier
/// code: it fills a hash map of small vectors from a splitmix64 stream,
/// then probes it with random keys. That is the allocation- and
/// lookup-heavy kind of work the verifier's exploration does, so when the
/// other tenants of a shared host contend for its caches and memory, the
/// kernel slows down in step with the verifier. Returns its wall time.
double RunReferenceKernel() {
  const Clock::time_point start = Clock::now();
  uint64_t inserts = 1, sum = 0;
  for (int round = 0; round < 2; ++round) {
    std::unordered_map<uint64_t, std::vector<uint64_t>> buckets;
    for (int i = 0; i < 150000; ++i) {
      const uint64_t x = SplitMix(&inserts);
      buckets[x >> 40].push_back(x);
    }
    uint64_t lookups = 99;
    for (int i = 0; i < 300000; ++i) {
      auto it = buckets.find(SplitMix(&lookups) >> 40);
      if (it != buckets.end()) sum += it->second.size();
    }
  }
  reference_sink = sum;
  return Since(start);
}

/// Runs the reference kernel once in a child process and returns its
/// wall time. The child keeps the kernel's memory out of the verifier's
/// heap and out of peak_rss_mb.
double ReferenceSeconds() {
  int fds[2];
  if (pipe(fds) != 0) Fail("pipe failed");
  const pid_t pid = fork();
  if (pid < 0) Fail("fork failed");
  if (pid == 0) {
    close(fds[0]);
    const double seconds = RunReferenceKernel();
    const bool sent = write(fds[1], &seconds, sizeof seconds) ==
                      static_cast<ssize_t>(sizeof seconds);
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  double seconds = 0;
  const bool received = read(fds[0], &seconds, sizeof seconds) ==
                        static_cast<ssize_t>(sizeof seconds);
  close(fds[0]);
  int status = 0;
  if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0 || !received) {
    Fail("reference kernel failed");
  }
  return seconds;
}

/// The factor that scales a wall time measured between two reference
/// runs to the nominal host speed.
double SpeedScale(double reference_before, double reference_after) {
  return 2 * kReferenceNominalS / (reference_before + reference_after);
}

/// Accumulates the final JSON's metrics object in insertion order.
class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", value);
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
             unit + "\"}";
    std::cout << "  " << name << " = " << buf << " " << unit << "\n";
  }
  std::string Json() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// ------------------------------------------------------------------ run

struct RunConfig {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string oracle_dir;
};

/// Builds the items repeatedly (for at least 0.5 s, and 5 times at
/// least) and returns the median build time with the last build.
std::pair<double, std::vector<Item>> TimedSetup(const RunConfig& cfg) {
  std::vector<double> times;
  std::vector<Item> items;
  const Clock::time_point start = Clock::now();
  while (times.size() < 5 || (Since(start) < 0.5 && times.size() < 10000)) {
    const Clock::time_point t0 = Clock::now();
    items = BuildItems(cfg.workload, cfg.seed);
    times.push_back(Since(t0));
  }
  return {Median(times), std::move(items)};
}

/// Compares `o` with the first outcome recorded for the same item;
/// returns false (and says why) on any drift.
bool SameAsFirst(std::vector<std::optional<std::string>>* first, size_t i,
                 const Outcome& o, const Item& item, const char* what) {
  const std::string fp = Fingerprint(o);
  if (!(*first)[i].has_value()) {
    (*first)[i] = fp;
    return true;
  }
  if (*(*first)[i] == fp) return true;
  std::cerr << "perfbench: " << what << " drift on " << item.id << " "
            << item.property << "\n  first: " << *(*first)[i]
            << "\n  now:   " << fp << "\n";
  return false;
}

int Run(const RunConfig& cfg) {
  const std::vector<OracleRow> oracle =
      ReadOracle(cfg.oracle_dir, cfg.workload);
  // The reference kernel runs before set-up and after set-up and every
  // pass. Each of these timed steps is scaled by the two kernel runs
  // around it.
  std::vector<double> references = {ReferenceSeconds()};
  auto step_scale = [&references]() {
    references.push_back(ReferenceSeconds());
    return SpeedScale(references[references.size() - 2], references.back());
  };
  auto [setup_wall_s, items] = TimedSetup(cfg);
  const double setup_s = setup_wall_s * step_scale();
  const std::vector<has::Verdict> expected = ExpectedVerdicts(items, oracle);
  const has::VerifierOptions options = OptionsFor(cfg.workload);

  size_t attempted = 0, failed = 0, decided = 0;
  bool deterministic = true, guard_ok = true;
  std::vector<std::optional<std::string>> first(items.size());

  // Untraced samples (every pass of --trace 0, the plain passes of
  // --trace 1), scaled to the nominal host speed; wall_latencies and
  // pass_seconds are the unscaled wall times.
  std::vector<double> latencies, wall_latencies, pass_rates, pass_seconds;
  double untraced_total = 0, traced_total = 0;
  // Traced passes: per-pass stage totals and per-pass derived ratios.
  std::vector<StageTimes> traced_passes;
  std::vector<double> arith_share;
  // Counts of one traced pass, by Counters() name (identical in every
  // pass, checked).
  std::map<std::string, double> counts;

  auto untraced_pass = [&]() {
    const size_t pass_begin = wall_latencies.size();
    const Clock::time_point pass_start = Clock::now();
    size_t definite = 0;
    for (size_t i = 0; i < items.size(); ++i) {
      const Clock::time_point t0 = Clock::now();
      const Outcome o = VerifySource(items[i], options);
      wall_latencies.push_back(Since(t0));
      ++attempted;
      if (!o.parsed || o.verdict != expected[i]) {
        ++failed;
        std::cerr << "perfbench: wrong verdict on " << items[i].id << " "
                  << items[i].property << ": "
                  << (o.parsed ? has::VerdictName(o.verdict) : "parse error")
                  << ", expected " << has::VerdictName(expected[i]) << "\n";
      }
      if (o.verdict != has::Verdict::kInconclusive) {
        ++decided;
        ++definite;
      }
      deterministic &= SameAsFirst(&first, i, o, items[i], "count");
    }
    const double elapsed = Since(pass_start);
    const double scale = step_scale();
    for (size_t i = pass_begin; i < wall_latencies.size(); ++i) {
      latencies.push_back(wall_latencies[i] * scale);
    }
    untraced_total += elapsed * scale;
    pass_rates.push_back(static_cast<double>(definite) / (elapsed * scale));
    pass_seconds.push_back(elapsed);
  };

  auto traced_pass = [&]() {
    StageTimes pass;
    double check_root_arith = 0;
    std::map<std::string, double> pass_counts;
    for (size_t i = 0; i < items.size(); ++i) {
      const double before = pass.check_root;
      const Outcome o = TracedVerify(items[i], options, &pass);
      if (o.used_arithmetic) check_root_arith += pass.check_root - before;
      guard_ok &= SameAsFirst(&first, i, o, items[i], "traced-replay");
      for (const auto& [name, value] : Counters(o.stats)) {
        pass_counts[name] += static_cast<double>(value);
      }
      pass_counts["hcd_polys"] += o.hcd_polys;
    }
    arith_share.push_back(Ratio(check_root_arith, pass.check_root));
    pass.Scale(step_scale());
    traced_total += pass.total;
    traced_passes.push_back(pass);
    counts = std::move(pass_counts);
  };

  // Passes run while another one still fits into --seconds, and at
  // least twice so that every count is seen to repeat. Traced runs
  // alternate which of the two passes goes first.
  const Clock::time_point start = Clock::now();
  double last = 0;
  for (int pass = 0; pass < 2 || Since(start) + last <= cfg.seconds; ++pass) {
    const Clock::time_point pass_start = Clock::now();
    if (!cfg.trace) {
      untraced_pass();
    } else if (pass % 2 == 0) {
      untraced_pass();
      traced_pass();
    } else {
      traced_pass();
      untraced_pass();
    }
    last = Since(pass_start);
  }

  const bool correct = failed == 0 && deterministic && guard_ok;
  std::cout << "workload " << cfg.workload << ": " << items.size()
            << " properties per pass, " << attempted
            << " verifications, " << failed << " wrong, "
            << (deterministic ? "counts repeat" : "COUNTS DRIFT") << ", "
            << (cfg.trace ? (guard_ok ? "traced replay matches Verify"
                                      : "TRACED REPLAY DIFFERS")
                          : "untraced")
            << "\n";
  std::cout << "  wrong_verdict_ratio = "
            << Ratio(static_cast<double>(failed),
                     static_cast<double>(attempted))
            << " (" << failed << " of " << attempted << ")\n";

  std::cout << "  untraced pass wall seconds:";
  for (double p : pass_seconds) std::cout << " " << p;
  std::cout << "\n  reference kernel seconds (nominal " << kReferenceNominalS
            << "): median " << Median(references) << ", min "
            << *std::min_element(references.begin(), references.end())
            << ", max "
            << *std::max_element(references.begin(), references.end())
            << ", runs " << references.size() << "\n";
  std::cout << "  unscaled wall-clock verdict latency p50: "
            << Median(wall_latencies) << " s\n";

  Metrics m;
  if (!cfg.trace) {
    const double p90 = Quantile(latencies, 0.9);
    const size_t above = static_cast<size_t>(
        std::count_if(latencies.begin(), latencies.end(),
                      [p90](double x) { return x > p90; }));
    std::cout << "  latency samples: " << latencies.size() << " ("
              << above << " above p90), passes: " << pass_rates.size()
              << "\n";
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    m.Add("verdict_latency_p50_s", Median(latencies), "s");
    m.Add("verdict_latency_p90_s", p90, "s");
    m.Add("verdicts_per_s", Median(pass_rates), "1/s");
    m.Add("decided_ratio",
          Ratio(static_cast<double>(decided), static_cast<double>(attempted)),
          "ratio");
    m.Add("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB");
    m.Add("setup_s", setup_s, "s");
  } else {
    const double n = static_cast<double>(items.size());
    auto stage = [&](double StageTimes::*field) {
      std::vector<double> v;
      for (const StageTimes& p : traced_passes) v.push_back(p.*field / n);
      return Median(v);
    };
    auto per_pass = [&](const std::function<double(const StageTimes&)>& f) {
      std::vector<double> v;
      for (const StageTimes& p : traced_passes) v.push_back(f(p));
      return Median(v);
    };
    auto count = [&counts](const char* name) { return counts.at(name); };
    const double succ = count("succ_cache_misses");
    std::cout << "  traced passes: " << traced_passes.size() << "\n";
    m.Add("spec.parse_s", stage(&StageTimes::parse), "s");
    m.Add("model.validate_s", stage(&StageTimes::validate), "s");
    m.Add("analysis.analyze_s", stage(&StageTimes::analyze), "s");
    m.Add("analysis.diagnostics", count("diagnostics_emitted"), "count");
    m.Add("analysis.slice_s", stage(&StageTimes::slice), "s");
    m.Add("analysis.sliced_dims", count("sliced_dims"), "count");
    m.Add("hltl.negate_s", stage(&StageTimes::negate), "s");
    m.Add("arith.hcd_s", stage(&StageTimes::hcd), "s");
    m.Add("arith.hcd_polys", count("hcd_polys"), "count");
    m.Add("arith.pooled_cells", count("pooled_cells"), "count");
    m.Add("arith.check_root_share", Median(arith_share), "ratio");
    m.Add("core.engine_init_s", stage(&StageTimes::engine_init), "s");
    m.Add("core.check_root_s", stage(&StageTimes::check_root), "s");
    m.Add("core.check_root_share", per_pass([](const StageTimes& p) {
            return Ratio(p.check_root, p.total);
          }),
          "ratio");
    m.Add("core.counterexample_s", stage(&StageTimes::counterexample), "s");
    m.Add("core.queries", count("queries"), "count");
    m.Add("core.product_states", count("product_states"), "count");
    m.Add("core.succ_enumerations", succ, "count");
    m.Add("core.succ_cache_hit_ratio",
          Ratio(count("succ_cache_hits"), count("succ_cache_hits") + succ),
          "ratio");
    m.Add("core.pooled_types", count("pooled_types"), "count");
    m.Add("core.ample_reduced_successors", count("ample_reduced_successors"),
          "count");
    m.Add("core.us_per_succ_enumeration",
          per_pass([succ](const StageTimes& p) {
            return Ratio(1e6 * p.check_root, succ);
          }),
          "us");
    m.Add("vass.cov_nodes", count("cov_nodes"), "count");
    m.Add("vass.cov_edges", count("cov_edges"), "count");
    m.Add("vass.cover_edges", count("cover_edges"), "count");
    m.Add("vass.antichain_probes", count("antichain_probes"), "count");
    const double skips = count("antichain_skipped_by_summary");
    m.Add("vass.summary_skip_ratio",
          Ratio(skips, skips + count("antichain_probes")), "ratio");
    m.Add("trace.overhead_ratio", Ratio(traced_total, untraced_total) - 1,
          "ratio");
    m.Add("host.reference_s", Median(references), "s");
    m.Add("host.wall_latency_p50_s", Median(wall_latencies), "s");
  }
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << m.Json() << "}" << std::endl;
  return 0;
}

// --------------------------------------------------------------- record

const char* WitnessNote(const has::DiffReport& report) {
  if (report.verdict != has::Verdict::kViolated) return "-";
  return report.witness_found ? "witness" : "no-witness";
}

/// Writes `<oracle>/<workload>.tsv`: every property cross-checked with
/// RunDifferential (symbolic POR x slice x shards matrix, simulator,
/// bounded checker). Only kAgreed and the two documented soft kinds are
/// accepted. The properties of kExcludedSpecs are listed, with their
/// Verify times, in `<oracle>/fuzz_corpus_excluded.tsv` instead.
int Record(const std::string& workload, const std::string& oracle_dir) {
  std::vector<Item> items;
  if (workload == "fuzz_corpus") {
    std::vector<uint64_t> seeds;
    for (uint64_t s = 1; s <= kCorpusSpecs; ++s) seeds.push_back(s);
    items = GeneratedItems(seeds);
  } else {
    items = BuildItems(workload, 0);
  }
  const has::VerifierOptions options = OptionsFor(workload);
  has::DiffOptions diff;
  diff.max_cov_nodes = options.max_cov_nodes;

  std::ofstream out(oracle_dir + "/" + workload + ".tsv");
  std::ofstream excluded;
  out << "# item\tproperty\tverdict\tdiff_kind\tconcrete_witness\t"
         "uses_arithmetic\trecorded_verify_s\n";
  if (workload == "fuzz_corpus") {
    excluded.open(oracle_dir + "/fuzz_corpus_excluded.tsv");
    excluded << "# item\tproperty\tverdict\tuses_arithmetic\t"
                "recorded_verify_s\n";
  }
  int status = 0;
  for (size_t begin = 0, end = 0; begin < items.size(); begin = end) {
    // One spec at a time: its properties are items[begin, end).
    end = begin;
    while (end < items.size() && items[end].id == items[begin].id) ++end;
    has::StatusOr<has::ParsedSpec> parsed = has::ParseSpec(items[begin].source);
    if (!parsed.ok()) Fail(items[begin].id + ": " + parsed.status().message());
    std::vector<has::VerifyResult> results;
    std::vector<double> seconds;
    for (size_t i = begin; i < end; ++i) {
      const Clock::time_point t0 = Clock::now();
      results.push_back(has::Verify(
          parsed->system, *parsed->FindProperty(items[i].property), options));
      seconds.push_back(Since(t0));
      const has::RtStats& st = results.back().stats;
      std::cerr << items[i].id << " " << items[i].property << " "
                << has::VerdictName(results.back().verdict) << " "
                << seconds.back() << " s " << st.cov_nodes << " "
                << st.cov_edges << " " << st.product_states << " "
                << st.pooled_cells << " " << st.succ_cache_misses << "\n";
    }
    const bool excluded_spec =
        workload == "fuzz_corpus" && Excluded(SpecSeed(items[begin].id));
    for (size_t i = begin; i < end; ++i) {
      const has::VerifyResult& r = results[i - begin];
      const char* arith = r.used_arithmetic ? "arith" : "-";
      if (excluded_spec) {
        excluded << items[i].id << "\t" << items[i].property << "\t"
                 << has::VerdictName(r.verdict) << "\t" << arith << "\t"
                 << seconds[i - begin] << "\n";
        continue;
      }
      const has::DiffReport report = has::RunDifferential(
          parsed->system, *parsed->FindProperty(items[i].property), diff);
      const bool accepted =
          report.kind == has::DiffReport::Kind::kAgreed ||
          report.kind == has::DiffReport::Kind::kMissingWitness ||
          report.kind == has::DiffReport::Kind::kSuspectWitness;
      if (!accepted || report.verdict != r.verdict) {
        std::cerr << "perfbench: " << items[i].id << " " << items[i].property
                  << ": " << has::DiffKindName(report.kind) << "\n"
                  << report.detail << "\n";
        status = 1;
        continue;
      }
      out << items[i].id << "\t" << items[i].property << "\t"
          << has::VerdictName(r.verdict) << "\t"
          << has::DiffKindName(report.kind) << "\t" << WitnessNote(report)
          << "\t" << arith << "\t" << seconds[i - begin] << "\n";
    }
  }
  return status;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  std::string record;
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) Fail("missing value after " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      cfg.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      cfg.seed = std::stoull(value);
      have_seed = true;
    } else if (arg == "--seconds") {
      cfg.seconds = std::stod(value);
    } else if (arg == "--trace") {
      cfg.trace = value == "1";
    } else if (arg == "--oracle") {
      cfg.oracle_dir = value;
    } else if (arg == "--record") {
      record = value;
    } else {
      Fail("unknown argument " + arg);
    }
  }
  if (cfg.oracle_dir.empty()) Fail("--oracle DIR is required");
  if (!record.empty()) {
    return Record(record, cfg.oracle_dir);
  }
  if (!have_workload || !have_seed) Fail("--workload and --seed are required");
  return Run(cfg);
}
