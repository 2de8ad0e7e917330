// Microbenchmarks for the analysis layer: Jaccard matrix construction,
// classical-vs-SMACOF MDS (the DESIGN.md ablation), clustering, staleness,
// full scenario construction, and the membership-table lane build on a
// pool.  Also reports the trust-aware vs all-certificates Jaccard
// ablation.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "src/analysis/cadence.h"
#include "src/analysis/churn.h"
#include "src/analysis/cluster.h"
#include "src/analysis/diffs.h"
#include "src/analysis/jaccard.h"
#include "src/analysis/mds.h"
#include "src/analysis/operators.h"
#include "src/analysis/staleness.h"
#include "src/exec/thread_pool.h"
#include "src/obs/registry.h"
#include "src/store/interner.h"
#include "src/store/membership.h"
#include "src/synth/paper_scenario.h"
#include "src/synth/simulator.h"

namespace {

const rs::synth::PaperScenario& shared_scenario() {
  static const rs::synth::PaperScenario scenario =
      rs::synth::build_paper_scenario();
  return scenario;
}

// The scenario's membership table, built once as the study builds it.
const rs::store::MembershipTable& shared_table() {
  static const rs::store::MembershipTable table =
      rs::store::MembershipTable::build(shared_scenario().database());
  return table;
}

// The Jaccard matrix over the shared scenario and table.
rs::analysis::DistanceMatrix shared_matrix(
    const rs::analysis::JaccardOptions& opts) {
  return rs::analysis::jaccard_matrix(shared_scenario().database(),
                                      shared_table(), opts);
}

// perfbench's sim_index point: 600 CAs, 6 programs, 6 derivatives, a
// 30-day cadence and 2 CT logs (14 providers), seed 1.
const rs::store::StoreDatabase& sim_index_database() {
  static const rs::synth::SimulatedEcosystem eco = [] {
    rs::synth::SimulatorConfig cfg;
    cfg.ca_count = 600;
    cfg.program_count = 6;
    cfg.derivative_count = 6;
    cfg.snapshot_interval_days = 30;
    cfg.ct_log_count = 2;
    return rs::synth::simulate_ecosystem(cfg);
  }();
  return eco.database;
}

void BM_ScenarioBuild(benchmark::State& state) {
  for (auto _ : state) {
    auto scenario = rs::synth::build_paper_scenario();
    benchmark::DoNotOptimize(scenario.database().total_snapshots());
  }
}
BENCHMARK(BM_ScenarioBuild)->Unit(benchmark::kMillisecond);

void BM_SimulatorScaling(benchmark::State& state) {
  rs::synth::SimulatorConfig cfg;
  cfg.ca_count = static_cast<int>(state.range(0));
  cfg.seed = 5;
  for (auto _ : state) {
    auto eco = rs::synth::simulate_ecosystem(cfg);
    benchmark::DoNotOptimize(eco.database.total_snapshots());
  }
  state.counters["cas"] = static_cast<double>(cfg.ca_count);
}
BENCHMARK(BM_SimulatorScaling)->Arg(50)->Arg(150)->Arg(400)
    ->Unit(benchmark::kMillisecond);

void BM_JaccardMatrix(benchmark::State& state) {
  shared_table();  // built outside the timed loop
  rs::analysis::JaccardOptions opts;
  opts.max_per_provider = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto dist = shared_matrix(opts);
    benchmark::DoNotOptimize(dist.values.data());
    state.counters["snapshots"] = static_cast<double>(dist.size());
  }
}
BENCHMARK(BM_JaccardMatrix)->Arg(10)->Arg(25)->Arg(50)
    ->Unit(benchmark::kMillisecond);

// Thread-pool scaling of the one pooled kernel: the membership table's
// per-provider lanes over the sim_index point's database (14 providers)
// and a fixed universe.  The arg is the worker count (0 is the inline
// serial baseline; one worker builds inline too, so the sweep skips it).
// The paper data's ~1 ms serial build is below what 5 repetitions resolve
// on a 4-vCPU host, so only the larger input is swept.  The table is
// identical across args (see docs/PARALLELISM.md); only the wall clock
// moves.  tools/record_bench.sh captures this sweep into
// BENCH_parallel.json and prints the serial-vs-N speedups.
void BM_MembershipBuildParallel(benchmark::State& state) {
  const auto& db = sim_index_database();
  const auto interner = rs::store::CertInterner::from_database(db);
  const auto threads = static_cast<std::size_t>(state.range(0));
  std::unique_ptr<rs::exec::ThreadPool> pool;
  if (threads > 0) pool = std::make_unique<rs::exec::ThreadPool>(threads);
  for (auto _ : state) {
    auto table = rs::store::MembershipTable::build(db, interner, pool.get());
    benchmark::DoNotOptimize(table);
  }
  state.counters["providers"] = static_cast<double>(db.histories().size());
  state.counters["threads"] = static_cast<double>(threads);
  state.SetLabel(threads == 0 ? std::string("serial")
                              : std::to_string(threads) + "-workers");
}
BENCHMARK(BM_MembershipBuildParallel)->Arg(0)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime()->UseRealTime();

// --- Membership-table benchmarks -------------------------------------------
//
// The paper-scenario Figure 1 matrix (2011-2021 window) over the shared
// table's rows.

void BM_JaccardMatrixInterned(benchmark::State& state) {
  shared_table();  // built once, as in the study, outside the timed loop
  rs::analysis::JaccardOptions opts;
  opts.min_date = rs::util::Date::ymd(2011, 1, 1);
  opts.max_per_provider = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto dist = shared_matrix(opts);
    benchmark::DoNotOptimize(dist.values.data());
    state.counters["snapshots"] = static_cast<double>(dist.size());
  }
  state.SetLabel("interned");
}
BENCHMARK(BM_JaccardMatrixInterned)->Arg(25)->Arg(40)->Arg(80)
    ->Unit(benchmark::kMillisecond);

void BM_InternerBuild(benchmark::State& state) {
  const auto& scenario = shared_scenario();
  for (auto _ : state) {
    auto interner =
        rs::store::CertInterner::from_database(scenario.database());
    benchmark::DoNotOptimize(interner.size());
    state.counters["universe"] = static_cast<double>(interner.size());
  }
}
BENCHMARK(BM_InternerBuild)->Unit(benchmark::kMillisecond);

void BM_DiffSeriesEngines(benchmark::State& state) {
  const auto& scenario = shared_scenario();
  const auto* nss = scenario.database().find("NSS");
  const auto index = rs::analysis::build_version_index(*nss, shared_table());
  for (auto _ : state) {
    std::size_t points = 0;
    for (const char* name :
         {"Alpine", "AmazonLinux", "Android", "NodeJS", "Debian", "Ubuntu"}) {
      points += rs::analysis::derivative_diffs(*scenario.database().find(name),
                                               *nss, shared_table(), index)
                    .points.size();
    }
    benchmark::DoNotOptimize(points);
  }
}
BENCHMARK(BM_DiffSeriesEngines)->Unit(benchmark::kMillisecond);

// Ablation: all-certificates (paper) vs TLS-anchors-only (trust-aware) sets.
void BM_JaccardSetKind(benchmark::State& state) {
  shared_table();  // built outside the timed loop
  rs::analysis::JaccardOptions opts;
  opts.max_per_provider = 25;
  opts.set_kind = state.range(0) == 0
                      ? rs::analysis::SetKind::kAllCertificates
                      : rs::analysis::SetKind::kTlsAnchors;
  for (auto _ : state) {
    auto dist = shared_matrix(opts);
    benchmark::DoNotOptimize(dist.values.data());
  }
  state.SetLabel(state.range(0) == 0 ? "all-certificates" : "tls-anchors");
}
BENCHMARK(BM_JaccardSetKind)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// Ablation: classical MDS vs SMACOF (paper's choice), same input.
void BM_MdsClassical(benchmark::State& state) {
  rs::analysis::JaccardOptions opts;
  opts.max_per_provider = static_cast<std::size_t>(state.range(0));
  const auto dist = shared_matrix(opts);
  for (auto _ : state) {
    auto mds = rs::analysis::classical_mds(dist);
    benchmark::DoNotOptimize(mds.points.data());
    state.counters["stress"] = mds.normalized_stress;
  }
}
BENCHMARK(BM_MdsClassical)->Arg(15)->Arg(25)->Unit(benchmark::kMillisecond);

void BM_MdsSmacof(benchmark::State& state) {
  rs::analysis::JaccardOptions opts;
  opts.max_per_provider = static_cast<std::size_t>(state.range(0));
  const auto dist = shared_matrix(opts);
  for (auto _ : state) {
    auto mds = rs::analysis::smacof_mds(dist);
    benchmark::DoNotOptimize(mds.points.data());
    state.counters["stress"] = mds.normalized_stress;
    state.counters["iters"] = static_cast<double>(mds.iterations);
  }
}
BENCHMARK(BM_MdsSmacof)->Arg(15)->Arg(25)->Unit(benchmark::kMillisecond);

// Ablation: single vs complete linkage on the same matrix.  Complete
// linkage fragments decade-long lineages (more clusters, worse purity fit
// to the four families), which is why the pipeline uses single linkage.
void BM_Clustering(benchmark::State& state) {
  rs::analysis::JaccardOptions opts;
  opts.max_per_provider = 25;
  const auto dist = shared_matrix(opts);
  const bool complete = state.range(0) == 1;
  for (auto _ : state) {
    auto clusters =
        complete ? rs::analysis::cluster_snapshots_complete(dist, 0.35)
                 : rs::analysis::cluster_snapshots(dist, 0.35);
    benchmark::DoNotOptimize(clusters.assignment.data());
    state.counters["clusters"] = static_cast<double>(clusters.cluster_count);
    state.counters["silhouette"] =
        rs::analysis::silhouette_score(dist, clusters);
  }
  state.SetLabel(complete ? "complete-linkage" : "single-linkage");
}
BENCHMARK(BM_Clustering)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_VersionIndexBuild(benchmark::State& state) {
  const auto& scenario = shared_scenario();
  const auto* nss = scenario.database().find("NSS");
  for (auto _ : state) {
    auto index = rs::analysis::build_version_index(*nss, shared_table());
    benchmark::DoNotOptimize(index.size());
  }
}
BENCHMARK(BM_VersionIndexBuild)->Unit(benchmark::kMillisecond);

void BM_ChurnAndOutliers(benchmark::State& state) {
  const auto& scenario = shared_scenario();
  for (auto _ : state) {
    std::vector<rs::analysis::ChurnSeries> all;
    for (const auto& [name, history] : scenario.database().histories()) {
      (void)name;
      all.push_back(rs::analysis::churn_series(history, shared_table()));
    }
    auto outliers = rs::analysis::find_outliers(all);
    benchmark::DoNotOptimize(outliers.data());
    state.counters["outliers"] = static_cast<double>(outliers.size());
  }
}
BENCHMARK(BM_ChurnAndOutliers)->Unit(benchmark::kMillisecond);

void BM_UpdateCadenceAll(benchmark::State& state) {
  const auto& scenario = shared_scenario();
  for (auto _ : state) {
    double total = 0;
    for (const auto& [name, history] : scenario.database().histories()) {
      (void)name;
      total += rs::analysis::update_cadence(history, shared_table())
                   .substantial_per_year;
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_UpdateCadenceAll)->Unit(benchmark::kMillisecond);

void BM_OperatorFootprints(benchmark::State& state) {
  const auto& scenario = shared_scenario();
  const std::vector<std::string> programs = {"NSS", "Java", "Apple",
                                             "Microsoft"};
  for (auto _ : state) {
    auto footprints =
        rs::analysis::operator_footprints(scenario.database(), programs);
    benchmark::DoNotOptimize(footprints.data());
    state.counters["operators"] = static_cast<double>(footprints.size());
  }
}
BENCHMARK(BM_OperatorFootprints)->Unit(benchmark::kMillisecond);

// --- Observability overhead (BENCH_obs.json) -------------------------------
//
// The same Figure-1-sized work items with the rs_obs registry disabled
// (the default) vs enabled with the production steady clock;
// tools/record_bench.sh prints the cost of switching tracing on.  The
// disabled-mode contract (no allocation, no clock read, nothing collected)
// is enforced by tests/obs/obs_disabled_test.cpp, not timed here: a
// disabled probe is one relaxed atomic load, far below what repeated
// recordings of one tree can resolve.

void BM_JaccardMatrixObs(benchmark::State& state) {
  shared_table();  // built outside the timed loop
  rs::analysis::JaccardOptions opts;
  opts.min_date = rs::util::Date::ymd(2011, 1, 1);
  opts.max_per_provider = 40;
  auto& reg = rs::obs::Registry::global();
  const bool traced = state.range(0) == 1;
  if (traced) reg.enable();
  for (auto _ : state) {
    // Per-iteration reset keeps span storage bounded; its cost is part of
    // the enabled arm by design (a traced run pays for its bookkeeping).
    if (traced) reg.reset();
    auto dist = shared_matrix(opts);
    benchmark::DoNotOptimize(dist.values.data());
    state.counters["snapshots"] = static_cast<double>(dist.size());
  }
  if (traced) {
    state.counters["spans"] = static_cast<double>(reg.spans().size());
    reg.disable();
    reg.reset();
  }
  state.SetLabel(traced ? "traced" : "untraced");
}
BENCHMARK(BM_JaccardMatrixObs)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_StalenessObs(benchmark::State& state) {
  const auto& scenario = shared_scenario();
  const auto index = rs::analysis::build_version_index(
      *scenario.database().find("NSS"), shared_table());
  auto& reg = rs::obs::Registry::global();
  const bool traced = state.range(0) == 1;
  if (traced) reg.enable();
  for (auto _ : state) {
    if (traced) reg.reset();
    double total = 0;
    for (const char* name :
         {"Alpine", "AmazonLinux", "Android", "NodeJS", "Debian", "Ubuntu"}) {
      total += rs::analysis::derivative_staleness(
                   *scenario.database().find(name), shared_table(), index)
                   .avg_versions_behind;
    }
    benchmark::DoNotOptimize(total);
  }
  if (traced) {
    state.counters["spans"] = static_cast<double>(reg.spans().size());
    reg.disable();
    reg.reset();
  }
  state.SetLabel(traced ? "traced" : "untraced");
}
BENCHMARK(BM_StalenessObs)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace
